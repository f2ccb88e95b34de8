//! Cluster state: topology + allocation + per-server free VM slots.
//!
//! [`Cluster`] is the piece of shared world state the simulator, the S-CORE
//! engine and the baselines all operate on. It enforces the server-side
//! capacity boundaries of §VI ("a VM migrates only when Theorem 1 is
//! satisfied and the target host has sufficient system resources").

use score_topology::{ServerId, Topology, VmId};
use score_traffic::PairTraffic;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::allocation::Allocation;
use crate::resources::{AdmissionError, ServerSpec, VmSpec};
use crate::slotindex::FreeSlotIndex;

/// Error constructing a [`Cluster`].
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The allocation references more servers than the topology has.
    ServerCountMismatch {
        /// Servers in the allocation.
        allocation: u32,
        /// Servers in the topology.
        topology: usize,
    },
    /// VM population differs between allocation and traffic.
    VmCountMismatch {
        /// VMs in the allocation.
        allocation: u32,
        /// VMs in the traffic description.
        traffic: u32,
    },
    /// The initial allocation violates a server's capacity.
    InitialOverCommit {
        /// The overloaded server.
        server: ServerId,
        /// The violated resource.
        source: AdmissionError,
    },
    /// A requested placement target refused the VM.
    PlacementRejected {
        /// The refusing server.
        server: ServerId,
        /// The violated resource.
        source: AdmissionError,
    },
    /// No server in the cluster can host the VM.
    NoCapacity,
    /// The VM does not exist (out of range, or already departed).
    UnknownVm {
        /// The offending id.
        vm: VmId,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::ServerCountMismatch {
                allocation,
                topology,
            } => write!(
                f,
                "allocation spans {allocation} servers but the topology has {topology}"
            ),
            ClusterError::VmCountMismatch {
                allocation,
                traffic,
            } => write!(
                f,
                "VM population mismatch: allocation {allocation}, traffic {traffic}"
            ),
            ClusterError::InitialOverCommit { server, source } => {
                write!(f, "initial allocation overcommits {server}: {source}")
            }
            ClusterError::PlacementRejected { server, source } => {
                write!(f, "placement on {server} rejected: {source}")
            }
            ClusterError::NoCapacity => write!(f, "no server can host the VM"),
            ClusterError::UnknownVm { vm } => {
                write!(f, "{vm} does not exist (out of range or departed)")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// A slot's bound word when nothing is memoised: the next read sweeps.
const UNKNOWN: u64 = u64::MAX;
/// A slot's bound word when its value is a sweep of the host, multiplied
/// through by every `ScaleAll` since.
const EXACT: u64 = 0;
/// Twice the unit roundoff, so `n · EPS` bounds the `γ_n = n·u / (1 − n·u)`
/// of an `n`-term float sum of nonnegative terms for any `n` met here.
const EPS: f64 = f64::EPSILON;
/// What one `ScaleAll` adds to a memo's relative distance from the exact
/// load, doubled: the memo's multiply and the rates' own re-rounding.
const SCALE_ERR: f64 = 4.0 * EPS;
/// A fold whose relative bound passes this drops the slot: a load that
/// cancelled that far is cheaper to re-sweep than to keep uncertain, and
/// every bound here stays a first-order one.
const MAX_BOUND: f64 = 1e-6;
/// Folded values stay within `[2^-256, 2^256]`, and a `ScaleAll` history
/// whose composed factor leaves that range drops every slot, so a folded
/// value never leaves the normal floats (where rounding is relative).
const FOLD_MIN: f64 = f64::from_bits((1023 - 256) << 52);
const FOLD_MAX: f64 = f64::from_bits((1023 + 256) << 52);
/// Covers the rounding of the bound arithmetic itself.
const SLACK: f64 = 1.0 + 1.0 / (1u64 << 40) as f64;

/// The relative rounding bound of a fresh sweep over a TM of `pairs`
/// pairs: a host's sum has at most `2 · pairs` terms.
fn sweep_err(pairs: usize) -> f64 {
    (2 * pairs + 1) as f64 * EPS
}

/// What an [`ExtLoadCache`] slot holds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    Unknown,
    Exact(f64),
    /// A load that carries folded migrations: `|load − E| ≤ (rho +
    /// since · SCALE_ERR) · load`, where `E` is the exact sum of the
    /// host's current external rates and `since` counts the `ScaleAll`s
    /// after the last fold.
    Folded {
        load: f64,
        rho: f64,
        since: u32,
    },
}

/// Per-host memo of [`Cluster::host_external_load`], kept as a bounded
/// NIC account.
///
/// The dynamic bandwidth probe reads the target's external load on every
/// candidate, and summing it afresh is O(hosted VMs × their degrees) — the
/// single most expensive part of a decision at 100k hosts. A slot is a
/// `(bound, f64 bits)` pair of atomics, so readers under `&self` can fill
/// it. The bound word is [`UNKNOWN`], [`EXACT`] (the value a sweep gave,
/// multiplied through by every `ScaleAll` since), or a folded slot's
/// relative error bound: an `f32` rounded up, packed with the `ScaleAll`
/// counter at its last fold so that a scale widens every bound in O(1).
///
/// A migration folds its mover's exact effect into both endpoints' slots
/// ([`ExtLoadCache::fold`]) and widens their bounds by the rounding of
/// that arithmetic; patches, churn, placement and rebinds drop slots.
/// [`ExtLoadCache::interval`] widens a folded slot once more, by what a
/// fresh sweep may round, so the interval holds every value the memo
/// could have held had the host been re-swept after its last migration:
/// a fresh sweep, or an older one multiplied through by `ScaleAll`s.
/// [`Cluster::can_host`] decides from the two ends of that interval and
/// sweeps only when they disagree; public reads re-sweep a folded slot.
///
/// The bounds are counted per era: an era ends, dropping every slot, when
/// its `ScaleAll`s overflow the `u32` counter or compose a factor outside
/// `[2^-256, 2^256]`.
///
/// Why racing readers are sound: folds and drops need `&mut`; under
/// `&self` the only write is a sweep storing an exact value, and the load
/// is a pure function of the allocation and the TM, which change only
/// under `&mut Cluster` — so racing sweeps store the same bits. The value
/// store is ordered before the bound store (Release) and readers load the
/// bound with Acquire, so an exact bound always yields a fully written
/// value. A reader that pairs a folded bound with a value a racing sweep
/// just stored reads a sweep, which the folded interval holds anyway.
#[derive(Debug)]
struct ExtLoadCache {
    /// [`UNKNOWN`], [`EXACT`] or a packed folded bound (see [`Slot`]).
    bounds: Vec<AtomicU64>,
    /// `f64::to_bits` of the memoised load, meaningful unless unknown.
    values: Vec<AtomicU64>,
    /// `ScaleAll`s this era.
    scales: u32,
    /// Their composed factor.
    drift: f64,
}

/// A clone starts cold: atomics are not `Clone`, and the copy re-fills
/// lazily from its own cluster's state anyway.
impl Clone for ExtLoadCache {
    fn clone(&self) -> Self {
        ExtLoadCache::new(self.bounds.len())
    }
}

impl ExtLoadCache {
    fn new(servers: usize) -> Self {
        ExtLoadCache {
            bounds: (0..servers).map(|_| AtomicU64::new(UNKNOWN)).collect(),
            values: (0..servers).map(|_| AtomicU64::new(0)).collect(),
            scales: 0,
            drift: 1.0,
        }
    }

    #[inline]
    fn slot(&self, i: usize) -> Slot {
        let word = self.bounds[i].load(Ordering::Acquire);
        if word == UNKNOWN {
            return Slot::Unknown;
        }
        let load = f64::from_bits(self.values[i].load(Ordering::Relaxed));
        if word == EXACT {
            return Slot::Exact(load);
        }
        Slot::Folded {
            load,
            rho: f64::from(f32::from_bits((word >> 32) as u32)),
            since: self.scales - word as u32,
        }
    }

    /// `Some((load, radius))` for a memoised slot: `load ± radius` holds
    /// the exact load and any sweep of it over a TM of `pairs` pairs, at
    /// any point since the slot's last fold, multiplied through by the
    /// `ScaleAll`s after that point. An exact slot has radius 0.
    #[inline]
    fn interval(&self, i: usize, pairs: usize) -> Option<(f64, f64)> {
        match self.slot(i) {
            Slot::Unknown => None,
            Slot::Exact(load) => Some((load, 0.0)),
            // The slot's own bound, and a sweep's rounding with the scales
            // a memo swept after the last fold has taken since.
            Slot::Folded { load, rho, since } => {
                let rel = rho + sweep_err(pairs) + 2.0 * f64::from(since) * SCALE_ERR;
                Some((load, rel * load * SLACK))
            }
        }
    }

    #[inline]
    fn put(&self, i: usize, v: f64) {
        self.values[i].store(v.to_bits(), Ordering::Relaxed);
        self.bounds[i].store(EXACT, Ordering::Release);
    }

    #[inline]
    fn invalidate(&self, i: usize) {
        self.bounds[i].store(UNKNOWN, Ordering::Relaxed);
    }

    /// Drops every slot and starts a new era.
    fn invalidate_all(&mut self) {
        for b in &mut self.bounds {
            *b.get_mut() = UNKNOWN;
        }
        self.scales = 0;
        self.drift = 1.0;
    }

    /// Folds a migration into slot `i`: its load becomes `load + first +
    /// second`, evaluated in that order, where `first` and `second` are
    /// sums over the mover's `degree` peers. The bound widens by the
    /// rounding of both sums and both additions. A slot whose folded value
    /// leaves `[FOLD_MIN, FOLD_MAX]` (0 among them) or whose bound passes
    /// [`MAX_BOUND`] is dropped.
    fn fold(&mut self, i: usize, first: f64, second: f64, degree: usize, pairs: usize) {
        let (load, bound) = match self.slot(i) {
            Slot::Unknown => return,
            // A sweep's rounding, and every scale this era may have added.
            Slot::Exact(load) => (load, sweep_err(pairs) + f64::from(self.scales) * SCALE_ERR),
            Slot::Folded { load, rho, since } => (load, rho + f64::from(since) * SCALE_ERR),
        };
        let partial = load + first;
        let folded = partial + second;
        let err = bound * load
            + EPS * (degree as f64 * (first.abs() + second.abs()) + partial.abs() + folded.abs());
        let rho = err / folded * SLACK;
        let in_range = |v: f64| (FOLD_MIN..=FOLD_MAX).contains(&v);
        if !(in_range(load) && in_range(folded) && rho <= MAX_BOUND) {
            *self.bounds[i].get_mut() = UNKNOWN;
            return;
        }
        let mut packed = rho as f32;
        if f64::from(packed) < rho {
            packed = packed.next_up();
        }
        *self.values[i].get_mut() = folded.to_bits();
        *self.bounds[i].get_mut() = (u64::from(packed.to_bits()) << 32) | u64::from(self.scales);
    }

    /// Multiplies every memoised load by `factor` (saturating): a load is
    /// a sum of pair rates, so a uniform rate scale scales it too and no
    /// host has to be re-swept. One pass over the values; the folded
    /// bounds widen through the era's counter. Unknown slots hold garbage
    /// either way.
    fn scale_all(&mut self, factor: f64) {
        let drift = self.drift * factor;
        if self.scales == u32::MAX || !(FOLD_MIN..=FOLD_MAX).contains(&drift) {
            self.invalidate_all();
            return;
        }
        self.scales += 1;
        self.drift = drift;
        for v in &mut self.values {
            let bits = v.get_mut();
            *bits = (f64::from_bits(*bits) * factor).min(f64::MAX).to_bits();
        }
    }
}

/// Topology + allocation + free-slot account.
///
/// The cluster holds no rates. Every method that reads them — the §V-C
/// NIC probe ([`Cluster::can_host`], [`Cluster::migrate`]) and the loads
/// behind it — borrows the one traffic matrix its caller owns, and the
/// owner tells the cluster of each change to that matrix
/// ([`Cluster::patch_traffic`], [`Cluster::scale_traffic`],
/// [`Cluster::rebind_traffic`]) so the memoised per-host loads stay
/// within their bounds, the way a [`crate::CostLedger`] is told. Every
/// call must therefore pass the same, current matrix.
#[derive(Clone)]
pub struct Cluster {
    topo: Arc<dyn Topology>,
    server_spec: ServerSpec,
    /// VMs one server hosts, and the resource that refuses the next one
    /// ([`ServerSpec::vm_capacity`] of the cluster's one VM shape).
    capacity: u32,
    full: AdmissionError,
    alloc: Allocation,
    /// Liveness per VM id. Departed VMs are tombstoned (kept in the
    /// allocation without a slot) rather than compacted, so ids stay
    /// dense and stable for audit logs and replay.
    active: Vec<bool>,
    /// The one slot account: `capacity` minus the live VMs hosted for an
    /// up host, 0 for a down one, in a max segment tree so
    /// [`Cluster::choose_server`] resolves in O(log servers) instead of a
    /// fleet scan.
    slot_index: FreeSlotIndex,
    /// Liveness per server. A down host admits nothing
    /// ([`AdmissionError::HostDown`]) and is excluded from
    /// [`Cluster::choose_server`]; its VMs stay bound until the fault
    /// pipeline evacuates them (migrations *off* a down host are legal).
    host_up: Vec<bool>,
    /// Hosts currently down, cached so recovery accounting is O(1).
    hosts_down: u32,
    /// Access-tier capacity scale from `LinkDegrade { tier: 0 }` events:
    /// the dynamic NIC admission check runs against
    /// `factor × nic_bps`. 1.0 when undegraded.
    nic_capacity_factor: f64,
    /// Memoized per-host external loads (see [`ExtLoadCache`]).
    ext_load: ExtLoadCache,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("topology", &self.topo.name())
            .field("servers", &self.alloc.num_servers())
            .field("vms", &self.alloc.num_vms())
            .field("server_spec", &self.server_spec)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Builds a cluster whose VMs all demand `vm_spec`, validating the
    /// initial allocation against the servers' VM capacity. `traffic` is
    /// only checked for its population and swept once to fill the
    /// memoised NIC loads; the cluster keeps no copy.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] if populations are inconsistent or the
    /// initial allocation overcommits any server (slots/RAM/CPU; the NIC
    /// threshold is enforced only on migrations, since the initial
    /// placement is whatever the DC already runs).
    pub fn new(
        topo: Arc<dyn Topology>,
        server_spec: ServerSpec,
        vm_spec: VmSpec,
        traffic: &PairTraffic,
        alloc: Allocation,
    ) -> Result<Self, ClusterError> {
        if alloc.num_servers() as usize != topo.num_servers() {
            return Err(ClusterError::ServerCountMismatch {
                allocation: alloc.num_servers(),
                topology: topo.num_servers(),
            });
        }
        if traffic.num_vms() != alloc.num_vms() {
            return Err(ClusterError::VmCountMismatch {
                allocation: alloc.num_vms(),
                traffic: traffic.num_vms(),
            });
        }
        let (capacity, full) = server_spec.vm_capacity(&vm_spec);
        let mut free = vec![capacity; topo.num_servers()];
        for (_, server) in alloc.iter() {
            let left = &mut free[server.index()];
            if *left == 0 {
                return Err(ClusterError::InitialOverCommit {
                    server,
                    source: full,
                });
            }
            *left -= 1;
        }
        let active = vec![true; alloc.num_vms() as usize];
        let slot_index = FreeSlotIndex::new(free.into_iter());
        let host_up = vec![true; topo.num_servers()];
        let ext_load = ExtLoadCache::new(topo.num_servers());
        let cluster = Cluster {
            topo,
            server_spec,
            capacity,
            full,
            alloc,
            active,
            slot_index,
            host_up,
            hosts_down: 0,
            nic_capacity_factor: 1.0,
            ext_load,
        };
        // Pre-fill the external-load cache through the ordinary read path
        // (so cached values are bit-identical to lazy fills): one O(pairs)
        // sweep at build time means the first decisions of a fresh
        // cluster don't each pay a cold per-host compute.
        for s in 0..cluster.host_up.len() {
            let _ = cluster.host_external_load(traffic, ServerId::new(s as u32));
        }
        Ok(cluster)
    }

    /// Takes one free slot of an up `server` for an arriving VM.
    fn take_slot(&mut self, server: ServerId) {
        let free = self.slot_index.free(server.index());
        self.slot_index.set(server.index(), free - 1);
    }

    /// Frees the slot of a VM leaving `server`. A down host's account
    /// stays pinned at 0: it never hosts again.
    ///
    /// # Panics
    ///
    /// Panics if an up `server` has no VM to release (eviction without
    /// admission).
    fn release_slot(&mut self, server: ServerId) {
        if self.host_up[server.index()] {
            let free = self.slot_index.free(server.index());
            assert!(free < self.capacity, "evicting from an empty server");
            self.slot_index.set(server.index(), free + 1);
        }
    }

    /// The topology.
    pub fn topo(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// The current allocation.
    pub fn allocation(&self) -> &Allocation {
        &self.alloc
    }

    /// The uniform server spec.
    pub fn server_spec(&self) -> &ServerSpec {
        &self.server_spec
    }

    /// Number of VMs.
    pub fn num_vms(&self) -> u32 {
        self.alloc.num_vms()
    }

    /// Traffic of `vm` that would leave `host`'s NIC if `vm` ran there:
    /// the sum of its pair rates to peers hosted elsewhere.
    fn external_rate(&self, traffic: &PairTraffic, vm: VmId, host: ServerId) -> f64 {
        let [(off, _)] = self.split_peers(traffic, vm, [host]);
        off
    }

    /// `vm`'s pair rates split against each of `hosts` in one walk of its
    /// peer list: `(off, on)`, the sums of its rates to peers hosted
    /// elsewhere and on that host. Each accumulator adds its terms in
    /// peer order from `.sum()`'s `-0.0`, so it has the bits of a `.sum()`
    /// over the same filter.
    #[inline]
    fn split_peers<const N: usize>(
        &self,
        traffic: &PairTraffic,
        vm: VmId,
        hosts: [ServerId; N],
    ) -> [(f64, f64); N] {
        let mut sums = [(-0.0, -0.0); N];
        for (peer, rate) in traffic.peers(vm) {
            let at = self.alloc.server_of(peer);
            for (&host, (off, on)) in hosts.iter().zip(&mut sums) {
                if at == host {
                    *on += rate;
                } else if peer != vm {
                    *off += rate;
                }
            }
        }
        sums
    }

    /// Current NIC load of a server: traffic its hosted VMs exchange with
    /// VMs on other servers.
    ///
    /// Memoised per host (see `ExtLoadCache`) and always exact: reading a
    /// host whose memo is unknown, or carries folded migrations, pays the
    /// O(hosted VMs × degree) sweep and leaves the memo exact; repeat
    /// reads are O(1). It returns the sweep below against the current
    /// allocation and `traffic`, multiplied through by any
    /// [`Cluster::scale_traffic`] since.
    pub fn host_external_load(&self, traffic: &PairTraffic, host: ServerId) -> f64 {
        match self.ext_load.slot(host.index()) {
            Slot::Exact(v) => v,
            _ => self.refill(traffic, host),
        }
    }

    /// The memoised NIC load of `host` as the account holds it, past the
    /// re-sweep of [`Cluster::host_external_load`]: `Some((load,
    /// radius))`, where `load ± radius` holds a fresh sweep (radius 0
    /// when exact), or `None` when nothing is memoised. Its one caller is
    /// `crates/sim/tests/drift_soak.rs`, which measures the folded values
    /// themselves.
    #[doc(hidden)]
    pub fn memoised_external_load(
        &self,
        traffic: &PairTraffic,
        host: ServerId,
    ) -> Option<(f64, f64)> {
        self.ext_load.interval(host.index(), traffic.num_pairs())
    }

    /// Sweeps `host` and memoises the exact load.
    fn refill(&self, traffic: &PairTraffic, host: ServerId) -> f64 {
        let v = self.external_load_sweep(traffic, host);
        self.ext_load.put(host.index(), v);
        v
    }

    /// `host`'s external load summed afresh, past the cache.
    fn external_load_sweep(&self, traffic: &PairTraffic, host: ServerId) -> f64 {
        self.alloc
            .vms_on(host)
            .iter()
            .map(|&u| self.external_rate(traffic, u, host))
            .sum()
    }

    /// Panics unless the derived state agrees with the allocation and
    /// `traffic`, the TM the cluster has been told of: the allocation,
    /// the TM and the liveness flags count the same VMs; every host holds
    /// at most `capacity` live VMs, down hosts none, and `hosts_down`
    /// counts the down hosts; the one slot account holds `capacity` minus
    /// the live VMs hosted for an up host and 0 for a down one; every
    /// exact memoised external load is within 1e-9 relative of a fresh
    /// sum over `traffic` (a `ScaleAll` multiplies cached sums through
    /// instead of re-summing, so they may differ in the last bits), and
    /// every folded one's interval holds that sum. O(VMs × degree): the
    /// property suites call it inside their step loops.
    #[cfg(any(test, debug_assertions))]
    #[doc(hidden)]
    pub fn check_invariants(&self, traffic: &PairTraffic) {
        let vms = self.alloc.num_vms();
        assert!(
            traffic.num_vms() == vms && self.active.len() == vms as usize,
            "VM count: allocation {vms}, TM {}, liveness flags {}",
            traffic.num_vms(),
            self.active.len()
        );
        let down = self.host_up.iter().filter(|&&up| !up).count();
        assert_eq!(
            self.hosts_down as usize, down,
            "hosts_down counts the down hosts"
        );
        for s in 0..self.host_up.len() {
            let server = ServerId::new(s as u32);
            let on = self.alloc.vms_on(server).iter();
            let hosted = on.filter(|vm| self.active[vm.index()]).count() as u32;
            assert!(
                self.host_up[s] || hosted == 0,
                "down host {server} hosts {hosted} live VMs"
            );
            assert!(
                hosted <= self.capacity,
                "{server} over capacity: {hosted} VMs, room for {}",
                self.capacity
            );
            let free = if self.host_up[s] {
                self.capacity - hosted
            } else {
                0
            };
            assert_eq!(self.slot_index.free(s), free, "free-slot index of {server}");
            if let Some((memo, radius)) = self.ext_load.interval(s, traffic.num_pairs()) {
                let fresh = self.external_load_sweep(traffic, server);
                let tolerance = if radius == 0.0 {
                    1e-9 * memo.abs().max(fresh.abs())
                } else {
                    radius
                };
                assert!(
                    (memo - fresh).abs() <= tolerance,
                    "memoised external load of {server}: {memo} ± {radius} vs a fresh {fresh}"
                );
            }
        }
    }

    /// Can `server` host `vm` right now, honouring the bandwidth threshold
    /// (fraction of NIC capacity hosted traffic may use)?
    ///
    /// The bandwidth check is *dynamic* (§V-C): it accounts for the NIC
    /// load the move would actually produce — pairs that become intra-host
    /// stop loading the NIC at all, so collocating a heavy pair can
    /// *relieve* the target's NIC. `traffic` is the TM the cluster has
    /// been told of; it is read only when the threshold is finite.
    ///
    /// The answer is the one an exact memo gives. When the target's memo
    /// carries folded migrations, the check runs at both ends of its
    /// interval (see `ExtLoadCache`): it is monotone in the load, so two
    /// equal answers certify it. Only a threshold inside the interval
    /// pays a sweep, which leaves the memo exact.
    ///
    /// # Errors
    ///
    /// Returns the violated resource.
    pub fn can_host(
        &self,
        traffic: &PairTraffic,
        server: ServerId,
        vm: VmId,
        bandwidth_threshold: f64,
    ) -> Result<(), AdmissionError> {
        self.static_admission(server)?;
        if bandwidth_threshold.is_finite() {
            let [split] = self.split_peers(traffic, vm, [server]);
            self.nic_admission(traffic, server, bandwidth_threshold, split)?;
        }
        Ok(())
    }

    /// The liveness and slot/RAM/CPU half of [`Cluster::can_host`]: an
    /// up host with a free slot. A full host refuses with the resource
    /// that caps it.
    fn static_admission(&self, server: ServerId) -> Result<(), AdmissionError> {
        if !self.host_up[server.index()] {
            return Err(AdmissionError::HostDown);
        }
        if self.slot_index.free(server.index()) == 0 {
            return Err(self.full);
        }
        Ok(())
    }

    /// The NIC half of [`Cluster::can_host`], given the mover's
    /// `(incoming, internalised)` rates against `server`: the sums to
    /// peers hosted elsewhere, which would load the NIC after the move,
    /// and to peers on `server`, which load it now and would become
    /// intra-host.
    fn nic_admission(
        &self,
        traffic: &PairTraffic,
        server: ServerId,
        bandwidth_threshold: f64,
        (incoming, internalised): (f64, f64),
    ) -> Result<(), AdmissionError> {
        let capacity = self.nic_capacity_factor * self.server_spec.nic_bps;
        let over =
            |load: f64| load + incoming - internalised > bandwidth_threshold * capacity + 1e-9;
        let exceeds = match self.ext_load.interval(server.index(), traffic.num_pairs()) {
            Some((load, radius)) if over(load - radius) == over(load + radius) => over(load),
            _ => over(self.refill(traffic, server)),
        };
        if exceeds {
            return Err(AdmissionError::Bandwidth);
        }
        Ok(())
    }

    /// Migrates `vm` to `target` after re-validating admission against
    /// `traffic` (see [`Cluster::can_host`]).
    ///
    /// # Errors
    ///
    /// Returns the violated resource; the cluster is unchanged on error.
    pub fn migrate(
        &mut self,
        traffic: &PairTraffic,
        vm: VmId,
        target: ServerId,
        bandwidth_threshold: f64,
    ) -> Result<(), AdmissionError> {
        let current = self.alloc.server_of(vm);
        if current == target {
            return Ok(());
        }
        let [(off_source, on_source), (off_target, on_target)] =
            self.split_peers(traffic, vm, [current, target]);
        self.static_admission(target)?;
        if bandwidth_threshold.is_finite() {
            self.nic_admission(
                traffic,
                target,
                bandwidth_threshold,
                (off_target, on_target),
            )?;
        }
        self.release_slot(current);
        self.take_slot(target);
        self.alloc.move_vm(vm, target);
        // Only the two endpoints' external loads change: for any third
        // server, `vm`'s pairs were external before and stay external.
        // The source stops carrying `vm`'s external pairs and starts
        // carrying its pairs to the VMs left behind; the target takes the
        // sums its admission check just added to its load.
        let (degree, pairs) = (traffic.degree(vm), traffic.num_pairs());
        let cache = &mut self.ext_load;
        cache.fold(current.index(), -off_source, on_source, degree, pairs);
        cache.fold(target.index(), off_target, -on_target, degree, pairs);
        Ok(())
    }

    /// Whether `vm` is live (placed and not yet removed). Out-of-range
    /// ids are simply not live.
    pub fn is_active(&self, vm: VmId) -> bool {
        self.active.get(vm.index()).copied().unwrap_or(false)
    }

    /// Number of live VMs (total ids minus tombstones).
    pub fn num_active(&self) -> u32 {
        self.active.iter().filter(|&&a| a).count() as u32
    }

    /// Deterministically picks the server a newly arriving VM should
    /// land on: the admissible server with the most free slots, lowest
    /// id winning ties — the §V-A "centralized VM instance placement
    /// manager" choice, reproducible from cluster state alone.
    ///
    /// Every VM has the cluster's one shape, so an up host with a free
    /// slot admits it, and the pick is the leftmost maximum of the
    /// free-slot segment tree, found in one O(log servers) descent
    /// (down hosts hold 0 there). That keeps arrival decisions at µs
    /// latency on 100k-host fleets, with the pick of a linear scan.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoCapacity`] when no server passes the
    /// static admission check.
    pub fn choose_server(&self) -> Result<ServerId, ClusterError> {
        self.slot_index
            .best()
            .map(|i| ServerId::new(i as u32))
            .ok_or(ClusterError::NoCapacity)
    }

    /// Places a newly arriving VM on `server` (or the
    /// [`Cluster::choose_server`] pick when `None`), growing the
    /// population by one dense id. The TM's owner grows its matrix by
    /// the same id ([`PairTraffic::push_vm`]): the newcomer starts with
    /// zero traffic — its communication cost contribution is exactly 0
    /// until rates arrive as ordinary traffic deltas — so placement never
    /// touches existing pairs and any external cost ledger stays exact
    /// without repricing anything.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::PlacementRejected`] when the explicit
    /// target refuses the VM, or [`ClusterError::NoCapacity`] when no
    /// target was given and no server can host it. The cluster is
    /// unchanged on error.
    pub fn place_vm(&mut self, server: Option<ServerId>) -> Result<(VmId, ServerId), ClusterError> {
        let target = match server {
            Some(s) => {
                if s.index() >= self.host_up.len() {
                    return Err(ClusterError::NoCapacity);
                }
                self.static_admission(s)
                    .map_err(|source| ClusterError::PlacementRejected { server: s, source })?;
                s
            }
            None => self.choose_server()?,
        };
        self.take_slot(target);
        // A zero-traffic newcomer contributes 0 to the target's external
        // load; invalidate anyway so the invariant stays local to reason
        // about (every allocation change drops the touched hosts).
        self.ext_load.invalidate(target.index());
        let vm = self.alloc.push_vm(target);
        self.active.push(true);
        Ok((vm, target))
    }

    /// Removes a live VM from the cluster: frees its server slot and
    /// tombstones the id (see the `active` field — ids stay dense and
    /// stable). The TM's owner zeroes the VM's pairs and tells the
    /// cluster through [`Cluster::patch_traffic`], as for any delta.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownVm`] for an out-of-range or
    /// already-removed id; the cluster is unchanged on error.
    pub fn remove_vm(&mut self, vm: VmId) -> Result<(), ClusterError> {
        if !self.is_active(vm) {
            return Err(ClusterError::UnknownVm { vm });
        }
        self.release_slot(self.alloc.server_of(vm));
        self.active[vm.index()] = false;
        Ok(())
    }

    /// Tells the cluster its TM was replaced wholesale by `traffic` (a
    /// traffic-phase shift): after a population check every memoised
    /// external load is dropped. The allocation and the slot account
    /// carry over untouched (neither depends on traffic).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::VmCountMismatch`] if the new traffic
    /// describes a different VM population; the cluster is unchanged on
    /// error.
    pub fn rebind_traffic(&mut self, traffic: &PairTraffic) -> Result<(), ClusterError> {
        if traffic.num_vms() != self.alloc.num_vms() {
            return Err(ClusterError::VmCountMismatch {
                allocation: self.alloc.num_vms(),
                traffic: traffic.num_vms(),
            });
        }
        self.ext_load.invalidate_all();
        Ok(())
    }

    /// Tells the cluster of a **sparse** traffic delta: each change is
    /// `(u, v, old_rate, new_rate)` for one pair (the shape a cost
    /// ledger reprices from; no rate is read here). Only the two
    /// endpoints' hosts lose their memoized external load
    /// (`O(changed pairs)`, vs [`Cluster::rebind_traffic`]'s wholesale
    /// drop) — the path trace replay takes for each mid-run delta.
    ///
    /// # Panics
    ///
    /// Panics if a change names an out-of-range VM.
    pub fn patch_traffic(&mut self, changes: &[(VmId, VmId, f64, f64)]) {
        for &(u, v, ..) in changes {
            // A pair-rate change moves both endpoints' hosts' external
            // loads (a no-op when they share a host, but harmless).
            for vm in [u, v] {
                self.ext_load.invalidate(self.alloc.server_of(vm).index());
            }
        }
    }

    /// Tells the cluster every pair rate was multiplied by `factor` — its
    /// share of a uniform `ScaleAll`, after the owner's
    /// [`PairTraffic::scale_all`]. The memoized external loads are
    /// multiplied through instead of being re-swept pair by pair, and the
    /// folded ones' bounds widen through one counter: O(servers), no pair
    /// is visited. The slot account is untouched (it does not depend on
    /// traffic).
    pub fn scale_traffic(&mut self, factor: f64) {
        self.ext_load.scale_all(factor);
    }

    /// Whether `server` is up. Out-of-range ids are not up.
    pub fn host_is_up(&self, server: ServerId) -> bool {
        self.host_up.get(server.index()).copied().unwrap_or(false)
    }

    /// Number of hosts currently marked down.
    pub fn num_hosts_down(&self) -> u32 {
        self.hosts_down
    }

    /// Current access-tier NIC capacity factor (1.0 when undegraded).
    pub fn nic_capacity_factor(&self) -> f64 {
        self.nic_capacity_factor
    }

    /// Sets the access-tier NIC capacity factor applied by
    /// [`Cluster::can_host`]'s dynamic bandwidth check — the
    /// `LinkDegrade { tier: 0 }` / `LinkRestore` consequence. Degraded
    /// capacity only constrains *future* admissions; standing placements
    /// are never forcibly shed (the SLO accounting upstream records the
    /// violation seconds instead).
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and in `(0, 1]`.
    pub fn set_nic_capacity_factor(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0 && factor <= 1.0,
            "NIC capacity factor must be in (0, 1]"
        );
        self.nic_capacity_factor = factor;
    }

    /// Marks `server` as crashed and returns its live VMs in ascending
    /// id order — the deterministic evacuation worklist. The host drops
    /// out of [`Cluster::choose_server`] immediately (its free-slot
    /// index entry is pinned to zero) and refuses all future admissions
    /// with [`AdmissionError::HostDown`]; the returned victims stay
    /// bound to it until the caller migrates them off (allowed) or
    /// retires them as unplaceable via [`Cluster::remove_vm`].
    ///
    /// Idempotent: failing an already-down host returns an empty
    /// worklist. Out-of-range servers also return an empty worklist (a
    /// fault trace may be replayed against a smaller topology probe).
    pub fn fail_host(&mut self, server: ServerId) -> Vec<VmId> {
        if server.index() >= self.host_up.len() || !self.host_up[server.index()] {
            return Vec::new();
        }
        self.host_up[server.index()] = false;
        self.hosts_down += 1;
        self.slot_index.set(server.index(), 0);
        let mut victims: Vec<VmId> = self
            .alloc
            .vms_on(server)
            .iter()
            .copied()
            .filter(|&vm| self.is_active(vm))
            .collect();
        victims.sort_unstable();
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use score_topology::CanonicalTree;
    use score_traffic::PairTrafficBuilder;

    fn traffic(n: u32) -> PairTraffic {
        let mut b = PairTrafficBuilder::new(n);
        if n >= 2 {
            b.add(VmId::new(0), VmId::new(1), 100.0);
        }
        b.build()
    }

    /// A cluster and the one TM it is told of, changed the way a session
    /// changes them: the matrix is written, then the cluster is told.
    struct World {
        c: Cluster,
        tm: PairTraffic,
    }

    impl World {
        fn new(traffic: PairTraffic, spec: ServerSpec, alloc: Allocation) -> Self {
            let topo = Arc::new(CanonicalTree::small());
            let c = Cluster::new(topo, spec, VmSpec::paper_default(), &traffic, alloc).unwrap();
            World { c, tm: traffic }
        }

        fn patch(&mut self, u: VmId, v: VmId, rate: f64) {
            let old = self.tm.rate(u, v);
            self.tm.apply_update(u, v, rate);
            self.c.patch_traffic(&[(u, v, old, rate)]);
        }

        fn scale(&mut self, factor: f64) {
            self.tm.scale_all(factor);
            self.c.scale_traffic(factor);
        }

        fn rebind(&mut self, tm: PairTraffic) -> Result<(), ClusterError> {
            self.c.rebind_traffic(&tm)?;
            self.tm = tm;
            Ok(())
        }

        fn place(&mut self, server: Option<ServerId>) -> Result<(VmId, ServerId), ClusterError> {
            let placed = self.c.place_vm(server)?;
            assert_eq!(
                self.tm.push_vm(),
                placed.0,
                "TM and allocation ids diverged"
            );
            Ok(placed)
        }

        fn remove(&mut self, vm: VmId) -> Result<(), ClusterError> {
            if self.c.is_active(vm) {
                let peers: Vec<VmId> = self.tm.peers(vm).map(|(p, _)| p).collect();
                for peer in peers {
                    self.patch(vm, peer, 0.0);
                }
            }
            self.c.remove_vm(vm)
        }

        fn migrate(
            &mut self,
            vm: VmId,
            target: ServerId,
            threshold: f64,
        ) -> Result<(), AdmissionError> {
            self.c.migrate(&self.tm, vm, target, threshold)
        }

        fn load(&self, s: ServerId) -> f64 {
            self.c.host_external_load(&self.tm, s)
        }
    }

    /// The live VMs on up host `s`, read off the slot account.
    fn hosted(c: &Cluster, s: ServerId) -> u32 {
        c.capacity - c.slot_index.free(s.index())
    }

    fn world(vms: u32, per_server: u32) -> World {
        let spec = ServerSpec {
            vm_slots: per_server,
            ..ServerSpec::paper_default()
        };
        let alloc = Allocation::from_fn(vms, 16, |vm| ServerId::new(vm.get() % 16));
        World::new(traffic(vms), spec, alloc)
    }

    /// Every host's external load — the NIC account `can_host` decides
    /// on — equals a from-scratch sum over the reference `pairs` and the
    /// current allocation.
    fn assert_ext_loads(w: &World, pairs: &[(u32, u32, f64)]) {
        for s in 0..w.c.host_up.len() as u32 {
            let s = ServerId::new(s);
            let on = |vm: u32| w.c.allocation().server_of(VmId::new(vm)) == s;
            let fresh: f64 = pairs
                .iter()
                .filter(|&&(u, v, _)| on(u) != on(v))
                .map(|&(_, _, r)| r)
                .sum();
            let got = w.load(s);
            assert!((got - fresh).abs() < 1e-9, "{s}: {got} vs {fresh}");
        }
    }

    #[test]
    fn construction_tracks_usage() {
        let w = world(32, 16);
        assert_eq!(w.c.num_vms(), 32);
        assert_eq!(hosted(&w.c, ServerId::new(0)), 2);
        assert_ext_loads(&w, &[(0, 1, 100.0)]);
    }

    #[test]
    fn migrate_moves_usage() {
        let mut w = world(4, 16);
        w.migrate(VmId::new(0), ServerId::new(3), 1.0).unwrap();
        assert_eq!(w.c.allocation().server_of(VmId::new(0)), ServerId::new(3));
        assert_eq!(hosted(&w.c, ServerId::new(0)), 0);
        assert_eq!(hosted(&w.c, ServerId::new(3)), 2);
        // Its external traffic moved with it.
        assert_ext_loads(&w, &[(0, 1, 100.0)]);
    }

    #[test]
    fn migrate_respects_slots() {
        let mut w = world(16, 1); // one slot per server, all full
        let err = w.migrate(VmId::new(0), ServerId::new(1), 1.0).unwrap_err();
        assert_eq!(err, AdmissionError::NoSlot);
        // State unchanged on failure.
        assert_eq!(w.c.allocation().server_of(VmId::new(0)), ServerId::new(0));
        assert_eq!(hosted(&w.c, ServerId::new(1)), 1);
    }

    #[test]
    fn migrate_to_self_is_ok() {
        let mut w = world(16, 1);
        // Even at capacity, staying put is fine.
        w.migrate(VmId::new(0), ServerId::new(0), 1.0).unwrap();
    }

    #[test]
    fn initial_overcommit_rejected() {
        // Hosts capped at three VMs by slots, RAM or CPU (0.3 cores each,
        // summed one VM at a time). VMs 0..8 land on srv1, srv0, srv0,
        // srv0, srv1, srv1, srv0, srv1: srv0 takes its fourth VM (vm6)
        // before srv1 does (vm7), so srv0 is named, with its cap.
        let paper = ServerSpec::paper_default();
        let vm = VmSpec {
            ram_mb: 196,
            cpu_cores: 0.3,
        };
        let capped = [
            (
                ServerSpec {
                    vm_slots: 3,
                    ..paper
                },
                AdmissionError::NoSlot,
            ),
            (
                ServerSpec {
                    ram_mb: 3 * 196 + 100,
                    ..paper
                },
                AdmissionError::Ram,
            ),
            (
                ServerSpec {
                    cpu_cores: 1.0,
                    ..paper
                },
                AdmissionError::Cpu,
            ),
        ];
        let hosts = [1, 0, 0, 0, 1, 1, 0, 1];
        for (spec, source) in capped {
            let topo: Arc<dyn Topology> = Arc::new(CanonicalTree::small());
            let alloc = Allocation::from_fn(8, 16, |v| ServerId::new(hosts[v.index()]));
            let err = Cluster::new(topo, spec, vm, &traffic(8), alloc).unwrap_err();
            assert_eq!(
                err,
                ClusterError::InitialOverCommit {
                    server: ServerId::new(0),
                    source
                },
                "{spec:?}"
            );
        }
    }

    #[test]
    fn a_ram_bound_cluster_refuses_its_capacity_plus_one_with_ram() {
        // 16 slots, but RAM for three VMs: srv0 starts with three.
        let spec = ServerSpec {
            ram_mb: 3 * 196 + 195,
            ..ServerSpec::paper_default()
        };
        let alloc = Allocation::from_fn(4, 16, |v| ServerId::new(v.get().min(3) % 3));
        let mut w = World::new(traffic(4), spec, alloc);
        assert_eq!(hosted(&w.c, ServerId::new(0)), 2);
        w.place(Some(ServerId::new(0))).unwrap();
        assert_eq!(hosted(&w.c, ServerId::new(0)), 3);
        let srv0 = ServerId::new(0);
        assert_eq!(
            w.c.can_host(&w.tm, srv0, VmId::new(1), f64::INFINITY),
            Err(AdmissionError::Ram)
        );
        assert_eq!(
            w.migrate(VmId::new(1), srv0, f64::INFINITY),
            Err(AdmissionError::Ram)
        );
        assert_eq!(
            w.place(Some(srv0)),
            Err(ClusterError::PlacementRejected {
                server: srv0,
                source: AdmissionError::Ram
            })
        );
        // A departure frees the slot for the next arrival.
        w.remove(VmId::new(0)).unwrap();
        assert_eq!(w.place(Some(srv0)).map(|(_, s)| s), Ok(srv0));
        w.c.check_invariants(&w.tm);
    }

    #[test]
    fn choose_server_matches_a_linear_scan_of_the_most_free_slots() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // The scan the index replaces, read off the allocation: the up
        // host with the most free slots, lowest id first.
        fn scan(c: &Cluster) -> Option<ServerId> {
            let mut best: Option<(u32, ServerId)> = None;
            for s in (0..16).map(ServerId::new).filter(|&s| c.host_is_up(s)) {
                let on = c.allocation().vms_on(s).iter();
                let free = c.capacity - on.filter(|&&v| c.is_active(v)).count() as u32;
                if free > 0 && best.is_none_or(|(most, _)| free > most) {
                    best = Some((free, s));
                }
            }
            best.map(|(_, s)| s)
        }
        let mut rng = StdRng::seed_from_u64(49);
        let mut w = world(40, 5);
        for _ in 0..400 {
            let vms = w.c.num_vms();
            match rng.gen_range(0..10u32) {
                0..=3 => {
                    let _ = w.place(None);
                }
                4..=6 => {
                    let _ = w.remove(VmId::new(rng.gen_range(0..vms)));
                }
                7..=8 => {
                    let (vm, to) = (rng.gen_range(0..vms), rng.gen_range(0..16));
                    if w.c.is_active(VmId::new(vm)) {
                        let _ = w.migrate(VmId::new(vm), ServerId::new(to), f64::INFINITY);
                    }
                }
                _ => {
                    for vm in w.c.fail_host(ServerId::new(rng.gen_range(0..16))) {
                        match w.c.choose_server() {
                            Ok(to) => w.migrate(vm, to, f64::INFINITY).unwrap(),
                            Err(_) => w.remove(vm).unwrap(),
                        }
                    }
                }
            }
            assert_eq!(w.c.choose_server().ok(), scan(&w.c));
            w.c.check_invariants(&w.tm);
        }
        assert!(w.c.num_hosts_down() > 0 && w.c.num_hosts_down() < 16);
    }

    #[test]
    #[should_panic(expected = "evicting from an empty server")]
    fn releasing_a_slot_of_an_empty_server_panics() {
        world(4, 16).c.release_slot(ServerId::new(5));
    }

    #[test]
    fn population_mismatches_rejected() {
        let topo: Arc<dyn Topology> = Arc::new(CanonicalTree::small());
        let alloc = Allocation::from_fn(4, 16, |vm| ServerId::new(vm.get()));
        let err = Cluster::new(
            Arc::clone(&topo),
            ServerSpec::paper_default(),
            VmSpec::paper_default(),
            &traffic(5),
            alloc,
        )
        .unwrap_err();
        assert!(matches!(err, ClusterError::VmCountMismatch { .. }));

        let alloc8 = Allocation::from_fn(4, 8, |vm| ServerId::new(vm.get()));
        let err = Cluster::new(
            topo,
            ServerSpec::paper_default(),
            VmSpec::paper_default(),
            &traffic(4),
            alloc8,
        )
        .unwrap_err();
        assert!(matches!(err, ClusterError::ServerCountMismatch { .. }));
    }

    #[test]
    fn bandwidth_threshold_blocks_migration() {
        // vm0 exchanges 0.7 Gb/s with vm1 and 0.5 Gb/s with vm2.
        let mut b = PairTrafficBuilder::new(3);
        b.add(VmId::new(0), VmId::new(1), 0.7e9);
        b.add(VmId::new(0), VmId::new(2), 0.5e9);
        let alloc = Allocation::from_fn(3, 16, |vm| ServerId::new(vm.get()));
        let mut w = World::new(b.build(), ServerSpec::paper_default(), alloc);
        // Moving vm0 to an *empty* server puts its full 1.2 Gb/s external
        // demand on a 1 GbE NIC: blocked at threshold 1.0 …
        let err = w.migrate(VmId::new(0), ServerId::new(5), 1.0).unwrap_err();
        assert_eq!(err, AdmissionError::Bandwidth);
        // … but collocating with vm1 internalises the 0.7 Gb/s pair, so
        // only 0.5 Gb/s hits srv1's NIC: allowed.
        w.migrate(VmId::new(0), ServerId::new(1), 1.0).unwrap();
        assert!((w.load(ServerId::new(1)) - 0.5e9).abs() < 1.0);
        // An unconstrained threshold admits anything.
        w.migrate(VmId::new(0), ServerId::new(5), f64::INFINITY)
            .unwrap();
    }

    #[test]
    fn external_rate_tracks_allocation() {
        let mut b = PairTrafficBuilder::new(3);
        b.add(VmId::new(0), VmId::new(1), 100.0);
        b.add(VmId::new(0), VmId::new(2), 10.0);
        let alloc = Allocation::from_fn(3, 16, |vm| ServerId::new(vm.get() / 2));
        let w = World::new(b.build(), ServerSpec::paper_default(), alloc);
        // vm0 and vm1 share srv0, vm2 is on srv1.
        let rate = |host| w.c.external_rate(&w.tm, VmId::new(0), ServerId::new(host));
        assert_eq!(rate(0), 10.0);
        assert_eq!(rate(5), 110.0);
        // vm0 contributes its (0,2) pair; vm1's only peer is on-host.
        assert_eq!(w.load(ServerId::new(0)), 10.0);
    }

    #[test]
    fn ext_load_cache_matches_fresh_compute_after_each_mutator() {
        // Warm every host's cache slot, mutate, then compare against a
        // clone — clones start cold, so the clone recomputes from state.
        fn warm(w: &World) {
            for s in 0..16 {
                let _ = w.load(ServerId::new(s));
            }
        }
        fn check(w: &World) {
            let cold = w.c.clone();
            for s in 0..16 {
                let sid = ServerId::new(s);
                assert_eq!(
                    w.load(sid).to_bits(),
                    cold.host_external_load(&w.tm, sid).to_bits(),
                    "stale cached load on server {s}"
                );
            }
        }
        let mut w = world(32, 16);
        warm(&w);
        w.migrate(VmId::new(0), ServerId::new(3), f64::INFINITY)
            .unwrap();
        check(&w);
        warm(&w);
        w.patch(VmId::new(2), VmId::new(7), 55.0);
        check(&w);
        warm(&w);
        w.scale(1.5);
        check(&w);
        warm(&w);
        let (vm, _) = w.place(None).unwrap();
        w.patch(VmId::new(1), vm, 10.0);
        check(&w);
        warm(&w);
        w.remove(vm).unwrap();
        check(&w);
        warm(&w);
        // A fresh cluster over another allocation, rebound below.
        let spread = Allocation::from_fn(w.c.num_vms(), 16, |v| ServerId::new((v.get() * 3) % 16));
        w = World::new(w.tm, *w.c.server_spec(), spread);
        warm(&w);
        let mut b = PairTrafficBuilder::new(w.c.num_vms());
        b.add(VmId::new(4), VmId::new(9), 77.0);
        w.rebind(b.build()).unwrap();
        check(&w);
    }

    #[test]
    fn rebind_traffic_patches_nic_ledger_in_place() {
        let mut w = world(4, 16);
        let before_alloc = w.c.allocation().clone();
        assert_ext_loads(&w, &[(0, 1, 100.0)]);
        // New matrix: the (0,1) pair disappears, (2,3) appears at 40.
        let mut b = PairTrafficBuilder::new(4);
        b.add(VmId::new(2), VmId::new(3), 40.0);
        w.rebind(b.build()).unwrap();
        // Allocation and slot/RAM usage carry over untouched.
        assert_eq!(w.c.allocation(), &before_alloc);
        assert_eq!(hosted(&w.c, ServerId::new(0)), 1);
        // NIC accounting reflects the new rates.
        assert_ext_loads(&w, &[(2, 3, 40.0)]);
        assert_eq!(w.load(ServerId::new(0)), 0.0);
        // A population mismatch is rejected and leaves the cluster alone.
        let err = w.rebind(traffic(5)).unwrap_err();
        assert!(matches!(err, ClusterError::VmCountMismatch { .. }));
        assert_ext_loads(&w, &[(2, 3, 40.0)]);
    }

    #[test]
    fn patch_traffic_adjusts_only_changed_pairs() {
        let mut w = world(4, 16);
        // (0,1) re-rated to 60, (2,3) appears at 40.
        w.patch(VmId::new(0), VmId::new(1), 60.0);
        w.patch(VmId::new(2), VmId::new(3), 40.0);
        assert_ext_loads(&w, &[(0, 1, 60.0), (2, 3, 40.0)]);
        assert_eq!(
            w.c.external_rate(&w.tm, VmId::new(2), ServerId::new(5)),
            40.0
        );
        // The patched account matches what a full rebind derives.
        let mut full = w.c.clone();
        full.rebind_traffic(&w.tm).unwrap();
        for s in (0..16).map(ServerId::new) {
            assert_eq!(w.load(s), full.host_external_load(&w.tm, s));
        }
    }

    #[test]
    fn place_vm_appends_with_zero_traffic() {
        let mut w = world(4, 16);
        assert_eq!(w.c.num_active(), 4);
        let (vm, server) = w.place(None).unwrap();
        assert_eq!(vm, VmId::new(4));
        assert_eq!(w.c.num_vms(), 5);
        assert_eq!(w.c.num_active(), 5);
        assert!(w.c.is_active(vm));
        assert_eq!(w.c.allocation().server_of(vm), server);
        assert_eq!(w.c.external_rate(&w.tm, vm, server), 0.0);
        assert_ext_loads(&w, &[(0, 1, 100.0)]);
        // Chooses an empty server (most free slots, lowest id wins): the
        // base cluster packs VMs 0..4 onto servers 0..4.
        assert_eq!(server, ServerId::new(4));
        assert_eq!(hosted(&w.c, server), 1);
        // Explicit target honoured.
        let (vm2, s2) = w.place(Some(ServerId::new(7))).unwrap();
        assert_eq!(vm2, VmId::new(5));
        assert_eq!(s2, ServerId::new(7));
    }

    #[test]
    fn place_vm_respects_capacity() {
        let mut c = world(16, 1).c; // one slot per server, all 16 full
        assert!(matches!(c.place_vm(None), Err(ClusterError::NoCapacity)));
        assert!(matches!(
            c.place_vm(Some(ServerId::new(3))),
            Err(ClusterError::PlacementRejected {
                server: _,
                source: AdmissionError::NoSlot
            })
        ));
        assert_eq!(c.num_vms(), 16, "cluster unchanged on error");
    }

    #[test]
    fn remove_vm_zeroes_pairs_and_tombstones() {
        let mut w = world(4, 16);
        // vm0 ↔ vm1 at 100.0; removing vm0 zeroes the pair through the
        // ordinary patch path, frees its slot and tombstones the id.
        w.remove(VmId::new(0)).unwrap();
        assert_eq!(w.tm.num_pairs(), 0);
        assert!(!w.c.is_active(VmId::new(0)));
        assert_eq!(w.c.num_active(), 3);
        assert_eq!(hosted(&w.c, ServerId::new(0)), 0);
        assert_ext_loads(&w, &[]);
        assert_eq!(
            w.c.external_rate(&w.tm, VmId::new(1), ServerId::new(5)),
            0.0
        );
        // Double removal and unknown ids are rejected.
        assert!(matches!(
            w.c.remove_vm(VmId::new(0)),
            Err(ClusterError::UnknownVm { .. })
        ));
        assert!(matches!(
            w.c.remove_vm(VmId::new(99)),
            Err(ClusterError::UnknownVm { .. })
        ));
        // The freed slot is reusable by a later arrival.
        let (vm, _) = w.place(Some(ServerId::new(0))).unwrap();
        assert_eq!(vm, VmId::new(4), "ids stay dense; tombstones are kept");
    }

    #[test]
    fn scale_traffic_matches_patched_rates() {
        let mut scaled = world(4, 16);
        scaled.scale(10.0);
        assert_eq!(
            scaled
                .c
                .external_rate(&scaled.tm, VmId::new(0), ServerId::new(5)),
            1000.0
        );
        assert_ext_loads(&scaled, &[(0, 1, 1000.0)]);
        // The memoized external loads were scaled, not dropped: they agree
        // with a cold-cache clone's re-sweep.
        for s in 0..4 {
            let s = ServerId::new(s);
            assert!(matches!(scaled.c.ext_load.slot(s.index()), Slot::Exact(_)));
            let cold = scaled.c.clone();
            assert_eq!(scaled.load(s), cold.host_external_load(&scaled.tm, s));
        }
        // Matches the sparse patch path applying the same rates.
        let mut patched = world(4, 16);
        patched.patch(VmId::new(0), VmId::new(1), 1000.0);
        assert_ext_loads(&patched, &[(0, 1, 1000.0)]);
        // Slot/RAM state is untouched.
        assert_eq!(hosted(&scaled.c, ServerId::new(0)), 1);
    }

    #[test]
    fn failed_host_rejects_admissions_and_is_skipped() {
        let mut w = world(4, 16);
        assert!(w.c.host_is_up(ServerId::new(0)));
        assert_eq!(w.c.num_hosts_down(), 0);
        let victims = w.c.fail_host(ServerId::new(0));
        assert_eq!(victims, vec![VmId::new(0)]);
        assert!(!w.c.host_is_up(ServerId::new(0)));
        assert_eq!(w.c.num_hosts_down(), 1);
        // Idempotent; out-of-range is an empty worklist, not a panic.
        assert!(w.c.fail_host(ServerId::new(0)).is_empty());
        assert!(w.c.fail_host(ServerId::new(999)).is_empty());
        assert_eq!(w.c.num_hosts_down(), 1);
        // No admission path reaches a down host …
        assert_eq!(
            w.migrate(VmId::new(1), ServerId::new(0), f64::INFINITY),
            Err(AdmissionError::HostDown)
        );
        assert!(matches!(
            w.place(Some(ServerId::new(0))),
            Err(ClusterError::PlacementRejected {
                source: AdmissionError::HostDown,
                ..
            })
        ));
        assert_ne!(w.c.choose_server().unwrap(), ServerId::new(0));
        // … but evacuating the victim *off* it is legal, and its slot
        // accounting follows.
        w.migrate(VmId::new(0), ServerId::new(5), f64::INFINITY)
            .unwrap();
        assert_eq!(w.c.slot_index.free(0), 0, "a down host stays full");
        assert_eq!(hosted(&w.c, ServerId::new(5)), 1);
        assert_eq!(w.c.allocation().server_of(VmId::new(0)), ServerId::new(5));
    }

    #[test]
    fn nic_capacity_factor_scales_admission() {
        let mut b = PairTrafficBuilder::new(2);
        b.add(VmId::new(0), VmId::new(1), 0.6e9);
        let alloc = Allocation::from_fn(2, 16, |vm| ServerId::new(vm.get()));
        let mut w = World::new(b.build(), ServerSpec::paper_default(), alloc);
        let probe = |w: &World| w.c.can_host(&w.tm, ServerId::new(5), VmId::new(0), 1.0);
        // 0.6 Gb/s external demand fits a healthy 1 GbE NIC at threshold
        // 1.0 …
        assert!(probe(&w).is_ok());
        // … but not one degraded to half capacity.
        w.c.set_nic_capacity_factor(0.5);
        assert_eq!(probe(&w), Err(AdmissionError::Bandwidth));
        // LinkRestore resets it.
        w.c.set_nic_capacity_factor(1.0);
        assert!(probe(&w).is_ok());
    }

    #[test]
    fn check_invariants_accepts_every_mutator_and_catches_each_corruption() {
        let mut w = world(32, 16);
        w.c.check_invariants(&w.tm);
        w.migrate(VmId::new(0), ServerId::new(3), f64::INFINITY)
            .unwrap();
        let (vm, _) = w.place(None).unwrap();
        w.patch(VmId::new(1), vm, 10.0);
        for s in 0..16 {
            let _ = w.load(ServerId::new(s));
        }
        w.scale(1.7);
        w.remove(VmId::new(2)).unwrap();
        for victim in w.c.fail_host(ServerId::new(5)) {
            w.migrate(victim, ServerId::new(6), f64::INFINITY).unwrap();
        }
        w.c.check_invariants(&w.tm);

        type Corruption = fn(&mut World);
        let corruptions: [(&str, Corruption); 6] = [
            ("VM count", |w| {
                w.tm.push_vm();
            }),
            ("hosts_down", |w| w.c.hosts_down += 1),
            ("over capacity", |w| w.c.capacity = 1),
            ("free-slot index", |w| w.c.slot_index.set(0, 0)),
            ("down host", |w| {
                w.c.host_up[0] = false;
                w.c.hosts_down += 1;
            }),
            ("memoised external load", |w| {
                let load = w.load(ServerId::new(0));
                w.c.ext_load.put(0, load * (1.0 + 1e-6) + 1.0);
            }),
        ];
        for (what, corrupt) in corruptions {
            let mut bad = world(32, 16);
            corrupt(&mut bad);
            let check = std::panic::AssertUnwindSafe(|| bad.c.check_invariants(&bad.tm));
            let caught = std::panic::catch_unwind(check).unwrap_err();
            let msg = caught.downcast_ref::<String>().expect("a formatted panic");
            assert!(msg.contains(what), "{what}: {msg}");
        }
    }

    /// vm0 talks to vm1 (3e8) and vm2 (2e8), vm3 to vm1 (1e8); vm `i`
    /// starts on srv`i`. Moving vm0 onto vm1's host folds both slots: the
    /// source's to exactly 0, the target's to 4e8 + 2e8 − 3e8.
    fn folded_world() -> World {
        let mut b = PairTrafficBuilder::new(4);
        b.add(VmId::new(0), VmId::new(1), 3e8);
        b.add(VmId::new(0), VmId::new(2), 2e8);
        b.add(VmId::new(3), VmId::new(1), 1e8);
        let alloc = Allocation::from_fn(4, 16, |vm| ServerId::new(vm.get()));
        let mut w = World::new(b.build(), ServerSpec::paper_default(), alloc);
        w.migrate(VmId::new(0), ServerId::new(1), f64::INFINITY)
            .unwrap();
        w
    }

    #[test]
    fn a_fold_to_exactly_zero_drops_the_slot() {
        let w = folded_world();
        assert_eq!(w.c.ext_load.slot(0), Slot::Unknown);
        assert_eq!(w.load(ServerId::new(0)), 0.0);
        // The target kept a folded value, not a sweep.
        assert!(matches!(w.c.ext_load.slot(1), Slot::Folded { load, .. } if load == 3e8));
        w.c.check_invariants(&w.tm);
    }

    #[test]
    fn a_threshold_inside_the_interval_sweeps_and_leaves_the_slot_exact() {
        let w = folded_world();
        let (vm, srv1) = (VmId::new(3), ServerId::new(1));
        let (load, radius) = w.c.ext_load.interval(1, w.tm.num_pairs()).unwrap();
        assert!(radius > 0.0 && radius < 1e-6 * load, "{load} ± {radius}");
        // vm3 would bring nothing and internalise its 1e8 pair: 2e8 after
        // the move. A threshold far from it is certified without a sweep …
        let probe = |threshold: f64| w.c.can_host(&w.tm, srv1, vm, threshold);
        assert_eq!(probe(0.5), Ok(()));
        assert_eq!(probe(0.1), Err(AdmissionError::Bandwidth));
        assert!(matches!(w.c.ext_load.slot(1), Slot::Folded { .. }));
        // … one inside the interval is not, and pays the sweep.
        let capacity = ServerSpec::paper_default().nic_bps;
        let limit = (load + radius / 2.0) - 1e8;
        let threshold = limit / capacity;
        let cold = w.c.clone();
        assert_eq!(probe(threshold), cold.can_host(&w.tm, srv1, vm, threshold));
        assert_eq!(w.c.ext_load.slot(1), Slot::Exact(3e8));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random migrations, sparse patches, `ScaleAll`s and NIC-factor
        /// changes, with admission thresholds drawn near live loads: after
        /// every op each memoised interval holds a cold clone's sweep, and
        /// `can_host` answers as the cold clone does for every live VM and
        /// up host.
        #[test]
        fn folded_intervals_hold_a_cold_sweep_and_certify_the_cold_answer(seed in 0u64..1_000_000) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let vms = 40u32;
            let mut b = PairTrafficBuilder::new(vms);
            for _ in 0..70 {
                let (u, v) = (rng.gen_range(0..vms), rng.gen_range(0..vms));
                if u != v {
                    b.add(VmId::new(u), VmId::new(v), rng.gen_range(1e6..3e8));
                }
            }
            let spec = ServerSpec { vm_slots: 6, ..ServerSpec::paper_default() };
            let alloc = Allocation::from_fn(vms, 16, |vm| ServerId::new(vm.get() % 16));
            let mut w = World::new(b.build(), spec, alloc);
            let servers = (0..16).map(ServerId::new);
            let capacity = |w: &World| w.c.nic_capacity_factor() * w.c.server_spec().nic_bps;
            // A threshold that puts the limit either a log-uniform relative
            // distance of 1e-13 to 1e-3 either side of the load `vm` would
            // leave on `server`, as a cold clone sums it, or (half the time
            // on a folded slot) anywhere within twice the slot's radius.
            let near = |w: &World, cold: &Cluster, rng: &mut StdRng, vm: VmId, server: ServerId| {
                let [(incoming, internalised)] = cold.split_peers(&w.tm, vm, [server]);
                let limit = match w.c.ext_load.interval(server.index(), w.tm.num_pairs()) {
                    Some((load, radius)) if radius > 0.0 && rng.gen_bool(0.5) => {
                        load + rng.gen_range(-2.0..2.0) * radius + incoming - internalised
                    }
                    _ => {
                        let after = cold.host_external_load(&w.tm, server) + incoming - internalised;
                        let distance = 10f64.powf(rng.gen_range(-13.0..-3.0));
                        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                        after * (1.0 + sign * distance)
                    }
                };
                limit / capacity(w)
            };
            let (mut certified, mut swept) = (0u32, 0u32);
            for _ in 0..60 {
                match rng.gen_range(0..10u32) {
                    0..=4 => {
                        let vm = VmId::new(rng.gen_range(0..vms));
                        let target = ServerId::new(rng.gen_range(0..16));
                        let cold = w.c.clone();
                        let threshold = if rng.gen_bool(0.2) {
                            f64::INFINITY
                        } else {
                            near(&w, &cold, &mut rng, vm, target)
                        };
                        let want = if cold.allocation().server_of(vm) == target {
                            Ok(())
                        } else {
                            cold.can_host(&w.tm, target, vm, threshold)
                        };
                        prop_assert_eq!(w.migrate(vm, target, threshold), want);
                    }
                    5..=6 => {
                        let (u, v) = (rng.gen_range(0..vms), rng.gen_range(0..vms));
                        if u != v {
                            let rate = if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(1e6..3e8) };
                            w.patch(VmId::new(u), VmId::new(v), rate);
                        }
                    }
                    7..=8 => w.scale(rng.gen_range(0.5..2.0)),
                    _ => w.c.set_nic_capacity_factor(rng.gen_range(0.3..=1.0)),
                }
                let cold = w.c.clone();
                for s in servers.clone() {
                    if let Some((load, radius)) = w.c.ext_load.interval(s.index(), w.tm.num_pairs()) {
                        let swept = cold.host_external_load(&w.tm, s);
                        let tolerance = if radius == 0.0 { 1e-9 * swept } else { radius };
                        prop_assert!(
                            (load - swept).abs() <= tolerance,
                            "{s}: {load} ± {radius} vs a cold {swept}"
                        );
                    }
                }
                for vm in (0..vms).map(VmId::new) {
                    for s in servers.clone() {
                        let threshold = near(&w, &cold, &mut rng, vm, s);
                        let before = w.c.ext_load.slot(s.index());
                        let got = w.c.can_host(&w.tm, s, vm, threshold);
                        let nic_checked = matches!(got, Ok(()) | Err(AdmissionError::Bandwidth));
                        if nic_checked && matches!(before, Slot::Folded { .. }) {
                            if w.c.ext_load.slot(s.index()) == before {
                                certified += 1;
                            } else {
                                swept += 1;
                            }
                        }
                        prop_assert_eq!(
                            got,
                            cold.can_host(&w.tm, s, vm, threshold),
                            "{} on {} at threshold {}", vm, s, threshold
                        );
                    }
                }
                w.c.check_invariants(&w.tm);
            }
            // Both arms of the certificate ran.
            prop_assert!(certified > 0 && swept > 0, "{} certified, {} swept", certified, swept);
        }
    }

    #[test]
    fn error_display() {
        let e = ClusterError::ServerCountMismatch {
            allocation: 4,
            topology: 16,
        };
        assert!(e.to_string().contains("4"));
        let e = ClusterError::InitialOverCommit {
            server: ServerId::new(2),
            source: AdmissionError::Ram,
        };
        assert!(e.to_string().contains("srv2"));
    }
}
