//! Cluster state: topology + allocation + per-server resource usage.
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
use crate::resources::{AdmissionError, CapacityReport, ServerSpec, ServerUsage, VmSpec};
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
    /// VM population differs between allocation, specs and traffic.
    VmCountMismatch {
        /// VMs in the allocation.
        allocation: u32,
        /// VM specs supplied.
        specs: usize,
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
                specs,
                traffic,
            } => write!(
                f,
                "VM population mismatch: allocation {allocation}, specs {specs}, traffic {traffic}"
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

/// Lazy per-host cache of [`Cluster::host_external_load`].
///
/// The dynamic bandwidth probe reads the target's external load on every
/// candidate, and computing it is O(hosted VMs × their degrees) — the
/// single most expensive part of a decision at 100k hosts. The cache
/// memoizes it per host under `&self` (atomics, not locks): a slot is a
/// `(stamp, f64 bits)` pair, filled on first read and invalidated in O(1)
/// by every mutator that changes the quantity.
///
/// Why racing readers are sound: the load is a pure function of the
/// allocation and the traffic matrix, both of which only change under
/// `&mut Cluster`. Within any `&self` borrow the true value is therefore
/// constant — concurrent fillers compute bit-identical values, so
/// whichever `put` lands last rewrites the same bits. The value store is
/// ordered before the stamp store (Release) and readers load the stamp
/// with Acquire, so a stamped slot always yields a fully-written value.
/// Cached reads are bit-identical to recomputation by construction —
/// until a uniform traffic scale multiplies the cached sums through
/// ([`ExtLoadCache::scale_all`]), after which they equal a re-sweep up to
/// rounding, and identically so on every run that applies the same
/// events.
#[derive(Debug, Default)]
struct ExtLoadCache {
    /// 1 = the matching `values` slot holds the host's current load.
    stamps: Vec<AtomicU64>,
    /// `f64::to_bits` of the cached load, meaningful only when stamped.
    values: Vec<AtomicU64>,
}

impl ExtLoadCache {
    fn new(servers: usize) -> Self {
        ExtLoadCache {
            stamps: (0..servers).map(|_| AtomicU64::new(0)).collect(),
            values: (0..servers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> Option<f64> {
        if self.stamps[i].load(Ordering::Acquire) == 1 {
            Some(f64::from_bits(self.values[i].load(Ordering::Relaxed)))
        } else {
            None
        }
    }

    #[inline]
    fn put(&self, i: usize, v: f64) {
        self.values[i].store(v.to_bits(), Ordering::Relaxed);
        self.stamps[i].store(1, Ordering::Release);
    }

    #[inline]
    fn invalidate(&self, i: usize) {
        self.stamps[i].store(0, Ordering::Relaxed);
    }

    fn invalidate_all(&self) {
        for s in &self.stamps {
            s.store(0, Ordering::Relaxed);
        }
    }

    /// Multiplies every cached load by `factor` (saturating): a load is
    /// a sum of pair rates, so a uniform rate scale scales it too and no
    /// host has to be re-swept. Unstamped slots hold garbage either way.
    fn scale_all(&mut self, factor: f64) {
        for v in &mut self.values {
            let bits = v.get_mut();
            *bits = (f64::from_bits(*bits) * factor).min(f64::MAX).to_bits();
        }
    }
}

/// Topology + allocation + resource ledger.
pub struct Cluster {
    topo: Arc<dyn Topology>,
    server_spec: ServerSpec,
    vm_specs: Vec<VmSpec>,
    /// The pairwise loads, kept for dynamic NIC accounting.
    traffic: PairTraffic,
    alloc: Allocation,
    usage: Vec<ServerUsage>,
    /// Liveness per VM id. Departed VMs are tombstoned (kept in the
    /// allocation with zero traffic and zero resource usage) rather than
    /// compacted, so ids stay dense and stable for audit logs and
    /// replay.
    active: Vec<bool>,
    /// Max-free-slots segment tree over the fleet, kept in lockstep with
    /// `usage[*].slots` so [`Cluster::choose_server`] resolves in
    /// O(log servers) instead of a fleet scan. Down hosts are pinned to
    /// zero free slots so the index never descends into them.
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

impl Clone for Cluster {
    fn clone(&self) -> Self {
        Cluster {
            topo: Arc::clone(&self.topo),
            server_spec: self.server_spec,
            vm_specs: self.vm_specs.clone(),
            traffic: self.traffic.clone(),
            alloc: self.alloc.clone(),
            usage: self.usage.clone(),
            active: self.active.clone(),
            slot_index: self.slot_index.clone(),
            host_up: self.host_up.clone(),
            hosts_down: self.hosts_down,
            nic_capacity_factor: self.nic_capacity_factor,
            // Clones start with a cold cache: atomics are not `Clone`,
            // and the copy re-fills lazily from its own state anyway.
            ext_load: ExtLoadCache::new(self.usage.len()),
        }
    }
}

impl Cluster {
    /// Builds a cluster with uniform VM specs.
    ///
    /// # Errors
    ///
    /// See [`Cluster::with_vm_specs`].
    pub fn new(
        topo: Arc<dyn Topology>,
        server_spec: ServerSpec,
        vm_spec: VmSpec,
        traffic: &PairTraffic,
        alloc: Allocation,
    ) -> Result<Self, ClusterError> {
        let specs = vec![vm_spec; alloc.num_vms() as usize];
        Cluster::with_vm_specs(topo, server_spec, specs, traffic, alloc)
    }

    /// Builds a cluster with per-VM (heterogeneous) specs, validating the
    /// initial allocation against server capacities.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] if populations are inconsistent or the
    /// initial allocation overcommits any server (slots/RAM/CPU; the NIC
    /// threshold is enforced only on migrations, since the initial
    /// placement is whatever the DC already runs).
    pub fn with_vm_specs(
        topo: Arc<dyn Topology>,
        server_spec: ServerSpec,
        vm_specs: Vec<VmSpec>,
        traffic: &PairTraffic,
        alloc: Allocation,
    ) -> Result<Self, ClusterError> {
        if alloc.num_servers() as usize != topo.num_servers() {
            return Err(ClusterError::ServerCountMismatch {
                allocation: alloc.num_servers(),
                topology: topo.num_servers(),
            });
        }
        if vm_specs.len() != alloc.num_vms() as usize || traffic.num_vms() != alloc.num_vms() {
            return Err(ClusterError::VmCountMismatch {
                allocation: alloc.num_vms(),
                specs: vm_specs.len(),
                traffic: traffic.num_vms(),
            });
        }
        let mut usage = vec![ServerUsage::default(); topo.num_servers()];
        for (vm, server) in alloc.iter() {
            let u = &mut usage[server.index()];
            if let Err(source) = u.admission_check(&server_spec, &vm_specs[vm.index()]) {
                return Err(ClusterError::InitialOverCommit { server, source });
            }
            u.admit(&vm_specs[vm.index()]);
        }
        let active = vec![true; alloc.num_vms() as usize];
        let slot_index = FreeSlotIndex::new(
            usage
                .iter()
                .map(|u| server_spec.vm_slots.saturating_sub(u.slots)),
        );
        let host_up = vec![true; topo.num_servers()];
        let ext_load = ExtLoadCache::new(topo.num_servers());
        let cluster = Cluster {
            topo,
            server_spec,
            vm_specs,
            traffic: traffic.clone(),
            alloc,
            usage,
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
        for s in 0..cluster.usage.len() {
            let _ = cluster.host_external_load(ServerId::new(s as u32));
        }
        Ok(cluster)
    }

    /// Repairs the free-slot index entry of one server after its slot
    /// count changed. Down hosts stay pinned at zero free slots.
    fn refresh_slot_index(&mut self, server: ServerId) {
        let free = if self.host_up[server.index()] {
            self.server_spec
                .vm_slots
                .saturating_sub(self.usage[server.index()].slots)
        } else {
            0
        };
        self.slot_index.set(server.index(), free);
    }

    /// The topology.
    pub fn topo(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// Shared handle to the topology.
    pub fn topo_arc(&self) -> Arc<dyn Topology> {
        Arc::clone(&self.topo)
    }

    /// The current allocation.
    pub fn allocation(&self) -> &Allocation {
        &self.alloc
    }

    /// The uniform server spec.
    pub fn server_spec(&self) -> &ServerSpec {
        &self.server_spec
    }

    /// Spec of one VM.
    pub fn vm_spec(&self, vm: VmId) -> &VmSpec {
        &self.vm_specs[vm.index()]
    }

    /// Resource usage of one server.
    pub fn usage(&self, server: ServerId) -> &ServerUsage {
        &self.usage[server.index()]
    }

    /// Number of VMs.
    pub fn num_vms(&self) -> u32 {
        self.alloc.num_vms()
    }

    /// The §V-B5 capacity probe for a server.
    pub fn capacity_report(&self, server: ServerId) -> CapacityReport {
        CapacityReport::from_usage(&self.server_spec, &self.usage[server.index()])
    }

    /// Traffic of `vm` that would leave `host`'s NIC if `vm` ran there:
    /// the sum of its pair rates to peers hosted elsewhere.
    pub fn external_rate(&self, vm: VmId, host: ServerId) -> f64 {
        self.traffic
            .peers(vm)
            .filter(|&(peer, _)| peer != vm && self.alloc.server_of(peer) != host)
            .map(|(_, rate)| rate)
            .sum()
    }

    /// Current NIC load of a server: traffic its hosted VMs exchange with
    /// VMs on other servers.
    ///
    /// Memoized per host (see `ExtLoadCache`): the first read after a
    /// mutation touching the host pays the O(hosted VMs × degree) sweep,
    /// repeat reads are O(1). The cache only ever serves values produced
    /// by the sweep below against the current allocation/traffic state,
    /// multiplied through by any [`Cluster::scale_traffic`] since.
    pub fn host_external_load(&self, host: ServerId) -> f64 {
        if let Some(v) = self.ext_load.get(host.index()) {
            return v;
        }
        let v: f64 = self
            .alloc
            .vms_on(host)
            .iter()
            .map(|&u| self.external_rate(u, host))
            .sum();
        self.ext_load.put(host.index(), v);
        v
    }

    /// Can `server` host `vm` right now, honouring the bandwidth threshold
    /// (fraction of NIC capacity hosted traffic may use)?
    ///
    /// The bandwidth check is *dynamic* (§V-C): it accounts for the NIC
    /// load the move would actually produce — pairs that become intra-host
    /// stop loading the NIC at all, so collocating a heavy pair can
    /// *relieve* the target's NIC.
    ///
    /// # Errors
    ///
    /// Returns the violated resource.
    pub fn can_host(
        &self,
        server: ServerId,
        vm: VmId,
        bandwidth_threshold: f64,
    ) -> Result<(), AdmissionError> {
        if !self.host_up[server.index()] {
            return Err(AdmissionError::HostDown);
        }
        self.usage[server.index()]
            .admission_check(&self.server_spec, &self.vm_specs[vm.index()])?;
        if bandwidth_threshold.is_finite() {
            let incoming = self.external_rate(vm, server);
            // Pairs between `vm` and VMs already on `server` currently load
            // the server's NIC; after the move they become intra-host.
            let internalised: f64 = self
                .traffic
                .peers(vm)
                .filter(|&(peer, _)| self.alloc.server_of(peer) == server)
                .map(|(_, rate)| rate)
                .sum();
            let new_load = self.host_external_load(server) + incoming - internalised;
            let capacity = self.nic_capacity_factor * self.server_spec.nic_bps;
            if new_load > bandwidth_threshold * capacity + 1e-9 {
                return Err(AdmissionError::Bandwidth);
            }
        }
        Ok(())
    }

    /// Migrates `vm` to `target` after re-validating admission.
    ///
    /// # Errors
    ///
    /// Returns the violated resource; the cluster is unchanged on error.
    pub fn migrate(
        &mut self,
        vm: VmId,
        target: ServerId,
        bandwidth_threshold: f64,
    ) -> Result<(), AdmissionError> {
        let current = self.alloc.server_of(vm);
        if current == target {
            return Ok(());
        }
        self.can_host(target, vm, bandwidth_threshold)?;
        let spec = self.vm_specs[vm.index()];
        self.usage[current.index()].evict(&spec);
        self.usage[target.index()].admit(&spec);
        self.refresh_slot_index(current);
        self.refresh_slot_index(target);
        self.alloc.move_vm(vm, target);
        // Only the two endpoints' external loads change: for any third
        // server, `vm`'s pairs were external before and stay external.
        self.ext_load.invalidate(current.index());
        self.ext_load.invalidate(target.index());
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

    /// Deterministically picks the server a newly arriving VM of `spec`
    /// should land on: the admissible server with the most free slots,
    /// lowest id winning ties — the §V-A "centralized VM instance
    /// placement manager" choice, reproducible from cluster state alone.
    ///
    /// Resolved through the max-free-slots segment tree in O(log
    /// servers) best-first descents (each candidate leaf still runs the
    /// full slots/RAM/CPU admission check), which is what keeps arrival
    /// decisions at µs latency on 100k-host fleets. The pick is
    /// bit-identical to the linear fleet scan it replaced.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoCapacity`] when no server passes the
    /// static admission check.
    pub fn choose_server(&self, spec: &VmSpec) -> Result<ServerId, ClusterError> {
        self.slot_index
            .best(|i| {
                self.host_up[i]
                    && self.usage[i]
                        .admission_check(&self.server_spec, spec)
                        .is_ok()
            })
            .map(|(_, i)| ServerId::new(i as u32))
            .ok_or(ClusterError::NoCapacity)
    }

    /// Places a newly arriving VM on `server` (or the
    /// [`Cluster::choose_server`] pick when `None`), growing the
    /// population by one dense id. The newcomer starts with zero traffic
    /// — its communication cost contribution is exactly 0 until rates
    /// arrive as ordinary traffic deltas — so placement never touches
    /// existing pairs and any external cost ledger stays exact without
    /// repricing anything.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::PlacementRejected`] when the explicit
    /// target refuses the VM, or [`ClusterError::NoCapacity`] when no
    /// target was given and no server can host it. The cluster is
    /// unchanged on error.
    pub fn place_vm(
        &mut self,
        spec: VmSpec,
        server: Option<ServerId>,
    ) -> Result<(VmId, ServerId), ClusterError> {
        let target = match server {
            Some(s) => {
                if s.index() >= self.usage.len() {
                    return Err(ClusterError::NoCapacity);
                }
                if !self.host_up[s.index()] {
                    return Err(ClusterError::PlacementRejected {
                        server: s,
                        source: AdmissionError::HostDown,
                    });
                }
                self.usage[s.index()]
                    .admission_check(&self.server_spec, &spec)
                    .map_err(|source| ClusterError::PlacementRejected { server: s, source })?;
                s
            }
            None => self.choose_server(&spec)?,
        };
        self.usage[target.index()].admit(&spec);
        self.refresh_slot_index(target);
        // A zero-traffic newcomer contributes 0 to the target's external
        // load; invalidate anyway so the invariant stays local to reason
        // about (every allocation change drops the touched hosts).
        self.ext_load.invalidate(target.index());
        self.vm_specs.push(spec);
        let vm = self.traffic.push_vm();
        let placed = self.alloc.push_vm(target);
        debug_assert_eq!(vm, placed, "traffic and allocation ids diverged");
        self.active.push(true);
        Ok((vm, target))
    }

    /// Removes a live VM from the cluster: zeroes all its pair rates
    /// through the sparse [`Cluster::patch_traffic`] path, releases its
    /// server resources, and tombstones the id (see the `active` field —
    /// ids stay dense and stable). Returns the `(u, v, old, new)` rate
    /// changes applied, so callers keeping an incremental cost ledger
    /// can reprice exactly the departed pairs — `O(degree)`, no resync.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownVm`] for an out-of-range or
    /// already-removed id; the cluster is unchanged on error.
    pub fn remove_vm(&mut self, vm: VmId) -> Result<Vec<(VmId, VmId, f64, f64)>, ClusterError> {
        if !self.is_active(vm) {
            return Err(ClusterError::UnknownVm { vm });
        }
        let changes: Vec<(VmId, VmId, f64, f64)> = self
            .traffic
            .peers(vm)
            .map(|(peer, rate)| {
                let (u, v) = if vm < peer { (vm, peer) } else { (peer, vm) };
                (u, v, rate, 0.0)
            })
            .collect();
        self.patch_traffic(&changes);
        let server = self.alloc.server_of(vm);
        let spec = self.vm_specs[vm.index()];
        self.usage[server.index()].evict(&spec);
        self.refresh_slot_index(server);
        self.active[vm.index()] = false;
        Ok(changes)
    }

    /// Rebinds the cluster to a new traffic matrix **in place**: the
    /// allocation, server specs, VM specs and slot/RAM/CPU usage carry
    /// over untouched (none of them depend on traffic); only the held
    /// rates are replaced and the memoized external loads dropped. This
    /// is the cheap path for a traffic-phase shift.
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
                specs: self.vm_specs.len(),
                traffic: traffic.num_vms(),
            });
        }
        self.traffic = traffic.clone();
        self.ext_load.invalidate_all();
        Ok(())
    }

    /// Applies a **sparse** traffic delta in place: each change is
    /// `(u, v, old_rate, new_rate)` for one pair (the shape a cost
    /// ledger reprices from; only `new_rate` is read here). The held
    /// traffic is patched per pair and only the two endpoints' hosts
    /// lose their memoized external load (`O(changed pairs)`, vs
    /// [`Cluster::rebind_traffic`]'s wholesale replacement) — the path
    /// trace replay takes for each mid-run delta.
    ///
    /// # Panics
    ///
    /// Panics if a change names a self-pair, an out-of-range VM, or a
    /// negative/non-finite new rate.
    pub fn patch_traffic(&mut self, changes: &[(VmId, VmId, f64, f64)]) {
        for &(u, v, _, new) in changes {
            self.traffic.apply_update(u, v, new);
            // A pair-rate change moves both endpoints' hosts' external
            // loads (a no-op when they share a host, but harmless).
            for vm in [u, v] {
                self.ext_load.invalidate(self.alloc.server_of(vm).index());
            }
        }
    }

    /// Replaces the allocation wholesale (used by centralized baselines),
    /// re-deriving usage.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InitialOverCommit`] if the new allocation
    /// violates capacity; the cluster is unchanged on error.
    pub fn set_allocation(&mut self, alloc: Allocation) -> Result<(), ClusterError> {
        let mut usage = vec![ServerUsage::default(); self.usage.len()];
        for (vm, server) in alloc.iter() {
            let u = &mut usage[server.index()];
            if let Err(source) = u.admission_check(&self.server_spec, &self.vm_specs[vm.index()]) {
                return Err(ClusterError::InitialOverCommit { server, source });
            }
            u.admit(&self.vm_specs[vm.index()]);
        }
        self.alloc = alloc;
        self.usage = usage;
        self.slot_index = FreeSlotIndex::new(
            self.usage
                .iter()
                .map(|u| self.server_spec.vm_slots.saturating_sub(u.slots)),
        );
        self.ext_load.invalidate_all();
        Ok(())
    }

    /// Rescales every pair rate by `factor` **in place** — the cluster's
    /// share of a uniform `ScaleAll`. The held traffic scales in O(1)
    /// ([`score_traffic::PairTraffic::scale_all`]) and the memoized
    /// external loads are multiplied through instead of being re-swept
    /// pair by pair: O(servers), no pair is visited. Slot/RAM/CPU state
    /// is untouched (none of it depends on traffic).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scale_traffic(&mut self, factor: f64) {
        self.traffic.scale_all(factor);
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
    use score_topology::CanonicalTree;
    use score_traffic::PairTrafficBuilder;

    fn traffic(n: u32) -> PairTraffic {
        let mut b = PairTrafficBuilder::new(n);
        if n >= 2 {
            b.add(VmId::new(0), VmId::new(1), 100.0);
        }
        b.build()
    }

    fn cluster(vms: u32, per_server: u32) -> Cluster {
        let topo = Arc::new(CanonicalTree::small());
        let spec = ServerSpec {
            vm_slots: per_server,
            ..ServerSpec::paper_default()
        };
        let alloc = Allocation::from_fn(vms, 16, |vm| ServerId::new(vm.get() % 16));
        Cluster::new(topo, spec, VmSpec::paper_default(), &traffic(vms), alloc).unwrap()
    }

    /// Every host's external load — the NIC account `can_host` decides
    /// on — equals a from-scratch sum over the reference `pairs` and the
    /// current allocation.
    fn assert_ext_loads(c: &Cluster, pairs: &[(u32, u32, f64)]) {
        for s in 0..c.usage.len() as u32 {
            let s = ServerId::new(s);
            let on = |vm: u32| c.allocation().server_of(VmId::new(vm)) == s;
            let fresh: f64 = pairs
                .iter()
                .filter(|&&(u, v, _)| on(u) != on(v))
                .map(|&(_, _, r)| r)
                .sum();
            let got = c.host_external_load(s);
            assert!((got - fresh).abs() < 1e-9, "{s}: {got} vs {fresh}");
        }
    }

    #[test]
    fn construction_tracks_usage() {
        let c = cluster(32, 16);
        assert_eq!(c.num_vms(), 32);
        assert_eq!(c.usage(ServerId::new(0)).slots, 2);
        assert_ext_loads(&c, &[(0, 1, 100.0)]);
        assert_eq!(c.capacity_report(ServerId::new(0)).free_slots, 14);
    }

    #[test]
    fn migrate_moves_usage() {
        let mut c = cluster(4, 16);
        c.migrate(VmId::new(0), ServerId::new(3), 1.0).unwrap();
        assert_eq!(c.allocation().server_of(VmId::new(0)), ServerId::new(3));
        assert_eq!(c.usage(ServerId::new(0)).slots, 0);
        assert_eq!(c.usage(ServerId::new(3)).slots, 2);
        // Its external traffic moved with it.
        assert_ext_loads(&c, &[(0, 1, 100.0)]);
    }

    #[test]
    fn migrate_respects_slots() {
        let mut c = cluster(16, 1); // one slot per server, all full
        let err = c.migrate(VmId::new(0), ServerId::new(1), 1.0).unwrap_err();
        assert_eq!(err, AdmissionError::NoSlot);
        // State unchanged on failure.
        assert_eq!(c.allocation().server_of(VmId::new(0)), ServerId::new(0));
        assert_eq!(c.usage(ServerId::new(1)).slots, 1);
    }

    #[test]
    fn migrate_to_self_is_ok() {
        let mut c = cluster(16, 1);
        // Even at capacity, staying put is fine.
        c.migrate(VmId::new(0), ServerId::new(0), 1.0).unwrap();
    }

    #[test]
    fn initial_overcommit_rejected() {
        let topo: Arc<dyn Topology> = Arc::new(CanonicalTree::small());
        let spec = ServerSpec {
            vm_slots: 1,
            ..ServerSpec::paper_default()
        };
        let alloc = Allocation::from_fn(2, 16, |_| ServerId::new(0));
        let err =
            Cluster::new(topo, spec, VmSpec::paper_default(), &traffic(2), alloc).unwrap_err();
        assert_eq!(
            err,
            ClusterError::InitialOverCommit {
                server: ServerId::new(0),
                source: AdmissionError::NoSlot
            }
        );
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
    fn set_allocation_revalidates() {
        let mut c = cluster(4, 2);
        let packed = Allocation::from_fn(4, 16, |_| ServerId::new(0));
        assert!(matches!(
            c.set_allocation(packed),
            Err(ClusterError::InitialOverCommit { .. })
        ));
        let fine = Allocation::from_fn(4, 16, |vm| ServerId::new(vm.get() / 2));
        c.set_allocation(fine).unwrap();
        assert_eq!(c.usage(ServerId::new(0)).slots, 2);
        assert_eq!(c.usage(ServerId::new(3)).slots, 0);
    }

    #[test]
    fn bandwidth_threshold_blocks_migration() {
        let topo: Arc<dyn Topology> = Arc::new(CanonicalTree::small());
        // vm0 exchanges 0.7 Gb/s with vm1 and 0.5 Gb/s with vm2.
        let mut b = PairTrafficBuilder::new(3);
        b.add(VmId::new(0), VmId::new(1), 0.7e9);
        b.add(VmId::new(0), VmId::new(2), 0.5e9);
        let traffic = b.build();
        let alloc = Allocation::from_fn(3, 16, |vm| ServerId::new(vm.get()));
        let mut c = Cluster::new(
            topo,
            ServerSpec::paper_default(),
            VmSpec::paper_default(),
            &traffic,
            alloc,
        )
        .unwrap();
        // Moving vm0 to an *empty* server puts its full 1.2 Gb/s external
        // demand on a 1 GbE NIC: blocked at threshold 1.0 …
        let err = c.migrate(VmId::new(0), ServerId::new(5), 1.0).unwrap_err();
        assert_eq!(err, AdmissionError::Bandwidth);
        // … but collocating with vm1 internalises the 0.7 Gb/s pair, so
        // only 0.5 Gb/s hits srv1's NIC: allowed.
        c.migrate(VmId::new(0), ServerId::new(1), 1.0).unwrap();
        assert!((c.host_external_load(ServerId::new(1)) - 0.5e9).abs() < 1.0);
        // An unconstrained threshold admits anything.
        c.migrate(VmId::new(0), ServerId::new(5), f64::INFINITY)
            .unwrap();
    }

    #[test]
    fn external_rate_tracks_allocation() {
        let topo: Arc<dyn Topology> = Arc::new(CanonicalTree::small());
        let mut b = PairTrafficBuilder::new(3);
        b.add(VmId::new(0), VmId::new(1), 100.0);
        b.add(VmId::new(0), VmId::new(2), 10.0);
        let traffic = b.build();
        let alloc = Allocation::from_fn(3, 16, |vm| ServerId::new(vm.get() / 2));
        let c = Cluster::new(
            topo,
            ServerSpec::paper_default(),
            VmSpec::paper_default(),
            &traffic,
            alloc,
        )
        .unwrap();
        // vm0 and vm1 share srv0, vm2 is on srv1.
        assert_eq!(c.external_rate(VmId::new(0), ServerId::new(0)), 10.0);
        assert_eq!(c.external_rate(VmId::new(0), ServerId::new(5)), 110.0);
        // vm0 contributes its (0,2) pair; vm1's only peer is on-host.
        assert_eq!(c.host_external_load(ServerId::new(0)), 10.0);
    }

    #[test]
    fn ext_load_cache_matches_fresh_compute_after_each_mutator() {
        // Warm every host's cache slot, mutate, then compare against a
        // clone — clones start cold, so the clone recomputes from state.
        fn warm(c: &Cluster) {
            for s in 0..16 {
                let _ = c.host_external_load(ServerId::new(s));
            }
        }
        fn check(c: &Cluster) {
            let cold = c.clone();
            for s in 0..16 {
                let sid = ServerId::new(s);
                assert_eq!(
                    c.host_external_load(sid).to_bits(),
                    cold.host_external_load(sid).to_bits(),
                    "stale cached load on server {s}"
                );
            }
        }
        let mut c = cluster(32, 16);
        warm(&c);
        c.migrate(VmId::new(0), ServerId::new(3), f64::INFINITY)
            .unwrap();
        check(&c);
        warm(&c);
        c.patch_traffic(&[(VmId::new(2), VmId::new(7), 0.0, 55.0)]);
        check(&c);
        warm(&c);
        c.scale_traffic(1.5);
        check(&c);
        warm(&c);
        let (vm, _) = c.place_vm(VmSpec::paper_default(), None).unwrap();
        c.patch_traffic(&[(VmId::new(1), vm, 0.0, 10.0)]);
        check(&c);
        warm(&c);
        c.remove_vm(vm).unwrap();
        check(&c);
        warm(&c);
        let spread = Allocation::from_fn(c.num_vms(), 16, |v| ServerId::new((v.get() * 3) % 16));
        c.set_allocation(spread).unwrap();
        check(&c);
        warm(&c);
        let mut b = PairTrafficBuilder::new(c.num_vms());
        b.add(VmId::new(4), VmId::new(9), 77.0);
        c.rebind_traffic(&b.build()).unwrap();
        check(&c);
    }

    #[test]
    fn rebind_traffic_patches_nic_ledger_in_place() {
        let mut c = cluster(4, 16);
        let before_alloc = c.allocation().clone();
        assert_ext_loads(&c, &[(0, 1, 100.0)]);
        // New matrix: the (0,1) pair disappears, (2,3) appears at 40.
        let mut b = PairTrafficBuilder::new(4);
        b.add(VmId::new(2), VmId::new(3), 40.0);
        c.rebind_traffic(&b.build()).unwrap();
        // Allocation and slot/RAM usage carry over untouched.
        assert_eq!(c.allocation(), &before_alloc);
        assert_eq!(c.usage(ServerId::new(0)).slots, 1);
        // NIC accounting reflects the new rates.
        assert_ext_loads(&c, &[(2, 3, 40.0)]);
        assert_eq!(c.host_external_load(ServerId::new(0)), 0.0);
        // A population mismatch is rejected and leaves the cluster alone.
        let err = c.rebind_traffic(&traffic(5)).unwrap_err();
        assert!(matches!(err, ClusterError::VmCountMismatch { .. }));
        assert_ext_loads(&c, &[(2, 3, 40.0)]);
    }

    #[test]
    fn patch_traffic_adjusts_only_changed_pairs() {
        let mut c = cluster(4, 16);
        // (0,1) re-rated to 60, (2,3) appears at 40.
        let changes = [
            (VmId::new(0), VmId::new(1), 100.0, 60.0),
            (VmId::new(2), VmId::new(3), 0.0, 40.0),
        ];
        c.patch_traffic(&changes);
        assert_ext_loads(&c, &[(0, 1, 60.0), (2, 3, 40.0)]);
        // The held traffic was patched in place to the same rates …
        assert_eq!(c.external_rate(VmId::new(2), ServerId::new(5)), 40.0);
        // … and the patched account matches what a full rebind derives.
        let patched = c.traffic.clone();
        let mut full = c.clone();
        full.rebind_traffic(&patched).unwrap();
        for s in (0..16).map(ServerId::new) {
            assert_eq!(c.host_external_load(s), full.host_external_load(s));
        }
    }

    #[test]
    fn place_vm_appends_with_zero_traffic() {
        let mut c = cluster(4, 16);
        assert_eq!(c.num_active(), 4);
        let (vm, server) = c.place_vm(VmSpec::paper_default(), None).unwrap();
        assert_eq!(vm, VmId::new(4));
        assert_eq!(c.num_vms(), 5);
        assert_eq!(c.num_active(), 5);
        assert!(c.is_active(vm));
        assert_eq!(c.allocation().server_of(vm), server);
        assert_eq!(c.external_rate(vm, server), 0.0);
        assert_ext_loads(&c, &[(0, 1, 100.0)]);
        // Chooses an empty server (most free slots, lowest id wins): the
        // base cluster packs VMs 0..4 onto servers 0..4.
        assert_eq!(server, ServerId::new(4));
        assert_eq!(c.usage(server).slots, 1);
        // Explicit target honoured.
        let (vm2, s2) = c
            .place_vm(VmSpec::paper_default(), Some(ServerId::new(7)))
            .unwrap();
        assert_eq!(vm2, VmId::new(5));
        assert_eq!(s2, ServerId::new(7));
    }

    #[test]
    fn place_vm_respects_capacity() {
        let mut c = cluster(16, 1); // one slot per server, all 16 full
        assert!(matches!(
            c.place_vm(VmSpec::paper_default(), None),
            Err(ClusterError::NoCapacity)
        ));
        assert!(matches!(
            c.place_vm(VmSpec::paper_default(), Some(ServerId::new(3))),
            Err(ClusterError::PlacementRejected {
                server: _,
                source: AdmissionError::NoSlot
            })
        ));
        assert_eq!(c.num_vms(), 16, "cluster unchanged on error");
    }

    #[test]
    fn remove_vm_zeroes_pairs_and_tombstones() {
        let mut c = cluster(4, 16);
        // vm0 ↔ vm1 at 100.0; removing vm0 must zero the pair and free
        // its slot, and report the change for ledger repricing.
        let changes = c.remove_vm(VmId::new(0)).unwrap();
        assert_eq!(changes, vec![(VmId::new(0), VmId::new(1), 100.0, 0.0)]);
        assert!(!c.is_active(VmId::new(0)));
        assert_eq!(c.num_active(), 3);
        assert_eq!(c.usage(ServerId::new(0)).slots, 0);
        assert_ext_loads(&c, &[]);
        assert_eq!(c.external_rate(VmId::new(1), ServerId::new(5)), 0.0);
        // Double removal and unknown ids are rejected.
        assert!(matches!(
            c.remove_vm(VmId::new(0)),
            Err(ClusterError::UnknownVm { .. })
        ));
        assert!(matches!(
            c.remove_vm(VmId::new(99)),
            Err(ClusterError::UnknownVm { .. })
        ));
        // The freed slot is reusable by a later arrival.
        let (vm, _) = c
            .place_vm(VmSpec::paper_default(), Some(ServerId::new(0)))
            .unwrap();
        assert_eq!(vm, VmId::new(4), "ids stay dense; tombstones are kept");
    }

    #[test]
    fn scale_traffic_matches_patched_rates() {
        let mut scaled = cluster(4, 16);
        scaled.scale_traffic(10.0);
        assert_eq!(scaled.external_rate(VmId::new(0), ServerId::new(5)), 1000.0);
        assert_ext_loads(&scaled, &[(0, 1, 1000.0)]);
        // The memoized external loads were scaled, not dropped: they agree
        // with a cold-cache clone's re-sweep.
        for s in 0..4 {
            let s = ServerId::new(s);
            assert!(scaled.ext_load.get(s.index()).is_some());
            assert_eq!(
                scaled.host_external_load(s),
                scaled.clone().host_external_load(s)
            );
        }
        // Matches the sparse patch path applying the same rates.
        let mut patched = cluster(4, 16);
        patched.patch_traffic(&[(VmId::new(0), VmId::new(1), 100.0, 1000.0)]);
        assert_ext_loads(&patched, &[(0, 1, 1000.0)]);
        // Slot/RAM state is untouched.
        assert_eq!(scaled.usage(ServerId::new(0)).slots, 1);
    }

    #[test]
    fn failed_host_rejects_admissions_and_is_skipped() {
        let mut c = cluster(4, 16);
        assert!(c.host_is_up(ServerId::new(0)));
        assert_eq!(c.num_hosts_down(), 0);
        let victims = c.fail_host(ServerId::new(0));
        assert_eq!(victims, vec![VmId::new(0)]);
        assert!(!c.host_is_up(ServerId::new(0)));
        assert_eq!(c.num_hosts_down(), 1);
        // Idempotent; out-of-range is an empty worklist, not a panic.
        assert!(c.fail_host(ServerId::new(0)).is_empty());
        assert!(c.fail_host(ServerId::new(999)).is_empty());
        assert_eq!(c.num_hosts_down(), 1);
        // No admission path reaches a down host …
        assert_eq!(
            c.migrate(VmId::new(1), ServerId::new(0), f64::INFINITY),
            Err(AdmissionError::HostDown)
        );
        assert!(matches!(
            c.place_vm(VmSpec::paper_default(), Some(ServerId::new(0))),
            Err(ClusterError::PlacementRejected {
                source: AdmissionError::HostDown,
                ..
            })
        ));
        assert_ne!(
            c.choose_server(&VmSpec::paper_default()).unwrap(),
            ServerId::new(0)
        );
        // … but evacuating the victim *off* it is legal, and its slot
        // accounting follows.
        c.migrate(VmId::new(0), ServerId::new(5), f64::INFINITY)
            .unwrap();
        assert_eq!(c.usage(ServerId::new(0)).slots, 0);
        assert_eq!(c.allocation().server_of(VmId::new(0)), ServerId::new(5));
    }

    #[test]
    fn nic_capacity_factor_scales_admission() {
        let topo: Arc<dyn Topology> = Arc::new(CanonicalTree::small());
        let mut b = PairTrafficBuilder::new(2);
        b.add(VmId::new(0), VmId::new(1), 0.6e9);
        let traffic = b.build();
        let alloc = Allocation::from_fn(2, 16, |vm| ServerId::new(vm.get()));
        let mut c = Cluster::new(
            topo,
            ServerSpec::paper_default(),
            VmSpec::paper_default(),
            &traffic,
            alloc,
        )
        .unwrap();
        // 0.6 Gb/s external demand fits a healthy 1 GbE NIC at threshold
        // 1.0 …
        assert!(c.can_host(ServerId::new(5), VmId::new(0), 1.0).is_ok());
        // … but not one degraded to half capacity.
        c.set_nic_capacity_factor(0.5);
        assert_eq!(
            c.can_host(ServerId::new(5), VmId::new(0), 1.0),
            Err(AdmissionError::Bandwidth)
        );
        // LinkRestore resets it.
        c.set_nic_capacity_factor(1.0);
        assert!(c.can_host(ServerId::new(5), VmId::new(0), 1.0).is_ok());
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
