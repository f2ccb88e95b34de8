//! Incremental Eq.-(2) cost accounting — the [`CostLedger`].
//!
//! The paper's headline claim is *scalability*: each migration decision
//! needs only the Lemma-3 delta, which is local to the moving VM. The
//! simulator's observability must match that property — sampling the
//! network-wide cost `C_A` at every tick by re-walking all VM pairs
//! (Eq. 2) is `O(pairs)` per sample and dominates the run time at the
//! paper's 2560-host scale.
//!
//! [`CostLedger`] keeps `C_A` as a running total instead:
//!
//! * **initialization** — one full Eq.-(2) pass ([`CostLedger::new`]);
//! * **migration** — every accepted move already computed its Lemma-3
//!   delta `ΔC`; [`CostLedger::apply_gain`] folds it in, making the
//!   update `O(1)` on top of the `O(|Vu|)` the decision itself paid;
//! * **traffic rebind** — when a phase swaps the traffic matrix under an
//!   unchanged allocation, [`CostLedger::rebind`] merge-joins the two
//!   canonical pair lists and only re-prices pairs whose rate actually
//!   changed (`O(changed pairs)` level lookups);
//! * **sampling** — [`CostLedger::current`] is a field read, `O(1)`.
//!
//! Lemma 3 guarantees the delta equals the difference of full
//! recomputations exactly; the ledger therefore tracks the true cost up
//! to floating-point rounding (pinned to ≤ 1e-9 relative by the property
//! suite in `tests/ledger_properties.rs`). A driver that owns ledger and
//! cluster itself and replaces the allocation wholesale
//! (`Cluster::set_allocation`) calls [`CostLedger::resync`] to restore
//! the invariant with one full pass; `score_sim::Session` never does.

use std::cell::Cell;

use score_topology::{RackId, ServerId, Topology, VmId};
use score_traffic::PairTraffic;

use crate::allocation::Allocation;
use crate::cost::CostModel;

/// Per-subtree cost partials riding along with the ledger total.
///
/// Each pair's Eq.-(2) price `2·λ(u,v)·W(ℓ)` is split half/half between
/// the racks hosting its two endpoints; racks roll up into topology
/// *zones* (aggregation groups / pods, see [`Topology::num_zones`]).
/// Every sparse delta and migration touches only the racks on its own
/// path, so at 100k hosts the bookkeeping stays O(changed pairs) and
/// O(degree) instead of O(cluster). The merged sample is computed
/// lazily — shard mutations just poison a cached sum.
///
/// The shards are an *observability* surface: [`CostLedger::current`]
/// keeps its own byte-identical arithmetic and stays authoritative; the
/// invariant `|Σ shards − total| ≤ 1e-9·|total|` is pinned by tests.
#[derive(Debug, Clone)]
struct LedgerShards {
    /// Half-price cost mass attributed to each rack.
    per_rack: Vec<f64>,
    /// Rack masses rolled up per topology zone.
    per_zone: Vec<f64>,
    /// Rack → zone map, cached off the topology at build time.
    zone_of_rack: Vec<u32>,
    /// Lazily merged Σ-over-zones sample; poisoned on every mutation.
    merged: Cell<Option<f64>>,
}

impl LedgerShards {
    /// Adds `price_delta` split half/half between two racks (and their
    /// zones), poisoning the merged cache.
    fn attribute_racks(&mut self, ra: RackId, rb: RackId, price_delta: f64) {
        let half = 0.5 * price_delta;
        self.per_rack[ra.index()] += half;
        self.per_rack[rb.index()] += half;
        self.per_zone[self.zone_of_rack[ra.index()] as usize] += half;
        self.per_zone[self.zone_of_rack[rb.index()] as usize] += half;
        self.merged.set(None);
    }

    /// Attributes a pair's price delta via its endpoints' current racks.
    fn attribute_pair<T: Topology + ?Sized>(
        &mut self,
        alloc: &Allocation,
        topo: &T,
        u: VmId,
        v: VmId,
        price_delta: f64,
    ) {
        let ra = topo.rack_of(alloc.server_of(u));
        let rb = topo.rack_of(alloc.server_of(v));
        self.attribute_racks(ra, rb, price_delta);
    }

    /// The lazily merged Σ-over-zones sample.
    fn merged_total(&self) -> f64 {
        if let Some(m) = self.merged.get() {
            return m;
        }
        let sum: f64 = self.per_zone.iter().sum();
        self.merged.set(Some(sum));
        sum
    }
}

/// Incrementally maintained network-wide communication cost `C_A`
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct CostLedger {
    model: CostModel,
    total: f64,
    resyncs: u64,
    /// Optional per-rack/zone partials (see [`LedgerShards`]).
    shards: Option<LedgerShards>,
    obs: Option<LedgerObs>,
}

/// Pre-resolved instruments attached via [`CostLedger::attach_obs`].
///
/// The delta hot path only bumps the plain `pending_*` fields (no atomics —
/// an attached ledger must stay within a few percent of bare sparse-delta
/// throughput); the shared counters, the cost gauge, and the O(zones)
/// shard-drift gauge are all settled when the driver calls
/// [`CostLedger::publish_obs`] at its sampling cadence.
#[derive(Debug, Clone)]
struct LedgerObs {
    /// `score_ledger_cost`: the current authoritative `C_A`.
    cost: std::sync::Arc<score_obs::Gauge>,
    /// `score_ledger_delta_batches_total`: sparse delta batches applied.
    delta_batches: std::sync::Arc<score_obs::Counter>,
    /// `score_ledger_pairs_repriced_total`: pair rates re-priced.
    pairs_repriced: std::sync::Arc<score_obs::Counter>,
    /// `score_ledger_resyncs_total`: full-pass escape hatches paid.
    resyncs: std::sync::Arc<score_obs::Counter>,
    /// `score_ledger_shard_drift`: |sharded sum − authoritative total|.
    shard_drift: std::sync::Arc<score_obs::Gauge>,
    /// Delta batches applied since the last [`CostLedger::publish_obs`].
    pending_batches: u64,
    /// Pairs re-priced since the last [`CostLedger::publish_obs`].
    pending_pairs: u64,
}

impl CostLedger {
    /// Initializes the ledger with one full Eq.-(2) pass over `traffic`
    /// under `alloc`.
    pub fn new<T: Topology + ?Sized>(
        model: CostModel,
        alloc: &Allocation,
        traffic: &PairTraffic,
        topo: &T,
    ) -> Self {
        let total = model.total_cost(alloc, traffic, topo);
        CostLedger {
            model,
            total,
            resyncs: 0,
            shards: None,
            obs: None,
        }
    }

    /// Attaches observability: delta/resync counters plus cost and
    /// shard-drift gauges. Purely a side channel — the ledger's arithmetic
    /// (and therefore `total`) is bit-identical with or without it.
    /// Passing a disabled handle detaches.
    pub fn attach_obs(&mut self, handle: &score_obs::ObsHandle) {
        self.obs = if handle.is_enabled() {
            let obs = LedgerObs {
                cost: handle.gauge("score_ledger_cost").unwrap(),
                delta_batches: handle.counter("score_ledger_delta_batches_total").unwrap(),
                pairs_repriced: handle.counter("score_ledger_pairs_repriced_total").unwrap(),
                resyncs: handle.counter("score_ledger_resyncs_total").unwrap(),
                shard_drift: handle.gauge("score_ledger_shard_drift").unwrap(),
                pending_batches: 0,
                pending_pairs: 0,
            };
            obs.cost.set(self.total);
            Some(obs)
        } else {
            None
        };
    }

    /// Settles the instruments the delta hot path deliberately defers: the
    /// pending batch/pair counts are flushed into their shared counters, the
    /// cost gauge is refreshed, and (when sharded) the O(zones) shard-drift
    /// merge runs. Called by the simulation driver at its sampling cadence,
    /// never on the delta hot path. No-op when detached.
    pub fn publish_obs(&mut self) {
        let drift = self.shards.is_some().then(|| self.shard_drift());
        if let Some(obs) = &mut self.obs {
            if obs.pending_batches > 0 {
                obs.delta_batches.add(obs.pending_batches);
                obs.pairs_repriced.add(obs.pending_pairs);
                obs.pending_batches = 0;
                obs.pending_pairs = 0;
            }
            obs.cost.set(self.total);
            if let Some(d) = drift {
                obs.shard_drift.set(d);
            }
        }
    }

    /// Builds the per-rack/zone partials with one full pair pass.
    fn build_shards<T: Topology + ?Sized>(
        model: &CostModel,
        alloc: &Allocation,
        traffic: &PairTraffic,
        topo: &T,
    ) -> LedgerShards {
        let weights = model.weights();
        let num_racks = topo.num_racks();
        let zone_of_rack: Vec<u32> = (0..num_racks as u32)
            .map(|r| topo.zone_of_rack(RackId::new(r)))
            .collect();
        let mut per_rack = vec![0.0f64; num_racks];
        for (u, v, rate) in traffic.pairs() {
            let (su, sv) = (alloc.server_of(u), alloc.server_of(v));
            let price = 2.0 * rate * weights.prefix(topo.level(su, sv));
            per_rack[topo.rack_of(su).index()] += 0.5 * price;
            per_rack[topo.rack_of(sv).index()] += 0.5 * price;
        }
        let mut per_zone = vec![0.0f64; topo.num_zones()];
        for (r, &mass) in per_rack.iter().enumerate() {
            per_zone[zone_of_rack[r] as usize] += mass;
        }
        LedgerShards {
            per_rack,
            per_zone,
            zone_of_rack,
            merged: Cell::new(None),
        }
    }

    /// Turns on per-rack/zone cost sharding, paying one full pair pass
    /// to seed the partials. From here on every sparse delta, rebind
    /// and [`CostLedger::apply_migration_shards`] call keeps the shards
    /// in step; `total` remains the authoritative (byte-identical)
    /// ledger value and the shards stay within 1e-9 relative of it.
    pub fn enable_sharding<T: Topology + ?Sized>(
        &mut self,
        alloc: &Allocation,
        traffic: &PairTraffic,
        topo: &T,
    ) {
        self.shards = Some(Self::build_shards(&self.model, alloc, traffic, topo));
    }

    /// True when per-rack/zone partials are being maintained.
    pub fn sharding_enabled(&self) -> bool {
        self.shards.is_some()
    }

    /// Cost mass currently attributed to rack `r` (half of each
    /// endpoint pair's Eq.-(2) price).
    ///
    /// # Panics
    ///
    /// Panics if sharding is not enabled or `r` is out of range.
    pub fn rack_cost(&self, r: RackId) -> f64 {
        let shards = self.shards.as_ref().expect("sharding not enabled");
        shards.per_rack[r.index()]
    }

    /// Cost mass currently attributed to topology zone `zone`.
    ///
    /// # Panics
    ///
    /// Panics if sharding is not enabled or `zone` is out of range.
    pub fn zone_cost(&self, zone: u32) -> f64 {
        let shards = self.shards.as_ref().expect("sharding not enabled");
        shards.per_zone[zone as usize]
    }

    /// The merged Σ-over-zones sample, computed lazily (mutations only
    /// poison a cached sum; the O(zones) merge is paid at sample time).
    ///
    /// # Panics
    ///
    /// Panics if sharding is not enabled.
    pub fn sharded_total(&self) -> f64 {
        self.shards
            .as_ref()
            .expect("sharding not enabled")
            .merged_total()
    }

    /// Absolute difference between the merged shard sample and the
    /// authoritative total — the shard-coherence invariant tests pin to
    /// ≤ 1e-9 relative.
    ///
    /// # Panics
    ///
    /// Panics if sharding is not enabled.
    pub fn shard_drift(&self) -> f64 {
        (self.sharded_total() - self.total).abs()
    }

    /// The current network-wide cost `C_A` — `O(1)`.
    pub fn current(&self) -> f64 {
        self.total
    }

    /// The cost model whose weights price the ledger.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Folds in the Lemma-3 gain of an accepted migration: the move
    /// reduced `C_A` by exactly `gain`. Passing the `0.0` gain of a
    /// declined decision is a no-op, so callers can apply every
    /// `MigrationDecision` unconditionally.
    pub fn apply_gain(&mut self, gain: f64) {
        self.total -= gain;
        if let Some(obs) = &self.obs {
            obs.cost.set(self.total);
        }
    }

    /// Re-attributes a performed migration's cost mass across the rack
    /// shards: VM `vm` moved `from → to` while its peers stayed put, so
    /// only the racks on the migration's path (source, target, and each
    /// peer's rack) change — `O(degree)` shard touches, never a cluster
    /// sweep. `alloc` is the *post-move* allocation (the peers' servers
    /// are the same either way).
    ///
    /// A no-op when sharding is disabled or `from == to`. The
    /// authoritative `total` is **not** touched — callers fold the
    /// Lemma-3 gain in via [`CostLedger::apply_gain`] exactly as
    /// before, which keeps the total byte-identical to the unsharded
    /// ledger.
    pub fn apply_migration_shards<T: Topology + ?Sized>(
        &mut self,
        vm: VmId,
        from: ServerId,
        to: ServerId,
        alloc: &Allocation,
        traffic: &PairTraffic,
        topo: &T,
    ) {
        let Some(mut shards) = self.shards.take() else {
            return;
        };
        if from != to {
            let weights = self.model.weights();
            let (rack_from, rack_to) = (topo.rack_of(from), topo.rack_of(to));
            for (peer, rate) in traffic.peers(vm) {
                let sp = alloc.server_of(peer);
                let rp = topo.rack_of(sp);
                let old_price = 2.0 * rate * weights.prefix(topo.level(from, sp));
                let new_price = 2.0 * rate * weights.prefix(topo.level(to, sp));
                shards.attribute_racks(rack_from, rp, -old_price);
                shards.attribute_racks(rack_to, rp, new_price);
            }
        }
        self.shards = Some(shards);
    }

    /// Rescales the ledger for a uniform `ScaleAll` traffic event: `C_A`
    /// is linear in `λ`, so multiplying every rate by `factor` scales
    /// the total (and every shard partial) by exactly `factor` — no
    /// pair walk at all. Saturates at `f64::MAX` like the rates in
    /// `PairTraffic::scale_all`.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is positive and finite.
    pub fn scale(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive and finite, got {factor}"
        );
        self.total = (self.total * factor).min(f64::MAX);
        if let Some(shards) = self.shards.as_mut() {
            for mass in &mut shards.per_rack {
                *mass = (*mass * factor).min(f64::MAX);
            }
            for mass in &mut shards.per_zone {
                *mass = (*mass * factor).min(f64::MAX);
            }
            shards.merged.set(None);
        }
    }

    /// Re-prices the ledger for a traffic rebind: `old` is replaced by
    /// `new` while the allocation stays fixed. Merge-joins the two
    /// canonical (sorted, `u < v`) pair lists and adjusts the total only
    /// for pairs whose rate changed, appeared, or disappeared — level
    /// lookups are paid per *changed* pair, not per pair.
    ///
    /// Both traffic matrices must describe the same VM population.
    pub fn rebind<T: Topology + ?Sized>(
        &mut self,
        alloc: &Allocation,
        old: &PairTraffic,
        new: &PairTraffic,
        topo: &T,
    ) {
        debug_assert_eq!(old.num_vms(), new.num_vms(), "populations must match");
        let mut shards = self.shards.take();
        let weights = self.model.weights();
        let price = |u: score_topology::VmId, v: score_topology::VmId, rate: f64| {
            2.0 * rate * weights.prefix(topo.level(alloc.server_of(u), alloc.server_of(v)))
        };
        let note = |shards: &mut Option<LedgerShards>, u, v, price_delta: f64| {
            if let Some(s) = shards.as_mut() {
                s.attribute_pair(alloc, topo, u, v, price_delta);
            }
        };
        let (old_pairs, new_pairs) = (old.pairs(), new.pairs());
        let (mut i, mut j) = (0, 0);
        let mut delta = 0.0;
        while i < old_pairs.len() && j < new_pairs.len() {
            let (ou, ov, or) = old_pairs[i];
            let (nu, nv, nr) = new_pairs[j];
            match (ou, ov).cmp(&(nu, nv)) {
                std::cmp::Ordering::Less => {
                    let p = price(ou, ov, or);
                    delta -= p;
                    note(&mut shards, ou, ov, -p);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    let p = price(nu, nv, nr);
                    delta += p;
                    note(&mut shards, nu, nv, p);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if or != nr {
                        let p = price(nu, nv, nr - or);
                        delta += p;
                        note(&mut shards, nu, nv, p);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        for &(u, v, r) in &old_pairs[i..] {
            let p = price(u, v, r);
            delta -= p;
            note(&mut shards, u, v, -p);
        }
        for &(u, v, r) in &new_pairs[j..] {
            let p = price(u, v, r);
            delta += p;
            note(&mut shards, u, v, p);
        }
        self.total += delta;
        self.shards = shards;
    }

    /// Re-prices the ledger for a **sparse** traffic delta: each entry
    /// is one changed pair `(u, v, old_rate, new_rate)` under an
    /// unchanged allocation. Strictly `O(changed pairs)` — unlike
    /// [`CostLedger::rebind`], the untouched pair lists are never
    /// walked, which is what makes trace replay (hundreds of mid-run
    /// deltas) cheap.
    ///
    /// The caller is responsible for `old_rate` being the rate the
    /// ledger last priced for that pair (trace replay reads it off the
    /// outgoing `PairTraffic` before swapping the new one in).
    pub fn apply_rate_changes<T: Topology + ?Sized>(
        &mut self,
        alloc: &Allocation,
        changes: &[(score_topology::VmId, score_topology::VmId, f64, f64)],
        topo: &T,
    ) {
        let mut shards = self.shards.take();
        let weights = self.model.weights();
        let mut delta = 0.0;
        for &(u, v, old, new) in changes {
            let (su, sv) = (alloc.server_of(u), alloc.server_of(v));
            let level = topo.level(su, sv);
            let price = 2.0 * (new - old) * weights.prefix(level);
            delta += price;
            if let Some(s) = shards.as_mut() {
                s.attribute_racks(topo.rack_of(su), topo.rack_of(sv), price);
            }
        }
        self.total += delta;
        self.shards = shards;
        // Hot path: two plain adds, no atomics — the shared counters and the
        // cost gauge are settled at the publish_obs cadence instead.
        if let Some(obs) = &mut self.obs {
            obs.pending_batches += 1;
            obs.pending_pairs += changes.len() as u64;
        }
    }

    /// Discards the running total and recomputes it with one full
    /// Eq.-(2) pass — the escape hatch for a caller that owns both the
    /// ledger and the cluster and replaced the allocation wholesale. No
    /// session path calls it (a session hands out no `&mut Cluster`).
    pub fn resync<T: Topology + ?Sized>(
        &mut self,
        alloc: &Allocation,
        traffic: &PairTraffic,
        topo: &T,
    ) {
        self.total = self.model.total_cost(alloc, traffic, topo);
        if self.shards.is_some() {
            self.shards = Some(Self::build_shards(&self.model, alloc, traffic, topo));
        }
        self.resyncs += 1;
        if let Some(obs) = &self.obs {
            obs.resyncs.inc();
            obs.cost.set(self.total);
        }
    }

    /// Number of full-pass resyncs this ledger has paid — the counter a
    /// trace-replay test pins to zero to prove every delta took the
    /// sparse path.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Absolute difference between the ledger and a fresh full
    /// recomputation — the drift a test pins to (near) zero.
    pub fn drift<T: Topology + ?Sized>(
        &self,
        alloc: &Allocation,
        traffic: &PairTraffic,
        topo: &T,
    ) -> f64 {
        (self.total - self.model.total_cost(alloc, traffic, topo)).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use score_topology::{CanonicalTree, ServerId, VmId};
    use score_traffic::PairTrafficBuilder;

    fn topo() -> CanonicalTree {
        CanonicalTree::small()
    }

    fn traffic() -> PairTraffic {
        let mut b = PairTrafficBuilder::new(4);
        b.add(VmId::new(0), VmId::new(1), 10.0);
        b.add(VmId::new(0), VmId::new(2), 5.0);
        b.add(VmId::new(2), VmId::new(3), 1.0);
        b.build()
    }

    fn alloc() -> Allocation {
        let servers = [0u32, 1, 4, 8];
        Allocation::from_fn(4, 16, |vm| ServerId::new(servers[vm.index()]))
    }

    #[test]
    fn initialization_matches_full_pass() {
        let (a, t, topo) = (alloc(), traffic(), topo());
        let model = CostModel::paper_default();
        let ledger = CostLedger::new(model.clone(), &a, &t, &topo);
        assert_eq!(ledger.current(), model.total_cost(&a, &t, &topo));
        assert_eq!(ledger.drift(&a, &t, &topo), 0.0);
    }

    #[test]
    fn gains_track_migrations() {
        let (mut a, t, topo) = (alloc(), traffic(), topo());
        let model = CostModel::paper_default();
        let mut ledger = CostLedger::new(model.clone(), &a, &t, &topo);
        // Move vm0 next to vm2 and fold the Lemma-3 delta in.
        let delta = model.migration_delta(VmId::new(0), ServerId::new(4), &a, &t, &topo);
        a.move_vm(VmId::new(0), ServerId::new(4));
        ledger.apply_gain(delta);
        assert!(ledger.drift(&a, &t, &topo) < 1e-9);
        // A declined decision's 0.0 gain is a no-op.
        let before = ledger.current();
        ledger.apply_gain(0.0);
        assert_eq!(ledger.current(), before);
    }

    #[test]
    fn rebind_reprices_changed_pairs_only() {
        let (a, t, topo) = (alloc(), traffic(), topo());
        let model = CostModel::paper_default();
        let mut ledger = CostLedger::new(model.clone(), &a, &t, &topo);
        // New matrix: one pair kept, one re-rated, one dropped, one added.
        let mut b = PairTrafficBuilder::new(4);
        b.add(VmId::new(0), VmId::new(1), 10.0); // kept
        b.add(VmId::new(0), VmId::new(2), 7.0); // re-rated
        b.add(VmId::new(1), VmId::new(3), 4.0); // added; (2,3) dropped
        let new = b.build();
        ledger.rebind(&a, &t, &new, &topo);
        assert!(
            (ledger.current() - model.total_cost(&a, &new, &topo)).abs() < 1e-9,
            "rebind must land on the full recomputation"
        );
    }

    #[test]
    fn rebind_to_empty_and_back() {
        let (a, t, topo) = (alloc(), traffic(), topo());
        let model = CostModel::paper_default();
        let mut ledger = CostLedger::new(model.clone(), &a, &t, &topo);
        let empty = PairTraffic::empty(4);
        ledger.rebind(&a, &t, &empty, &topo);
        assert_eq!(ledger.current(), 0.0);
        ledger.rebind(&a, &empty, &t, &topo);
        assert!(ledger.drift(&a, &t, &topo) < 1e-9);
    }

    #[test]
    fn sparse_rate_changes_match_full_recomputation() {
        let (a, t, topo) = (alloc(), traffic(), topo());
        let model = CostModel::paper_default();
        let mut ledger = CostLedger::new(model.clone(), &a, &t, &topo);
        // Replace (0,1), remove (0,2), add (1,3).
        let changes = [
            (VmId::new(0), VmId::new(1), 10.0, 25.0),
            (VmId::new(0), VmId::new(2), 5.0, 0.0),
            (VmId::new(1), VmId::new(3), 0.0, 4.0),
        ];
        ledger.apply_rate_changes(&a, &changes, &topo);
        let mut b = PairTrafficBuilder::new(4);
        b.add(VmId::new(0), VmId::new(1), 25.0);
        b.add(VmId::new(1), VmId::new(3), 4.0);
        b.add(VmId::new(2), VmId::new(3), 1.0);
        let new = b.build();
        let fresh = model.total_cost(&a, &new, &topo);
        assert!(
            (ledger.current() - fresh).abs() <= 1e-9 * fresh.max(1.0),
            "sparse re-pricing must land on the full recomputation"
        );
        // No full pass was paid.
        assert_eq!(ledger.resyncs(), 0);
        // An empty change list is a no-op.
        let before = ledger.current();
        ledger.apply_rate_changes(&a, &[], &topo);
        assert_eq!(ledger.current(), before);
    }

    /// The shard-coherence invariant: merged shard sample within 1e-9
    /// relative of the authoritative total.
    fn assert_shards_coherent(ledger: &CostLedger) {
        let tol = 1e-9 * ledger.current().abs().max(1.0);
        assert!(
            ledger.shard_drift() <= tol,
            "shard drift {} exceeds {tol} (total {})",
            ledger.shard_drift(),
            ledger.current()
        );
    }

    #[test]
    fn shards_partition_the_total() {
        let (a, t, topo) = (alloc(), traffic(), topo());
        let mut ledger = CostLedger::new(CostModel::paper_default(), &a, &t, &topo);
        assert!(!ledger.sharding_enabled());
        ledger.enable_sharding(&a, &t, &topo);
        assert!(ledger.sharding_enabled());
        assert_shards_coherent(&ledger);
        // Zone rollups partition the rack masses.
        let rack_sum: f64 = topo.racks().map(|r| ledger.rack_cost(r)).sum();
        let zone_sum: f64 = (0..topo.num_zones() as u32)
            .map(|z| ledger.zone_cost(z))
            .sum();
        assert!((rack_sum - zone_sum).abs() <= 1e-9 * rack_sum.abs().max(1.0));
    }

    #[test]
    fn shards_follow_sparse_deltas_and_rebinds() {
        let (a, t, topo) = (alloc(), traffic(), topo());
        let mut ledger = CostLedger::new(CostModel::paper_default(), &a, &t, &topo);
        ledger.enable_sharding(&a, &t, &topo);
        let changes = [
            (VmId::new(0), VmId::new(1), 10.0, 25.0),
            (VmId::new(0), VmId::new(2), 5.0, 0.0),
            (VmId::new(1), VmId::new(3), 0.0, 4.0),
        ];
        ledger.apply_rate_changes(&a, &changes, &topo);
        assert_shards_coherent(&ledger);
        // Rebind back onto the original matrix.
        let mut b = PairTrafficBuilder::new(4);
        b.add(VmId::new(0), VmId::new(1), 25.0);
        b.add(VmId::new(1), VmId::new(3), 4.0);
        b.add(VmId::new(2), VmId::new(3), 1.0);
        let cur = b.build();
        ledger.rebind(&a, &cur, &t, &topo);
        assert_shards_coherent(&ledger);
        assert_eq!(ledger.resyncs(), 0, "no full pass on the sharded path");
    }

    #[test]
    fn shards_follow_migrations_and_scaling() {
        let (mut a, t, topo) = (alloc(), traffic(), topo());
        let model = CostModel::paper_default();
        let mut ledger = CostLedger::new(model.clone(), &a, &t, &topo);
        ledger.enable_sharding(&a, &t, &topo);
        // Perform a migration exactly as the ring does: shard update
        // with the post-move allocation, then the Lemma-3 gain.
        let (vm, from, to) = (VmId::new(0), ServerId::new(0), ServerId::new(4));
        let gain = model.migration_delta(vm, to, &a, &t, &topo);
        a.move_vm(vm, to);
        ledger.apply_migration_shards(vm, from, to, &a, &t, &topo);
        ledger.apply_gain(gain);
        assert!(ledger.drift(&a, &t, &topo) < 1e-9);
        assert_shards_coherent(&ledger);
        // A dense ScaleAll is a pure multiply on total and shards.
        ledger.scale(3.5);
        assert_shards_coherent(&ledger);
        // Resync rebuilds the partials along with the total.
        ledger.resync(&a, &t, &topo);
        assert_shards_coherent(&ledger);
        assert_eq!(ledger.resyncs(), 1);
    }

    #[test]
    #[should_panic(expected = "sharding not enabled")]
    fn sharded_accessors_require_enablement() {
        let (a, t, topo) = (alloc(), traffic(), topo());
        let ledger = CostLedger::new(CostModel::paper_default(), &a, &t, &topo);
        let _ = ledger.sharded_total();
    }

    #[test]
    fn resync_restores_after_external_mutation() {
        let (mut a, t, topo) = (alloc(), traffic(), topo());
        let mut ledger = CostLedger::new(CostModel::paper_default(), &a, &t, &topo);
        // Mutate the allocation without telling the ledger …
        a.move_vm(VmId::new(3), ServerId::new(0));
        assert!(ledger.drift(&a, &t, &topo) > 0.0);
        // … then resync.
        ledger.resync(&a, &t, &topo);
        assert_eq!(ledger.drift(&a, &t, &topo), 0.0);
    }
}
