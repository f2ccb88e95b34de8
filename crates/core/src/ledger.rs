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
//! * **initialization** — one full Eq.-(2) pass ([`CostModel::ledger`],
//!   the one public constructor);
//! * **migration** — every accepted move already computed its Lemma-3
//!   delta `ΔC`; [`CostLedger::apply_gain`] folds it in, making the
//!   update `O(1)` on top of the `O(|Vu|)` the decision itself paid;
//! * **traffic change** — a batch of re-rated pairs under an unchanged
//!   allocation is re-priced pair by pair
//!   ([`CostLedger::apply_rate_changes`], `O(changed pairs)` level
//!   lookups), and a uniform scale multiplies the total
//!   ([`CostLedger::scale`], `O(1)`);
//! * **sampling** — [`CostLedger::current`] is a field read, `O(1)`.
//!
//! Lemma 3 guarantees the delta equals the difference of full
//! recomputations exactly; the ledger therefore tracks the true cost up
//! to floating-point rounding (pinned to ≤ 1e-9 relative by the property
//! suite in `tests/ledger_properties.rs`). Every later change reaches the
//! total as a delta: a Lemma-3 gain, a sparse re-price or a scale.
//! There is no second full pass and no wholesale reset. A ring folds
//! each hold in through
//! [`TokenRing::step_ledgered_outlook`](crate::TokenRing::step_ledgered_outlook).

use score_topology::{Topology, VmId};
use score_traffic::PairTraffic;

use crate::allocation::Allocation;
use crate::cost::CostModel;

/// Incrementally maintained network-wide communication cost `C_A`
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct CostLedger {
    model: CostModel,
    total: f64,
    obs: Option<LedgerObs>,
}

/// Pre-resolved instruments attached via [`CostLedger::attach_obs`].
///
/// The delta hot path only bumps the plain `pending_*` fields (no atomics —
/// an attached ledger must stay within a few percent of bare sparse-delta
/// throughput); the shared counters and the cost gauge are settled when
/// the driver calls [`CostLedger::publish_obs`] at its sampling cadence.
#[derive(Debug, Clone)]
struct LedgerObs {
    /// `score_ledger_cost`: the current authoritative `C_A`.
    cost: std::sync::Arc<score_obs::Gauge>,
    /// `score_ledger_delta_batches_total`: sparse delta batches applied.
    delta_batches: std::sync::Arc<score_obs::Counter>,
    /// `score_ledger_pairs_repriced_total`: pair rates re-priced.
    pairs_repriced: std::sync::Arc<score_obs::Counter>,
    /// Delta batches applied since the last [`CostLedger::publish_obs`].
    pending_batches: u64,
    /// Pairs re-priced since the last [`CostLedger::publish_obs`].
    pending_pairs: u64,
}

impl LedgerObs {
    fn build(handle: &score_obs::ObsHandle) -> Option<Self> {
        if !handle.is_enabled() {
            return None;
        }
        Some(LedgerObs {
            cost: handle.gauge("score_ledger_cost")?,
            delta_batches: handle.counter("score_ledger_delta_batches_total")?,
            pairs_repriced: handle.counter("score_ledger_pairs_repriced_total")?,
            pending_batches: 0,
            pending_pairs: 0,
        })
    }
}

impl CostLedger {
    /// Initializes the ledger with one full Eq.-(2) pass over `traffic`
    /// under `alloc`. Callers outside this crate use
    /// [`CostModel::ledger`].
    pub(crate) fn new<T: Topology + ?Sized>(
        model: CostModel,
        alloc: &Allocation,
        traffic: &PairTraffic,
        topo: &T,
    ) -> Self {
        let total = model.total_cost(alloc, traffic, topo);
        CostLedger {
            model,
            total,
            obs: None,
        }
    }

    /// Attaches observability: delta counters plus the cost gauge.
    /// Purely a side channel — the ledger's arithmetic (and therefore
    /// `total`) is bit-identical with or without it. Passing a disabled
    /// handle, or one that cannot provide an instrument, detaches.
    pub fn attach_obs(&mut self, handle: &score_obs::ObsHandle) {
        self.obs = LedgerObs::build(handle);
        if let Some(obs) = &self.obs {
            obs.cost.set(self.total);
        }
    }

    /// Settles the instruments the delta hot path deliberately defers: the
    /// pending batch/pair counts are flushed into their shared counters and
    /// the cost gauge is refreshed. Called by the simulation driver at its
    /// sampling cadence, never on the delta hot path. No-op when detached.
    pub fn publish_obs(&mut self) {
        if let Some(obs) = &mut self.obs {
            if obs.pending_batches > 0 {
                obs.delta_batches.add(obs.pending_batches);
                obs.pairs_repriced.add(obs.pending_pairs);
                obs.pending_batches = 0;
                obs.pending_pairs = 0;
            }
            obs.cost.set(self.total);
        }
    }

    /// Does nothing. Kept, with its old signature, only because the
    /// performance harness still calls it once, in `ring_replay`
    /// (`benchmark/src/sim_workloads.rs:111`), so that its ledger mirrors
    /// the session's; ROADMAP item 5(d) deletes the call and this method.
    #[doc(hidden)]
    pub fn enable_sharding<T: Topology + ?Sized>(
        &mut self,
        _alloc: &Allocation,
        _traffic: &PairTraffic,
        _topo: &T,
    ) {
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

    /// Rescales the ledger for a uniform `ScaleAll` traffic event: `C_A`
    /// is linear in `λ`, so multiplying every rate by `factor` scales
    /// the total by exactly `factor` — no pair walk at all. Saturates at
    /// `f64::MAX` like the rates in `PairTraffic::scale_all`.
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
    }

    /// Re-prices the ledger for a **sparse** traffic delta: each entry
    /// is one changed pair `(u, v, old_rate, new_rate)` under an
    /// unchanged allocation. Strictly `O(changed pairs)` — the untouched
    /// pairs are never walked, which is what makes trace replay
    /// (hundreds of mid-run deltas) cheap.
    ///
    /// The caller is responsible for `old_rate` being the rate the
    /// ledger last priced for that pair (trace replay reads it off the
    /// `PairTraffic` before the new rate lands).
    pub fn apply_rate_changes<T: Topology + ?Sized>(
        &mut self,
        alloc: &Allocation,
        changes: &[(VmId, VmId, f64, f64)],
        topo: &T,
    ) {
        let weights = self.model.weights();
        let mut delta = 0.0;
        for &(u, v, old, new) in changes {
            let level = topo.level(alloc.server_of(u), alloc.server_of(v));
            delta += 2.0 * (new - old) * weights.prefix(level);
        }
        self.total += delta;
        // Hot path: two plain adds, no atomics — the shared counters and the
        // cost gauge are settled at the publish_obs cadence instead.
        if let Some(obs) = &mut self.obs {
            obs.pending_batches += 1;
            obs.pending_pairs += changes.len() as u64;
        }
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

    /// Absolute difference between the ledger and a fresh full pass.
    fn drift(ledger: &CostLedger, alloc: &Allocation, traffic: &PairTraffic) -> f64 {
        let fresh = ledger.model().total_cost(alloc, traffic, &topo());
        (ledger.current() - fresh).abs()
    }

    #[test]
    fn initialization_matches_full_pass() {
        let (a, t, topo) = (alloc(), traffic(), topo());
        let model = CostModel::paper_default();
        let ledger = CostLedger::new(model.clone(), &a, &t, &topo);
        assert_eq!(ledger.current(), model.total_cost(&a, &t, &topo));
        assert_eq!(drift(&ledger, &a, &t), 0.0);
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
        assert!(drift(&ledger, &a, &t) < 1e-9);
        // A declined decision's 0.0 gain is a no-op.
        let before = ledger.current();
        ledger.apply_gain(0.0);
        assert_eq!(ledger.current(), before);
        // A dense ScaleAll is a pure multiply of the total.
        let mut scaled = t.clone();
        scaled.scale_all(3.5);
        ledger.scale(3.5);
        assert!(drift(&ledger, &a, &scaled) <= 1e-9 * ledger.current());
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
        // An empty change list is a no-op.
        let before = ledger.current();
        ledger.apply_rate_changes(&a, &[], &topo);
        assert_eq!(ledger.current(), before);
    }
}
