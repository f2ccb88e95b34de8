//! The token-holder decision procedure (paper §IV, §V-B5, §V-C).
//!
//! When dom0 receives the token for a hosted VM it:
//!
//! 1. aggregates the VM's per-peer traffic (flow table, §V-B3);
//! 2. resolves peer locations and communication levels (§V-B4);
//! 3. ranks the peers' servers "from highest to lowest communication
//!    levels" and probes each for capacity (§V-B5);
//! 4. migrates iff Theorem 1 holds: `ΔC_{u→x̂} > c_m`, preferring the
//!    feasible target with the largest gain.
//!
//! [`ScoreEngine`] implements steps 3–4 over a [`LocalView`] (steps 1–2).

use score_topology::{ServerId, VmId};
use serde::{Deserialize, Serialize};

use crate::cluster::Cluster;
use crate::cost::CostModel;
use crate::scratch::KernelScratch;
use crate::view::{combine_bucketed, LocalView, RankEntry};

/// Minimum candidate count for [`ScoreEngine::decide`]'s bucketed
/// scorer. Below it the per-candidate `delta_for` sweep is faster:
/// accumulating into the (large, mostly cold) per-host/rack/zone arrays
/// costs a cache miss or two per peer, which only amortizes once enough
/// candidates reuse the sums. Both scorers are bit-identical, so the
/// cutoff can never change a decision — it is chosen from the candidate
/// count the code already has, not from configuration. Both sides carry
/// benchmark traffic; the measured split is in `docs/ARCHITECTURE.md`.
pub const KERNEL_MIN_CANDIDATES: usize = 12;

/// Tunables of the S-CORE migration decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScoreConfig {
    /// Migration (overhead) cost `c_m` that a move's gain must exceed
    /// (Theorem 1). The paper's headline comparison uses 0.
    pub migration_cost: f64,
    /// Fraction of a host NIC that hosted traffic may occupy; candidate
    /// targets above this are skipped ("the next best choice with adequate
    /// bandwidth will be considered", §V-C).
    pub bandwidth_threshold: f64,
    /// Optional cap on how many candidate servers to probe per decision
    /// (capacity-probe budget). `None` probes every peer server.
    pub max_candidates: Option<usize>,
}

impl ScoreConfig {
    /// The paper's evaluation defaults: `c_m = 0`, no bandwidth headroom
    /// reserved, probe all peers.
    pub fn paper_default() -> Self {
        ScoreConfig {
            migration_cost: 0.0,
            bandwidth_threshold: 1.0,
            max_candidates: None,
        }
    }

    /// Returns a copy with the given migration cost.
    pub fn with_migration_cost(mut self, cm: f64) -> Self {
        self.migration_cost = cm;
        self
    }

    /// Returns a copy with the given bandwidth threshold.
    pub fn with_bandwidth_threshold(mut self, threshold: f64) -> Self {
        self.bandwidth_threshold = threshold;
        self
    }
}

impl Default for ScoreConfig {
    fn default() -> Self {
        ScoreConfig::paper_default()
    }
}

/// Outcome of one token-holder decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationDecision {
    /// The deciding VM.
    pub vm: VmId,
    /// Chosen target server, if the Theorem-1 condition was met.
    pub target: Option<ServerId>,
    /// `ΔC` of the chosen target under the *current* TM (0.0 when no
    /// move). This is the quantity the cost ledger absorbs — for a
    /// pre-emptive move it can be at or below `c_m` (even negative):
    /// the payoff is expected at the horizon, not now.
    pub gain: f64,
    /// `ΔC` of the chosen target under the outlook's *expected* rates —
    /// what the decision was actually ranked on. Equals `gain` for
    /// reactive (no-forecast) decisions.
    pub predicted_gain: f64,
    /// True when the move was accepted on forecasted rates alone, i.e.
    /// the current-TM gain would not have cleared Theorem 1 — the
    /// migration pre-empts a predicted shift instead of reacting to a
    /// landed one.
    pub preemptive: bool,
    /// Candidate servers evaluated.
    pub evaluated: usize,
    /// Candidates rejected by the capacity/bandwidth probe.
    pub rejected_capacity: usize,
}

impl MigrationDecision {
    /// True if the decision is to migrate.
    pub fn migrates(&self) -> bool {
        self.target.is_some()
    }

    /// The signed change this decision applied to the network-wide cost
    /// `C_A`: `−gain` for an accepted migration, `0.0` for a declined
    /// one. This is the quantity an incremental cost accumulator (e.g.
    /// [`crate::CostLedger`]) folds in instead of recomputing Eq. (2).
    pub fn applied_delta(&self) -> f64 {
        -self.gain
    }
}

/// The S-CORE decision engine: stateless combination of a cost model and a
/// configuration, applied to one token holder at a time.
#[derive(Debug, Clone, Default)]
pub struct ScoreEngine {
    cost: CostModel,
    config: ScoreConfig,
}

impl ScoreEngine {
    /// Creates an engine.
    pub fn new(cost: CostModel, config: ScoreConfig) -> Self {
        ScoreEngine { cost, config }
    }

    /// Engine with the paper's cost weights and defaults.
    pub fn paper_default() -> Self {
        ScoreEngine::new(CostModel::paper_default(), ScoreConfig::paper_default())
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ScoreConfig {
        &self.config
    }

    /// The engine's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Makes the migration decision for the holder described by `view`,
    /// without mutating anything — the one §V-B5 procedure every token
    /// hold runs.
    ///
    /// Candidates are the servers hosting the holder's peers, ranked
    /// "from highest to lowest communication levels" with ties towards
    /// heavier pairs; each is capacity-probed against the live cluster;
    /// among the feasible ones the largest `ΔC` wins, provided it
    /// exceeds `c_m` (Theorem 1).
    ///
    /// `current` is `None` for a reactive decision: `view` *is* the
    /// current view and this is bit-for-bit the paper's procedure. With
    /// a forecast, `view` carries the expected (peak-envelope) rates
    /// that selection and acceptance run on, and `current` supplies the
    /// landed rates: [`MigrationDecision::gain`] then reports the
    /// current-TM delta of the chosen move (what the cost ledger must
    /// absorb) and `preemptive` flags moves only the forecast justified.
    ///
    /// # Scoring
    ///
    /// The Lemma-3 delta decomposes as `2·(before − after(x̂))`:
    /// `before = Σ_z λ(z,u)·prefix(ℓ(z,u))` is candidate-independent,
    /// and on topologies exposing [`score_topology::LevelBuckets`] the
    /// `after` term only depends on how much peer rate sits on the
    /// candidate's host, rack and zone. With at least
    /// [`KERNEL_MIN_CANDIDATES`] candidates, one pass over the peers
    /// accumulates `before` plus per-host/rack/zone rate sums into the
    /// epoch-stamped [`KernelScratch`], and each candidate is scored
    /// from ≤ L bucket reads — O(peers + candidates·L). Below the cutoff
    /// (and on topologies without buckets) each candidate is scored by
    /// [`LocalView::delta_for`] — O(peers·candidates), but without
    /// touching the large, mostly cold accumulator arrays. Either way
    /// the steady state makes zero heap allocations.
    ///
    /// Per-bucket sums accumulate the same peer subsequences in the
    /// same order as the decomposed `delta_for`, and both scorers share
    /// `combine_bucketed`, so the scores — and therefore the decision —
    /// are bit-identical on both sides of the cutoff and to
    /// [`ScoreEngine::decide_reference`].
    pub fn decide(
        &self,
        view: &LocalView,
        current: Option<&LocalView>,
        cluster: &Cluster,
        scratch: &mut KernelScratch,
    ) -> MigrationDecision {
        let topo = cluster.topo();
        let weights = self.cost.weights();
        let mut candidates = std::mem::take(&mut scratch.candidates);
        view.rank_candidates_into(&mut candidates);
        if let Some(cap) = self.config.max_candidates {
            candidates.truncate(cap);
        }
        let buckets = topo
            .level_buckets()
            .filter(|_| candidates.len() >= KERNEL_MIN_CANDIDATES);
        let (best, evaluated, rejected) = if let Some(buckets) = buckets {
            scratch.ensure_topology(topo);
            scratch.begin();
            let mut before = 0.0;
            let mut total = 0.0;
            for p in &view.peers {
                before += p.rate * weights.prefix(p.level);
                let pc = topo.coords_of(p.server);
                scratch.add_host(p.server, p.rate);
                scratch.add_rack(pc.rack, p.rate);
                scratch.add_zone(pc.zone, p.rate);
                total += p.rate;
            }
            let max_level = topo.max_level();
            self.probe_candidates(&candidates, view.vm, cluster, |target| {
                let tc = topo.coords_of(target);
                combine_bucketed(
                    before,
                    scratch.host_sum(target),
                    scratch.rack_sum(tc.rack),
                    scratch.zone_sum(tc.zone),
                    total,
                    weights,
                    buckets,
                    max_level,
                )
            })
        } else {
            self.probe_candidates(&candidates, view.vm, cluster, |target| {
                view.delta_for(target, weights, topo)
            })
        };
        scratch.candidates = candidates;
        self.finish_decision(best, evaluated, rejected, view, current, cluster)
    }

    /// The candidate loop of [`ScoreEngine::decide`]: probe each ranked
    /// candidate for capacity, score the feasible ones with `score`, and
    /// track the largest `ΔC` above `c_m`. Returns `(best, evaluated,
    /// rejected)`.
    #[inline]
    fn probe_candidates(
        &self,
        candidates: &[RankEntry],
        vm: VmId,
        cluster: &Cluster,
        mut score: impl FnMut(ServerId) -> f64,
    ) -> (Option<(ServerId, f64)>, usize, usize) {
        let mut best: Option<(ServerId, f64)> = None;
        let mut rejected = 0;
        for &(target, ..) in candidates {
            if cluster
                .can_host(target, vm, self.config.bandwidth_threshold)
                .is_err()
            {
                rejected += 1;
                continue;
            }
            let delta = score(target);
            if delta > self.config.migration_cost && best.is_none_or(|(_, b)| delta > b) {
                best = Some((target, delta));
            }
        }
        (best, candidates.len(), rejected)
    }

    /// The oracle [`ScoreEngine::decide`] is pinned bit-identical to by
    /// proptest (`tests/decision_kernel.rs`): allocate the ranked
    /// candidate list, then sweep [`LocalView::delta_for`] per
    /// candidate. It keeps a candidate loop of its own so it shares no
    /// control flow with what it checks; nothing on a production path
    /// calls it.
    pub fn decide_reference(
        &self,
        view: &LocalView,
        current: Option<&LocalView>,
        cluster: &Cluster,
    ) -> MigrationDecision {
        let mut candidates = Vec::new();
        view.rank_candidates_into(&mut candidates);
        if let Some(cap) = self.config.max_candidates {
            candidates.truncate(cap);
        }
        let mut best: Option<(ServerId, f64)> = None;
        let mut evaluated = 0;
        let mut rejected = 0;
        for (target, ..) in candidates {
            evaluated += 1;
            if cluster
                .can_host(target, view.vm, self.config.bandwidth_threshold)
                .is_err()
            {
                rejected += 1;
                continue;
            }
            let delta = view.delta_for(target, self.cost.weights(), cluster.topo());
            if delta > self.config.migration_cost && best.is_none_or(|(_, b)| delta > b) {
                best = Some((target, delta));
            }
        }
        self.finish_decision(best, evaluated, rejected, view, current, cluster)
    }

    /// Shared tail of [`ScoreEngine::decide`] and the oracle: current-TM
    /// gain, pre-emptive flag and the assembled [`MigrationDecision`].
    fn finish_decision(
        &self,
        best: Option<(ServerId, f64)>,
        evaluated: usize,
        rejected: usize,
        decision_view: &LocalView,
        current: Option<&LocalView>,
        cluster: &Cluster,
    ) -> MigrationDecision {
        let (gain, preemptive) = match (best, current) {
            (Some((target, _)), Some(view)) => {
                // The ledger needs the *actual* delta of the accepted
                // move; whether the current TM alone would have
                // justified it decides pre-emptive vs reactive.
                let actual = view.delta_for(target, self.cost.weights(), cluster.topo());
                (actual, actual <= self.config.migration_cost)
            }
            (Some((_, predicted)), None) => (predicted, false),
            (None, _) => (0.0, false),
        };
        MigrationDecision {
            vm: decision_view.vm,
            target: best.map(|(s, _)| s),
            gain,
            predicted_gain: best.map_or(0.0, |(_, g)| g),
            preemptive,
            evaluated,
            rejected_capacity: rejected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Allocation;
    use crate::resources::{ServerSpec, VmSpec};
    use score_topology::CanonicalTree;
    use score_traffic::{PairTraffic, PairTrafficBuilder};
    use std::sync::Arc;

    fn decide(engine: &ScoreEngine, view: &LocalView, cluster: &Cluster) -> MigrationDecision {
        engine.decide(view, None, cluster, &mut KernelScratch::new())
    }

    /// One reactive hold for `u`: observe, decide, migrate if warranted.
    fn hold(
        engine: &ScoreEngine,
        u: VmId,
        cluster: &mut Cluster,
        traffic: &PairTraffic,
    ) -> MigrationDecision {
        let view = LocalView::observe(u, cluster.allocation(), traffic, cluster.topo());
        let decision = decide(engine, &view, cluster);
        if let Some(target) = decision.target {
            cluster
                .migrate(u, target, engine.config().bandwidth_threshold)
                .expect("decide() validated admission for the chosen target");
        }
        decision
    }

    /// vm0@srv0 with peers vm1@srv1 (L1, heavy) and vm2@srv8 (L3, light).
    fn fixture() -> (Cluster, PairTraffic) {
        let topo = Arc::new(CanonicalTree::small());
        let mut b = PairTrafficBuilder::new(3);
        b.add(VmId::new(0), VmId::new(1), 10.0);
        b.add(VmId::new(0), VmId::new(2), 1.0);
        let traffic = b.build();
        let servers = [0u32, 1, 8];
        let alloc = Allocation::from_fn(3, 16, |vm| ServerId::new(servers[vm.index()]));
        let cluster = Cluster::new(
            topo,
            ServerSpec::paper_default(),
            VmSpec::paper_default(),
            &traffic,
            alloc,
        )
        .unwrap();
        (cluster, traffic)
    }

    #[test]
    fn migrates_to_best_gain_target() {
        let (mut cluster, traffic) = fixture();
        let engine = ScoreEngine::paper_default();
        let decision = hold(&engine, VmId::new(0), &mut cluster, &traffic);
        // Moving next to the heavy rack-mate (srv1) collapses the 10-unit
        // pair to level 0 and only raises the light pair — best move.
        assert_eq!(decision.target, Some(ServerId::new(1)));
        assert!(decision.gain > 0.0);
        assert_eq!(
            cluster.allocation().server_of(VmId::new(0)),
            ServerId::new(1)
        );
    }

    #[test]
    fn decision_counts_candidates() {
        let (cluster, traffic) = fixture();
        let engine = ScoreEngine::paper_default();
        let view = LocalView::observe(VmId::new(0), cluster.allocation(), &traffic, cluster.topo());
        let d = decide(&engine, &view, &cluster);
        assert_eq!(d.evaluated, 2);
        assert_eq!(d.rejected_capacity, 0);
        assert!(d.migrates());
    }

    #[test]
    fn migration_cost_gates_moves() {
        let (cluster, traffic) = fixture();
        let view = LocalView::observe(VmId::new(0), cluster.allocation(), &traffic, cluster.topo());
        let free = ScoreEngine::paper_default();
        let gain = decide(&free, &view, &cluster).gain;
        let expensive = ScoreEngine::new(
            CostModel::paper_default(),
            ScoreConfig::paper_default().with_migration_cost(gain + 1.0),
        );
        let d = decide(&expensive, &view, &cluster);
        assert!(!d.migrates(), "cm above the best gain must block migration");
        assert_eq!(d.gain, 0.0);
    }

    #[test]
    fn full_target_fails_over_to_next_best() {
        let topo = Arc::new(CanonicalTree::small());
        // vm0@srv0 talks to vm1@srv1 (heavy) and vm2@srv2 (light), all in
        // rack 0. Collocating with vm1 is best but srv1 is full, so the
        // engine falls over to srv2 (collocating with the light peer while
        // keeping the heavy one at rack level).
        let mut b = PairTrafficBuilder::new(4);
        b.add(VmId::new(0), VmId::new(1), 10.0);
        b.add(VmId::new(0), VmId::new(2), 1.0);
        b.add(VmId::new(1), VmId::new(3), 1.0);
        let traffic = b.build();
        let servers = [0u32, 1, 2, 1]; // vm3 fills srv1's second slot
        let alloc = Allocation::from_fn(4, 16, |vm| ServerId::new(servers[vm.index()]));
        let spec = ServerSpec {
            vm_slots: 2,
            ..ServerSpec::paper_default()
        };
        let mut cluster =
            Cluster::new(topo, spec, VmSpec::paper_default(), &traffic, alloc).unwrap();
        let engine = ScoreEngine::paper_default();
        let decision = hold(&engine, VmId::new(0), &mut cluster, &traffic);
        assert_eq!(decision.rejected_capacity, 1);
        assert_eq!(decision.target, Some(ServerId::new(2)));
    }

    #[test]
    fn no_move_when_already_optimal() {
        let (mut cluster, traffic) = fixture();
        let engine = ScoreEngine::paper_default();
        // First step moves vm0 to srv1; a second decision for vm0 must not
        // bounce it back and forth.
        hold(&engine, VmId::new(0), &mut cluster, &traffic);
        let second = hold(&engine, VmId::new(0), &mut cluster, &traffic);
        assert!(!second.migrates(), "stable allocation must not oscillate");
    }

    #[test]
    fn accepted_move_reduces_total_cost() {
        let (mut cluster, traffic) = fixture();
        let engine = ScoreEngine::paper_default();
        let before = engine
            .cost_model()
            .total_cost(cluster.allocation(), &traffic, cluster.topo());
        let decision = hold(&engine, VmId::new(0), &mut cluster, &traffic);
        let after = engine
            .cost_model()
            .total_cost(cluster.allocation(), &traffic, cluster.topo());
        assert!(decision.migrates());
        assert!(
            (before - after - decision.gain).abs() < 1e-9,
            "Lemma 3 consistency"
        );
        assert!(after < before);
    }

    #[test]
    fn candidate_budget_respected() {
        let (cluster, traffic) = fixture();
        let engine = ScoreEngine::new(
            CostModel::paper_default(),
            ScoreConfig {
                max_candidates: Some(1),
                ..ScoreConfig::paper_default()
            },
        );
        let view = LocalView::observe(VmId::new(0), cluster.allocation(), &traffic, cluster.topo());
        let d = decide(&engine, &view, &cluster);
        assert_eq!(d.evaluated, 1);
    }

    #[test]
    fn config_builders() {
        let c = ScoreConfig::paper_default()
            .with_migration_cost(5.0)
            .with_bandwidth_threshold(0.8);
        assert_eq!(c.migration_cost, 5.0);
        assert_eq!(c.bandwidth_threshold, 0.8);
        assert_eq!(ScoreConfig::default(), ScoreConfig::paper_default());
    }
}
