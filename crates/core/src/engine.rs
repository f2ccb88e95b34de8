//! The token-holder decision procedure (paper §IV, §V-B5, §V-C).
//!
//! When dom0 receives the token for a hosted VM it:
//!
//! 1. aggregates the VM's per-peer traffic (flow table, §V-B3);
//! 2. resolves peer locations and communication levels (§V-B4);
//! 3. ranks the peers' servers "from highest to lowest communication
//!    levels" and probes them for capacity (§V-B5);
//! 4. migrates iff Theorem 1 holds: `ΔC_{u→x̂} > c_m`, preferring the
//!    feasible target with the largest gain.
//!
//! [`ScoreEngine`] implements steps 3–4 over a [`LocalView`] (steps 1–2).
//! It scores every ranked candidate but probes only one whose `ΔC`
//! exceeds `c_m` and beats the best feasible one so far: no other probe
//! could change the choice, so the target and gain are those of probing
//! all of them.

use score_topology::{ServerId, VmId};
use score_traffic::PairTraffic;
use serde::{Deserialize, Serialize};

use crate::cluster::Cluster;
use crate::cost::CostModel;
use crate::scratch::KernelScratch;
use crate::view::{combine_bucketed, LocalView, RankEntry};

/// Minimum candidate count for [`ScoreEngine::decide`]'s bucketed
/// scorer. Both scorers are bit-identical, so the cutoff can never
/// change a decision; it picks the faster one from the candidate count
/// the code already has, not from configuration.
///
/// Measured by forcing each scorer on `decide` alone (views of 1–32
/// candidates at 2,560 and 101,306 hosts, seeds 11 and 29, 2-vCPU Xeon
/// with 4 MiB L2). With L1/L2 evicted before each call, the
/// per-candidate `delta_for` sweep wins 29 of 32 points at ≤ 4
/// candidates (the kernel up to 44 % slower), the two are within −11 %
/// to +19 % at 6–8, and from 12 up the kernel wins 31 of 32 points: by
/// 3–18 % at 12 and mostly by 20–42 % at 24 and 32 (it lost one point
/// at 16, by 3 %). With warm caches it already wins from 3–4
/// candidates. 12 is the smallest measured size from which the kernel
/// wins cold; the table is in `docs/ARCHITECTURE.md`. Public for the
/// model suite, which checks that holds land on both sides.
#[doc(hidden)]
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
}

impl ScoreConfig {
    /// The paper's evaluation defaults: `c_m = 0` and no bandwidth
    /// headroom reserved. Every decision ranks all its peers' servers
    /// (§V-B5); that is not a tunable.
    pub fn paper_default() -> Self {
        ScoreConfig {
            migration_cost: 0.0,
            bandwidth_threshold: 1.0,
        }
    }

    /// Returns a copy with the given migration cost.
    pub fn with_migration_cost(mut self, cm: f64) -> Self {
        self.migration_cost = cm;
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
    /// `ΔC` of the chosen target under the view's *expected* rates —
    /// what the decision was actually ranked on. Equals `gain` for
    /// reactive (no-forecast) decisions.
    pub predicted_gain: f64,
    /// True when the move was accepted on forecasted rates alone, i.e.
    /// the current-TM gain would not have cleared Theorem 1 — the
    /// migration pre-empts a predicted shift instead of reacting to a
    /// landed one.
    pub preemptive: bool,
    /// Candidate servers evaluated: ranked and scored. Only those that
    /// could become the choice are probed for capacity.
    pub evaluated: usize,
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
    /// heavier pairs; among those that pass the capacity probe against
    /// the live cluster and current `traffic`, the largest `ΔC` wins,
    /// provided it exceeds `c_m` (Theorem 1). Only a candidate that would
    /// win is probed (see `probe_candidates`).
    ///
    /// Candidates are ranked, scored and tested against Theorem 1
    /// on each peer's `expected` rate; [`MigrationDecision::gain`] reports
    /// the chosen move's ΔC at the *current* rates (what the cost ledger
    /// must absorb). Without a forecast the two rates are one and this is
    /// bit-for-bit the paper's procedure; with one, `preemptive` flags
    /// moves only the forecast justified.
    ///
    /// # Scoring
    ///
    /// The Lemma-3 delta decomposes as `2·(before − after(x̂))`:
    /// `before = Σ_z λ(z,u)·prefix(ℓ(z,u))` is candidate-independent,
    /// and on topologies exposing [`score_topology::LevelBuckets`] the
    /// `after` term only depends on how much peer rate sits on the
    /// candidate's host, rack and zone. With at least
    /// `KERNEL_MIN_CANDIDATES` (12) candidates, one pass over the peers
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
    /// are bit-identical on both sides of the cutoff. The oracle is the
    /// naive model of `crates/sim/tests/model.rs`.
    pub fn decide(
        &self,
        view: &LocalView,
        cluster: &Cluster,
        traffic: &PairTraffic,
        scratch: &mut KernelScratch,
    ) -> MigrationDecision {
        let topo = cluster.topo();
        let weights = self.cost.weights();
        let mut candidates = std::mem::take(&mut scratch.candidates);
        view.rank_candidates_into(&mut candidates);
        let buckets = topo
            .level_buckets()
            .filter(|_| candidates.len() >= KERNEL_MIN_CANDIDATES);
        let best = if let Some(buckets) = buckets {
            scratch.ensure_topology(topo);
            scratch.begin();
            let mut before = 0.0;
            let mut total = 0.0;
            for p in &view.peers {
                before += p.expected * weights.prefix(p.level);
                let pc = topo.coords_of(p.server);
                scratch.add_host(p.server, p.expected);
                scratch.add_rack(pc.rack, p.expected);
                scratch.add_zone(pc.zone, p.expected);
                total += p.expected;
            }
            let max_level = topo.max_level();
            self.probe_candidates(&candidates, view.vm, cluster, traffic, |target| {
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
            self.probe_candidates(&candidates, view.vm, cluster, traffic, |target| {
                view.delta_for(target, weights, topo)
            })
        };
        let evaluated = candidates.len();
        scratch.candidates = candidates;
        // The ledger needs the current-rate delta of the accepted move;
        // whether it alone would have justified the move decides
        // pre-emptive vs reactive. Where no peer was forecast to change,
        // the score already is that delta, bit for bit.
        let forecast = || view.peers.iter().any(|p| p.expected != p.rate);
        let (gain, preemptive) = match best {
            Some((target, _)) if forecast() => {
                let now = view.current_delta_for(target, weights, topo);
                (now, now <= self.config.migration_cost)
            }
            Some((_, score)) => (score, false),
            None => (0.0, false),
        };
        MigrationDecision {
            vm: view.vm,
            target: best.map(|(s, _)| s),
            gain,
            predicted_gain: best.map_or(0.0, |(_, g)| g),
            preemptive,
            evaluated,
        }
    }

    /// The candidate loop of [`ScoreEngine::decide`]: score each ranked
    /// candidate with `score` and track the first largest `ΔC` above
    /// `c_m` among those that pass the capacity probe.
    ///
    /// A candidate is probed only when its `ΔC` exceeds `c_m` and beats
    /// the best so far; any other leaves the best unchanged whether it
    /// fits or not. `can_host` gives the same verdict from any state of
    /// the NIC memo, so the choice is bit for bit that of probing every
    /// candidate first.
    #[inline]
    fn probe_candidates(
        &self,
        candidates: &[RankEntry],
        vm: VmId,
        cluster: &Cluster,
        traffic: &PairTraffic,
        mut score: impl FnMut(ServerId) -> f64,
    ) -> Option<(ServerId, f64)> {
        let mut best: Option<(ServerId, f64)> = None;
        for &(target, ..) in candidates {
            let delta = score(target);
            if delta > self.config.migration_cost
                && best.is_none_or(|(_, b)| delta > b)
                && cluster
                    .can_host(traffic, target, vm, self.config.bandwidth_threshold)
                    .is_ok()
            {
                best = Some((target, delta));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Allocation;
    use crate::resources::{AdmissionError, ServerSpec, VmSpec};
    use score_topology::CanonicalTree;
    use score_traffic::PairTrafficBuilder;
    use std::sync::Arc;

    fn decide(
        engine: &ScoreEngine,
        view: &LocalView,
        cluster: &Cluster,
        traffic: &PairTraffic,
    ) -> MigrationDecision {
        engine.decide(view, cluster, traffic, &mut KernelScratch::new())
    }

    /// One reactive hold for `u`: observe, decide, migrate if warranted.
    fn hold(
        engine: &ScoreEngine,
        u: VmId,
        cluster: &mut Cluster,
        traffic: &PairTraffic,
    ) -> MigrationDecision {
        let view = LocalView::observe(u, cluster.allocation(), traffic, cluster.topo());
        let decision = decide(engine, &view, cluster, traffic);
        if let Some(target) = decision.target {
            cluster
                .migrate(traffic, u, target, engine.config().bandwidth_threshold)
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
        let d = decide(&engine, &view, &cluster, &traffic);
        assert_eq!(d.evaluated, 2);
        assert!(d.migrates());
    }

    #[test]
    fn migration_cost_gates_moves() {
        let (cluster, traffic) = fixture();
        let view = LocalView::observe(VmId::new(0), cluster.allocation(), &traffic, cluster.topo());
        let free = ScoreEngine::paper_default();
        let gain = decide(&free, &view, &cluster, &traffic).gain;
        let expensive = ScoreEngine::new(
            CostModel::paper_default(),
            ScoreConfig::paper_default().with_migration_cost(gain + 1.0),
        );
        let d = decide(&expensive, &view, &cluster, &traffic);
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
        assert_eq!(decision.evaluated, 2);
        assert_eq!(decision.target, Some(ServerId::new(2)));
    }

    /// The first strict maximum of `ΔC > c_m` among the ranked candidates
    /// that pass the capacity probe, each of them probed.
    fn eager_choice(
        engine: &ScoreEngine,
        view: &LocalView,
        cluster: &Cluster,
        traffic: &PairTraffic,
    ) -> Option<(ServerId, f64)> {
        let config = engine.config();
        let mut ranked = Vec::new();
        view.rank_candidates_into(&mut ranked);
        let mut best: Option<(ServerId, f64)> = None;
        for &(target, ..) in &ranked {
            let fits = cluster
                .can_host(traffic, target, view.vm, config.bandwidth_threshold)
                .is_ok();
            let delta = view.delta_for(target, engine.cost_model().weights(), cluster.topo());
            if fits && delta > config.migration_cost && best.is_none_or(|(_, b)| delta > b) {
                best = Some((target, delta));
            }
        }
        best
    }

    /// vm0 on srv0 of the 16-host tree talks to one peer on each of
    /// `peers`' hosts. `full` hosts get a second VM, which fills them
    /// under `spec`, and the peers on `hot` hosts also send 99 % of a NIC
    /// to a sink VM beside vm0, which leaves those NICs no room for vm0.
    fn probing_world(
        peers: &[(u32, f64)],
        full: &[u32],
        hot: &[u32],
        spec: ServerSpec,
    ) -> (Cluster, PairTraffic) {
        let mut servers = vec![0u32];
        servers.extend(peers.iter().map(|p| p.0));
        let sink = servers.len() as u32;
        servers.push(0);
        servers.extend(full);
        let n = servers.len() as u32;
        let mut b = PairTrafficBuilder::new(n);
        for (i, &(host, rate)) in peers.iter().enumerate() {
            let peer = VmId::new(i as u32 + 1);
            b.add(VmId::new(0), peer, rate);
            if hot.contains(&host) {
                b.add(peer, VmId::new(sink), 0.99 * spec.nic_bps);
            }
        }
        let traffic = b.build();
        let alloc = Allocation::from_fn(n, 16, |vm| ServerId::new(servers[vm.index()]));
        let cluster = Cluster::new(
            Arc::new(CanonicalTree::small()),
            spec,
            VmSpec::paper_default(),
            &traffic,
            alloc,
        )
        .unwrap();
        (cluster, traffic)
    }

    /// Probing only a candidate that would become the choice picks the
    /// target, and the gain bits, of probing every candidate.
    #[test]
    fn lazy_probing_matches_eager_probing() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let slot_full = ServerSpec {
            vm_slots: 2,
            ..ServerSpec::paper_default()
        };
        let ram_full = ServerSpec {
            ram_mb: 2 * VmSpec::paper_default().ram_mb + 100,
            ..ServerSpec::paper_default()
        };
        // Holds where the best-scoring candidate is refused for a slot or
        // RAM, and for its NIC; with c_m > 0; on either scorer's side.
        let (mut full_best, mut nic_best, mut cm_moves) = (0, 0, 0);
        let mut sides = [0usize; 2];
        let mut rng = StdRng::seed_from_u64(45);
        for case in 0..400 {
            let mut hosts: Vec<u32> = (1..16).collect();
            for i in (1..hosts.len()).rev() {
                hosts.swap(i, rng.gen_range(0..=i));
            }
            let k = rng.gen_range(1..=15);
            let peers: Vec<(u32, f64)> = hosts[..k]
                .iter()
                .map(|&s| (s, rng.gen_range(1e6..5e7)))
                .collect();
            let marked: Vec<u32> = hosts[..k]
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.4))
                .collect();
            let (full, hot) = marked.split_at(marked.len() / 2);
            let spec = [slot_full, ram_full][case % 2];
            let (cluster, traffic) = probing_world(&peers, full, hot, spec);
            let vm = VmId::new(0);
            let view = LocalView::observe(vm, cluster.allocation(), &traffic, cluster.topo());
            let weights = CostModel::paper_default().weights().clone();
            let top = peers
                .iter()
                .map(|&(s, _)| ServerId::new(s))
                .map(|s| (view.delta_for(s, &weights, cluster.topo()), s))
                .max_by(|a, b| a.0.total_cmp(&b.0))
                .expect("a peer");
            let cm = [0.0, top.0 * rng.gen_range(0.2..0.9)][rng.gen_range(0..2)];
            let threshold = [1.0, 0.95, f64::INFINITY][rng.gen_range(0..3)];
            let engine = ScoreEngine::new(
                CostModel::paper_default(),
                ScoreConfig {
                    bandwidth_threshold: threshold,
                    ..ScoreConfig::paper_default().with_migration_cost(cm)
                },
            );
            let d = decide(&engine, &view, &cluster, &traffic);
            let want = eager_choice(&engine, &view, &cluster, &traffic);
            assert_eq!(d.target, want.map(|w| w.0), "target, case {case}");
            let gain = want.map_or(0.0, |w| w.1);
            assert_eq!(d.gain.to_bits(), gain.to_bits(), "gain, case {case}");
            assert_eq!(d.evaluated, k, "evaluated, case {case}");

            if top.0 > cm && d.migrates() {
                let refused = cluster.can_host(&traffic, top.1, vm, threshold).err();
                full_best += usize::from(matches!(
                    refused,
                    Some(AdmissionError::NoSlot | AdmissionError::Ram)
                ));
                nic_best += usize::from(refused == Some(AdmissionError::Bandwidth));
                cm_moves += usize::from(cm > 0.0);
                sides[usize::from(k >= KERNEL_MIN_CANDIDATES)] += 1;
            }
        }
        assert!(
            full_best > 0 && nic_best > 0 && cm_moves > 0,
            "coverage: {full_best} full, {nic_best} NIC, {cm_moves} with c_m > 0"
        );
        assert!(sides.iter().all(|&n| n > 0), "both scorers: {sides:?}");
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
    fn config_builders() {
        let c = ScoreConfig::paper_default().with_migration_cost(5.0);
        assert_eq!(c.migration_cost, 5.0);
        assert_eq!(c.bandwidth_threshold, 1.0);
        assert_eq!(ScoreConfig::default(), ScoreConfig::paper_default());
    }
}
