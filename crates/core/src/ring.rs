//! The token ring: driving S-CORE over a whole VM population.
//!
//! One *iteration* passes the token through `|V|` holders (for round-robin
//! this is exactly one sweep over the VM ids). Fig. 2 of the paper plots
//! the ratio of migrated VMs in each of 5 consecutive iterations and shows
//! it plummeting after the second one — [`TokenRing::run_iteration`]
//! produces exactly that statistic.

use score_obs::{Counter, DecisionTrace, Histogram, ObsEvent, ObsHandle};
use score_topology::VmId;
use score_traffic::PairTraffic;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::cluster::Cluster;
use crate::engine::{MigrationDecision, ScoreEngine};
use crate::ledger::CostLedger;
use crate::outlook::{OutlookContext, TrafficOutlook};
use crate::policy::TokenPolicy;
use crate::scratch::DecisionScratch;
use crate::token::Token;

/// Outcome of one token-holder step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepOutcome {
    /// The VM that held the token.
    pub holder: VmId,
    /// The server hosting the holder *before* any migration this step.
    pub source: score_topology::ServerId,
    /// Its migration decision.
    pub decision: MigrationDecision,
    /// The next token holder (`None` terminates the ring).
    pub next: Option<VmId>,
}

impl StepOutcome {
    /// The signed change this step applied to the network-wide cost
    /// `C_A` (see [`MigrationDecision::applied_delta`]).
    pub fn applied_delta(&self) -> f64 {
        self.decision.applied_delta()
    }
}

/// Aggregate statistics of one iteration (`|V|` token holds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct IterationStats {
    /// Token holds performed.
    pub steps: usize,
    /// Number of migrations performed.
    pub migrations: usize,
    /// Sum of the Lemma-3 gains of all performed migrations.
    pub total_gain: f64,
}

impl IterationStats {
    /// Migrated-VM ratio: migrations / steps (the Fig. 2 metric).
    pub fn migration_ratio(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.migrations as f64 / self.steps as f64
        }
    }
}

/// A running S-CORE instance: engine + token + policy + current holder.
///
/// The policy is held as a `Box<dyn TokenPolicy>` so that it can be
/// selected at runtime (from a serialized `Scenario`, a CLI flag, a
/// config file) instead of being baked into the ring's type — the
/// foundation of the `Scenario`/`Session` experiment API.
#[derive(Debug)]
pub struct TokenRing {
    engine: ScoreEngine,
    policy: Box<dyn TokenPolicy>,
    token: Token,
    holder: Option<VmId>,
    obs: Option<RingObs>,
    /// Per-ring decision buffers: a ring is single-threaded, so owning
    /// the scratch here gives `Session`, the daemon's tenant engines and
    /// every `MatrixRunner` cell a private scratch for free.
    scratch: DecisionScratch,
}

/// Pre-resolved instruments for the decision hot path, built once at
/// [`TokenRing::attach_obs`] time so a step costs a few relaxed atomic adds.
/// All series carry a `policy="<name>"` label.
#[derive(Debug)]
struct RingObs {
    handle: ObsHandle,
    /// Event-clock time published by the driver (see
    /// [`TokenRing::set_obs_clock`]); journal entries are stamped with it.
    clock_s: f64,
    /// `score_decision_latency_ns`: wall time of one token-holder step.
    decision_ns: Arc<Histogram>,
    /// `score_token_hops_total`: token holds performed.
    hops: Arc<Counter>,
    /// `score_migrations_total{kind="reactive"|"preemptive"}`.
    migrations_reactive: Arc<Counter>,
    migrations_preemptive: Arc<Counter>,
}

impl RingObs {
    fn build(handle: &ObsHandle, policy: &'static str) -> Option<Self> {
        if !handle.is_enabled() {
            return None;
        }
        let handle = handle.with_label("policy", policy);
        Some(RingObs {
            decision_ns: handle.histogram("score_decision_latency_ns")?,
            hops: handle.counter("score_token_hops_total")?,
            migrations_reactive: handle.counter("score_migrations_total{kind=\"reactive\"}")?,
            migrations_preemptive: handle.counter("score_migrations_total{kind=\"preemptive\"}")?,
            clock_s: 0.0,
            handle,
        })
    }
}

impl TokenRing {
    /// Creates a ring over VMs `0..num_vms`, starting at the lowest id
    /// ("starting from the VM with lowest ID", §V-A1).
    ///
    /// Accepts any policy value (it is boxed internally); pass an
    /// already-boxed `Box<dyn TokenPolicy>` via [`TokenRing::with_boxed`]
    /// to avoid double indirection.
    pub fn new(engine: ScoreEngine, policy: impl TokenPolicy + 'static, num_vms: u32) -> Self {
        TokenRing::with_boxed(engine, Box::new(policy), num_vms)
    }

    /// Creates a ring from an already-boxed policy (runtime selection).
    pub fn with_boxed(engine: ScoreEngine, mut policy: Box<dyn TokenPolicy>, num_vms: u32) -> Self {
        let token = Token::for_vms((0..num_vms).map(VmId::new));
        let holder = token.first();
        // One-time index builds happen here, not inside the first hold.
        policy.prepare(&token);
        TokenRing {
            engine,
            policy,
            token,
            holder,
            obs: None,
            scratch: DecisionScratch::new(),
        }
    }

    /// Attaches observability: decision latency, token hops and migration
    /// counters (labelled by policy name) plus a journal entry per hold.
    ///
    /// Purely a side channel — an attached ring takes bit-identical
    /// decisions to a bare one. Passing a disabled handle detaches.
    pub fn attach_obs(&mut self, handle: &ObsHandle) {
        self.obs = RingObs::build(handle, self.policy.name());
    }

    /// Publishes the driver's event-clock time (seconds) so journal entries
    /// carry simulation time rather than wall time. No-op when detached.
    pub fn set_obs_clock(&mut self, at_s: f64) {
        if let Some(o) = &mut self.obs {
            o.clock_s = at_s;
        }
    }

    /// The current token holder.
    pub fn holder(&self) -> Option<VmId> {
        self.holder
    }

    /// The token state.
    pub fn token(&self) -> &Token {
        &self.token
    }

    /// The policy in use.
    pub fn policy(&self) -> &dyn TokenPolicy {
        self.policy.as_ref()
    }

    /// The engine in use.
    pub fn engine(&self) -> &ScoreEngine {
        &self.engine
    }

    /// Adds a VM to the ring (elastic arrival): it joins the token at
    /// level 0 and will receive the token in due course. Returns `false`
    /// if it was already a member.
    ///
    /// In the paper, "VM ID allocation is handled by a centralized VM
    /// instance placement manager" — this is the ring-side effect of such
    /// an arrival.
    pub fn add_vm(&mut self, vm: VmId) -> bool {
        let added = self.token.add_vm(vm);
        if self.holder.is_none() {
            self.holder = Some(vm);
        }
        added
    }

    /// Removes a VM from the ring (departure/termination). If the departing
    /// VM currently holds the token, the token passes to its round-robin
    /// successor. Returns `false` if it was not a member.
    pub fn remove_vm(&mut self, vm: VmId) -> bool {
        if !self.token.contains(vm) {
            return false;
        }
        if self.holder == Some(vm) {
            let successor = self.token.next_after(vm).filter(|&z| z != vm);
            self.holder = successor;
        }
        self.token.remove_vm(vm);
        // Re-validate against the shrunk token (defensive: the successor
        // could only be stale if the token mutated concurrently).
        if let Some(h) = self.holder {
            if !self.token.contains(h) {
                self.holder = self.token.first();
            }
        }
        true
    }

    /// Removes a batch of crashed VMs from the ring at once — the
    /// host-crash path, where every VM of a dead server vanishes in the
    /// same instant (no departure protocol, no handover).
    ///
    /// If the current token holder is among the dead, the token passes
    /// to its **deterministic survivor**: the first VM after the dead
    /// holder in token order that is not itself dead. The election is a
    /// pure function of the token order and the *set* of dead VMs —
    /// callers may list the victims in any order (they are normalised
    /// internally), so concurrent fault reporters converge on the same
    /// successor no matter how their batches interleave.
    ///
    /// When no survivor exists the ring degrades gracefully: the holder
    /// becomes `None`, [`TokenRing::step`] returns `None`, and
    /// iteration loops terminate instead of spinning on a dead
    /// membership. A later [`TokenRing::add_vm`] restarts the ring.
    ///
    /// Returns the post-failure holder.
    pub fn fail_vms(&mut self, dead: &[VmId]) -> Option<VmId> {
        let mut dead_sorted: Vec<VmId> = dead
            .iter()
            .copied()
            .filter(|&vm| self.token.contains(vm))
            .collect();
        dead_sorted.sort_unstable();
        dead_sorted.dedup();
        if dead_sorted.is_empty() {
            return self.holder;
        }
        let is_dead = |vm: VmId| dead_sorted.binary_search(&vm).is_ok();
        if let Some(h) = self.holder {
            if is_dead(h) {
                // Walk the ring from the dead holder, skipping dead VMs;
                // bounded by the membership so a fully-dead ring yields
                // `None` instead of cycling.
                let mut successor = None;
                let mut probe = h;
                for _ in 0..self.token.len() {
                    match self.token.next_after(probe) {
                        Some(n) if n == h => break,
                        Some(n) if is_dead(n) => probe = n,
                        Some(n) => {
                            successor = Some(n);
                            break;
                        }
                        None => break,
                    }
                }
                self.holder = successor;
            }
        }
        for &vm in &dead_sorted {
            self.token.remove_vm(vm);
        }
        // Defensive re-validation against the shrunk token (mirrors
        // `remove_vm`).
        if let Some(h) = self.holder {
            if !self.token.contains(h) {
                self.holder = self.token.first();
            }
        }
        self.holder
    }

    /// Regenerates a lost token (failure recovery).
    ///
    /// The token is a single point of loss in any token-passing protocol;
    /// when its holder crashes or the message is dropped, the VM instance
    /// placement manager (which owns ID allocation, §V-A) can mint a fresh
    /// token over the known membership. All level entries restart at zero
    /// and policy-internal state is discarded — the distributed state is
    /// soft and rebuilds within one iteration.
    pub fn regenerate_token(&mut self) {
        let members: Vec<VmId> = self.token.entries().iter().map(|e| e.id).collect();
        self.token = Token::for_vms(members);
        self.policy.reset();
        self.policy.prepare(&self.token);
        self.holder = self.token.first();
    }

    /// Performs one reactive, unledgered token-holder step: decide from
    /// current rates, migrate if warranted, pass the token. Returns
    /// `None` when no holder remains. This is the paper's pipeline as
    /// [`TokenRing::run_iteration`] drives it; callers that track `C_A`
    /// incrementally or forecast use
    /// [`TokenRing::step_ledgered_outlook`].
    pub fn step(&mut self, cluster: &mut Cluster, traffic: &PairTraffic) -> Option<StepOutcome> {
        self.step_with(cluster, traffic, &OutlookContext::reactive())
    }

    /// One token hold under `ctx`: both the migration decision and the
    /// next-holder choice consume the holder's local view plus, when the
    /// context forecasts, the predicted per-peer rates at the lookahead
    /// horizon. With [`OutlookContext::reactive`] this is the paper
    /// pipeline bit for bit; the context only ever *reads* its
    /// forecaster, so stepping with one cannot dirty any ledger.
    fn step_with(
        &mut self,
        cluster: &mut Cluster,
        traffic: &PairTraffic,
        ctx: &OutlookContext<'_>,
    ) -> Option<StepOutcome> {
        let holder = self.holder?;
        let sw = self.obs.as_ref().map(|o| o.handle.stopwatch());
        let scratch = &mut self.scratch;
        scratch
            .view
            .observe_into(holder, cluster.allocation(), traffic, cluster.topo());
        let source = scratch.view.server;
        // A forecasting context re-rates the scoring view to the
        // peak-demand envelope first (`TrafficOutlook::expected_rate`).
        let decision = if ctx.predict_into(&scratch.view, &mut scratch.predicted) {
            for (slot, p) in scratch.predicted.iter_mut().zip(&scratch.view.peers) {
                *slot = slot.max(p.rate);
            }
            scratch
                .decision_view
                .assign_with_rates(&scratch.view, &scratch.predicted);
            self.engine.decide(
                &scratch.decision_view,
                Some(&scratch.view),
                cluster,
                &mut scratch.kernel,
            )
        } else {
            self.engine
                .decide(&scratch.view, None, cluster, &mut scratch.kernel)
        };
        if let Some(target) = decision.target {
            cluster
                .migrate(holder, target, self.engine.config().bandwidth_threshold)
                .expect("decide() validated admission for the chosen target");
        }
        // The policy sees the *post-migration* state: if the holder moved,
        // its levels (and those of its peers) changed — otherwise the
        // pre-migration view is still exact and is reused as-is. The view
        // (and any predicted-rate slab) is lent to the policy inside an
        // owned outlook and reclaimed from its parts afterwards.
        let migrated = decision.migrates();
        let post_view = if migrated {
            scratch
                .post_view
                .observe_into(holder, cluster.allocation(), traffic, cluster.topo());
            std::mem::take(&mut scratch.post_view)
        } else {
            std::mem::take(&mut scratch.view)
        };
        let post_outlook = if ctx.predict_into(&post_view, &mut scratch.predicted) {
            let predicted = std::mem::take(&mut scratch.predicted);
            TrafficOutlook::with_forecast(post_view, predicted, ctx.horizon_s())
        } else {
            TrafficOutlook::reactive(post_view)
        };
        let next = self
            .policy
            .next_holder(&mut self.token, holder, &post_outlook);
        self.holder = next;
        let (post_view, predicted) = post_outlook.into_parts();
        if migrated {
            scratch.post_view = post_view;
        } else {
            scratch.view = post_view;
        }
        if let Some(predicted) = predicted {
            scratch.predicted = predicted;
        }
        if let Some(o) = &self.obs {
            o.hops.inc();
            if let Some(ns) = sw.and_then(|s| s.elapsed_ns()) {
                o.decision_ns.record(ns);
            }
            if decision.migrates() {
                if decision.preemptive {
                    o.migrations_preemptive.inc();
                } else {
                    o.migrations_reactive.inc();
                }
            }
            o.handle.journal_push(ObsEvent::Decision(DecisionTrace {
                at_s: o.clock_s,
                holder: holder.get() as u64,
                candidates: decision.evaluated as u32,
                accepted: decision.migrates(),
                gain: decision.gain,
                ledger_delta: decision.applied_delta(),
                preemptive: decision.preemptive,
            }));
        }
        Some(StepOutcome {
            holder,
            source,
            decision,
            next,
        })
    }

    /// One token hold under `ctx` (see [`OutlookContext`]; pass
    /// [`OutlookContext::reactive`] for the paper pipeline) that folds
    /// the step's applied cost delta into `ledger`, so the network-wide
    /// cost stays observable in `O(1)` without any Eq.-(2)
    /// recomputation — what `Session` runs for every hold. For a
    /// pre-emptive migration the decision's `gain` is its *current-TM*
    /// delta (possibly ≤ 0), so the ledger stays exact even when the
    /// move only pays off at the forecast horizon.
    pub fn step_ledgered_outlook(
        &mut self,
        cluster: &mut Cluster,
        traffic: &PairTraffic,
        ledger: &mut CostLedger,
        ctx: &OutlookContext<'_>,
    ) -> Option<StepOutcome> {
        let outcome = self.step_with(cluster, traffic, ctx)?;
        if let Some(target) = outcome.decision.target {
            // Sharded ledgers re-attribute the moved VM's pair costs to
            // the racks on the migration's path — O(degree), a no-op
            // when sharding is off. The authoritative total still
            // absorbs the engine's own Lemma-3 gain below, unchanged.
            ledger.apply_migration_shards(
                outcome.holder,
                outcome.source,
                target,
                cluster.allocation(),
                traffic,
                cluster.topo(),
            );
        }
        ledger.apply_gain(outcome.decision.gain);
        Some(outcome)
    }

    /// Runs `|V|` steps — one iteration in the paper's sense.
    pub fn run_iteration(
        &mut self,
        cluster: &mut Cluster,
        traffic: &PairTraffic,
    ) -> IterationStats {
        let n = self.token.len();
        let mut stats = IterationStats::default();
        for _ in 0..n {
            let Some(outcome) = self.step(cluster, traffic) else {
                break;
            };
            stats.steps += 1;
            if outcome.decision.migrates() {
                stats.migrations += 1;
                stats.total_gain += outcome.decision.gain;
            }
        }
        stats
    }

    /// Runs `iterations` iterations, returning per-iteration statistics
    /// (the Fig. 2 series).
    pub fn run_iterations(
        &mut self,
        iterations: usize,
        cluster: &mut Cluster,
        traffic: &PairTraffic,
    ) -> Vec<IterationStats> {
        (0..iterations)
            .map(|_| self.run_iteration(cluster, traffic))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Allocation;
    use crate::cost::CostModel;
    use crate::policy::{HighestLevelFirst, RoundRobin};
    use crate::resources::{ServerSpec, VmSpec};
    use score_topology::{CanonicalTree, ServerId};
    use score_traffic::WorkloadConfig;
    use std::sync::Arc;

    fn fixture(seed: u64) -> (Cluster, PairTraffic) {
        let topo = Arc::new(CanonicalTree::small()); // 16 servers
        let traffic = WorkloadConfig::new(32, seed).generate();
        // Spread VMs round-robin across servers (a traffic-agnostic initial
        // placement).
        let alloc = Allocation::from_fn(32, 16, |vm| ServerId::new(vm.get() % 16));
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
    fn iterations_reduce_cost_monotonically() {
        let (mut cluster, traffic) = fixture(1);
        let mut ring = TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), 32);
        let model = ring.engine().cost_model().clone();
        let mut last = model.total_cost(cluster.allocation(), &traffic, cluster.topo());
        let initial = last;
        for _ in 0..4 {
            ring.run_iteration(&mut cluster, &traffic);
            let now = model.total_cost(cluster.allocation(), &traffic, cluster.topo());
            assert!(now <= last + 1e-9, "cost must never increase");
            last = now;
        }
        assert!(
            last < initial,
            "S-CORE should find improvements on a random placement"
        );
    }

    #[test]
    fn migration_ratio_plummets() {
        // The Fig. 2 property: after the first couple of iterations almost
        // nobody migrates any more.
        let (mut cluster, traffic) = fixture(2);
        let mut ring = TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), 32);
        let stats = ring.run_iterations(5, &mut cluster, &traffic);
        assert_eq!(stats.len(), 5);
        assert!(stats[0].migrations >= 1);
        let late: usize = stats[3].migrations + stats[4].migrations;
        assert!(
            late <= stats[0].migrations,
            "late iterations ({late}) should migrate no more than the first ({})",
            stats[0].migrations
        );
        assert_eq!(stats[4].migrations, 0, "converged by the fifth iteration");
    }

    #[test]
    fn hlf_converges_too() {
        let (mut cluster, traffic) = fixture(3);
        let mut ring = TokenRing::new(ScoreEngine::paper_default(), HighestLevelFirst::new(), 32);
        let model = ring.engine().cost_model().clone();
        let initial = model.total_cost(cluster.allocation(), &traffic, cluster.topo());
        let stats = ring.run_iterations(5, &mut cluster, &traffic);
        let final_cost = model.total_cost(cluster.allocation(), &traffic, cluster.topo());
        assert!(final_cost < initial);
        assert!(stats[4].migration_ratio() < 0.1);
    }

    #[test]
    fn gains_match_cost_drop() {
        let (mut cluster, traffic) = fixture(4);
        let mut ring = TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), 32);
        let model = ring.engine().cost_model().clone();
        let before = model.total_cost(cluster.allocation(), &traffic, cluster.topo());
        let stats = ring.run_iteration(&mut cluster, &traffic);
        let after = model.total_cost(cluster.allocation(), &traffic, cluster.topo());
        assert!(
            (before - after - stats.total_gain).abs() < 1e-6 * before.max(1.0),
            "sum of Lemma-3 gains must equal the total cost drop"
        );
    }

    #[test]
    fn step_outcome_chain() {
        let (mut cluster, traffic) = fixture(5);
        let mut ring = TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), 32);
        let o1 = ring.step(&mut cluster, &traffic).unwrap();
        assert_eq!(o1.holder, VmId::new(0));
        assert_eq!(o1.next, Some(VmId::new(1)));
        let o2 = ring.step(&mut cluster, &traffic).unwrap();
        assert_eq!(o2.holder, VmId::new(1));
    }

    #[test]
    fn ledgered_steps_track_full_recomputation() {
        let (mut cluster, traffic) = fixture(10);
        let mut ring = TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), 32);
        let model = ring.engine().cost_model().clone();
        let mut ledger = crate::CostLedger::new(
            model.clone(),
            cluster.allocation(),
            &traffic,
            cluster.topo(),
        );
        for _ in 0..64 {
            let Some(outcome) = ring.step_ledgered_outlook(
                &mut cluster,
                &traffic,
                &mut ledger,
                &OutlookContext::reactive(),
            ) else {
                break;
            };
            assert_eq!(outcome.applied_delta(), -outcome.decision.gain);
        }
        let fresh = model.total_cost(cluster.allocation(), &traffic, cluster.topo());
        assert!(
            (ledger.current() - fresh).abs() <= 1e-9 * fresh.max(1.0),
            "ledger {} vs fresh {}",
            ledger.current(),
            fresh
        );
    }

    #[test]
    fn empty_ring_terminates() {
        let mut ring = TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), 0);
        let (mut cluster, traffic) = fixture(6);
        assert!(ring.holder().is_none());
        assert!(ring.step(&mut cluster, &traffic).is_none());
        let stats = ring.run_iteration(&mut cluster, &traffic);
        assert_eq!(stats.steps, 0);
        assert_eq!(stats.migration_ratio(), 0.0);
    }

    #[test]
    fn churn_add_and_remove_vms_mid_run() {
        let (mut cluster, traffic) = fixture(8);
        let mut ring = TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), 32);
        // Run half an iteration, then remove the current holder and a
        // bystander; the ring must keep functioning.
        for _ in 0..16 {
            ring.step(&mut cluster, &traffic);
        }
        let holder = ring.holder().unwrap();
        assert!(ring.remove_vm(holder));
        assert!(ring.remove_vm(VmId::new(0)));
        assert!(!ring.remove_vm(VmId::new(0)), "double removal is a no-op");
        assert_ne!(ring.holder(), Some(holder));
        assert_eq!(ring.token().len(), 30);
        // Re-adding restores membership and the ring still converges.
        assert!(ring.add_vm(VmId::new(0)));
        assert!(!ring.add_vm(VmId::new(0)));
        let stats = ring.run_iteration(&mut cluster, &traffic);
        assert_eq!(stats.steps, 31);
        assert!(cluster.allocation().is_consistent());
    }

    #[test]
    fn token_loss_recovery_preserves_convergence() {
        // Failure injection: lose the token twice mid-run; the regenerated
        // soft state must not prevent convergence or corrupt the cluster.
        let (mut cluster, traffic) = fixture(12);
        let model = CostModel::paper_default();
        let initial = model.total_cost(cluster.allocation(), &traffic, cluster.topo());
        let mut ring = TokenRing::new(ScoreEngine::paper_default(), HighestLevelFirst::new(), 32);
        for burst in 0..3 {
            for _ in 0..20 {
                ring.step(&mut cluster, &traffic);
            }
            if burst < 2 {
                ring.regenerate_token();
                assert_eq!(ring.holder(), Some(VmId::new(0)));
                assert!(ring
                    .token()
                    .entries()
                    .iter()
                    .all(|e| e.level == score_topology::Level::ZERO));
            }
        }
        ring.run_iterations(4, &mut cluster, &traffic);
        let final_cost = model.total_cost(cluster.allocation(), &traffic, cluster.topo());
        assert!(final_cost < initial);
        assert!(cluster.allocation().is_consistent());

        // And the regenerated ring converges to the same cost as an
        // undisturbed one (the allocation state is what matters; token
        // state is soft).
        let (mut cluster2, _) = fixture(12);
        let mut ring2 = TokenRing::new(ScoreEngine::paper_default(), HighestLevelFirst::new(), 32);
        ring2.run_iterations(6, &mut cluster2, &traffic);
        let undisturbed = model.total_cost(cluster2.allocation(), &traffic, cluster2.topo());
        assert!(
            final_cost <= undisturbed * 1.5 + 1e-9,
            "token loss must not wreck convergence: {final_cost} vs {undisturbed}"
        );
    }

    #[test]
    fn removing_last_vm_empties_ring() {
        let (mut cluster, traffic) = fixture(9);
        let mut ring = TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), 1);
        assert_eq!(ring.holder(), Some(VmId::new(0)));
        assert!(ring.remove_vm(VmId::new(0)));
        assert!(ring.holder().is_none());
        assert!(ring.step(&mut cluster, &traffic).is_none());
        // An arrival restarts the ring.
        assert!(ring.add_vm(VmId::new(0)));
        assert_eq!(ring.holder(), Some(VmId::new(0)));
    }

    #[test]
    fn capacity_is_never_violated() {
        let (mut cluster, traffic) = fixture(7);
        let slots = cluster.server_spec().vm_slots as usize;
        let mut ring = TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), 32);
        ring.run_iterations(3, &mut cluster, &traffic);
        for s in cluster.topo().servers() {
            assert!(cluster.allocation().occupancy(s) <= slots);
        }
        assert!(cluster.allocation().is_consistent());
    }
}
