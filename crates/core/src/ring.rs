//! The token ring: driving S-CORE over a whole VM population.
//!
//! [`TokenRing::step_ledgered_outlook`] is the one token hold: the holder
//! migrates if Theorem 1 says so, and the move's Lemma-3 delta is folded
//! into a [`CostLedger`], so no hold pays a full Eq.-(2) pass. One
//! *iteration* passes the token through `|V|` holders (for round-robin
//! this is exactly one sweep over the VM ids); `score_sim`'s
//! `Session::step` counts holds into the [`IterationStats`] whose
//! migration ratio Fig. 2 of the paper plots, plummeting after the
//! second iteration.

use score_obs::{Counter, DecisionTrace, Histogram, ObsEvent, ObsHandle};
use score_topology::VmId;
use score_traffic::PairTraffic;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::cluster::Cluster;
use crate::engine::{MigrationDecision, ScoreEngine};
use crate::ledger::CostLedger;
use crate::outlook::OutlookContext;
use crate::policy::TokenPolicy;
use crate::scratch::KernelScratch;
use crate::token::Token;
use crate::view::LocalView;

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
    /// The holder's view and the kernel's buffers, reused by every hold:
    /// a ring is single-threaded, so owning them here gives `Session`,
    /// the daemon's tenant engines and every `MatrixRunner` cell private
    /// ones for free.
    view: LocalView,
    kernel: KernelScratch,
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
            view: LocalView::default(),
            kernel: KernelScratch::new(),
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
    /// same instant (no departure protocol of their own).
    ///
    /// If the current token holder is among the dead, the token passes
    /// to its **deterministic survivor**: the first VM after the dead
    /// holder in token order that is not itself dead. Each dead VM simply
    /// departs ([`TokenRing::remove_vm`]): a departing holder hands the
    /// token to its successor, a dead successor hands it on when it
    /// departs in turn, and a live VM never departs, so the token stops
    /// at the first survivor whatever order the victims are listed in.
    /// The election is thus a pure function of the token order and the
    /// *set* of dead VMs, and concurrent fault reporters converge on the
    /// same successor no matter how their batches interleave. Ids that
    /// are not members, or are listed twice, are skipped.
    ///
    /// When no survivor exists the ring degrades gracefully: the holder
    /// becomes `None`, [`TokenRing::step_ledgered_outlook`] returns
    /// `None`, and iteration loops terminate instead of spinning on a
    /// dead membership. A later [`TokenRing::add_vm`] restarts the ring.
    ///
    /// Returns the post-failure holder.
    pub fn fail_vms(&mut self, dead: &[VmId]) -> Option<VmId> {
        for &vm in dead {
            self.remove_vm(vm);
        }
        self.holder
    }

    /// One token hold under `ctx` (see [`OutlookContext`]; pass
    /// [`OutlookContext::reactive`] for the paper pipeline bit for bit):
    /// decide from the holder's one local view, migrate if warranted,
    /// fold the step's applied cost delta into `ledger`, pass the token.
    /// The network-wide cost thus stays observable in `O(1)` without any
    /// Eq.-(2) recomputation. Both the migration decision and the
    /// next-holder choice read that view, whose peers carry their
    /// expected rates when the context forecasts; the context only ever
    /// *reads* its forecaster. For a pre-emptive migration the
    /// decision's `gain` is its *current-TM* delta (possibly ≤ 0), so
    /// the ledger stays exact even when the move only pays off at the
    /// forecast horizon. Returns `None` when no holder remains.
    pub fn step_ledgered_outlook(
        &mut self,
        cluster: &mut Cluster,
        traffic: &PairTraffic,
        ledger: &mut CostLedger,
        ctx: &OutlookContext<'_>,
    ) -> Option<StepOutcome> {
        let holder = self.holder?;
        let sw = self.obs.as_ref().map(|o| o.handle.stopwatch());
        let view = &mut self.view;
        view.observe_into(holder, cluster.allocation(), traffic, cluster.topo());
        ctx.fill_expected(view);
        let source = view.server;
        let decision = self.engine.decide(view, cluster, traffic, &mut self.kernel);
        if let Some(target) = decision.target {
            let threshold = self.engine.config().bandwidth_threshold;
            cluster
                .migrate(traffic, holder, target, threshold)
                .expect("decide() validated admission for the chosen target");
            // The policy sees the post-migration levels.
            view.relocate(target, cluster.topo());
        }
        let next = self.policy.next_holder(&mut self.token, holder, view);
        self.holder = next;
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
        ledger.apply_gain(decision.gain);
        Some(StepOutcome {
            holder,
            source,
            decision,
            next,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Allocation;
    use crate::policy::{HighestLevelFirst, RoundRobin};
    use crate::resources::{ServerSpec, VmSpec};
    use score_topology::{CanonicalTree, ServerId};
    use score_traffic::WorkloadConfig;
    use std::sync::Arc;

    /// A ring's cluster, TM and ledger, stepped reactively.
    struct Run {
        ring: TokenRing,
        cluster: Cluster,
        traffic: PairTraffic,
        ledger: CostLedger,
    }

    impl Run {
        fn new(seed: u64, policy: impl TokenPolicy + 'static, num_vms: u32) -> Self {
            let topo = Arc::new(CanonicalTree::small()); // 16 servers
            let traffic = WorkloadConfig::new(32, seed).generate();
            // Spread VMs round-robin across servers (a traffic-agnostic
            // initial placement).
            let alloc = Allocation::from_fn(32, 16, |vm| ServerId::new(vm.get() % 16));
            let cluster = Cluster::new(
                topo,
                ServerSpec::paper_default(),
                VmSpec::paper_default(),
                &traffic,
                alloc,
            )
            .unwrap();
            let ring = TokenRing::new(ScoreEngine::paper_default(), policy, num_vms);
            let model = ring.engine().cost_model();
            let ledger = model.ledger(cluster.allocation(), &traffic, cluster.topo());
            Run {
                ring,
                cluster,
                traffic,
                ledger,
            }
        }

        fn step(&mut self) -> Option<StepOutcome> {
            self.ring.step_ledgered_outlook(
                &mut self.cluster,
                &self.traffic,
                &mut self.ledger,
                &OutlookContext::reactive(),
            )
        }

        /// `|V|` holds of the membership at its start: one iteration.
        fn iteration(&mut self) -> IterationStats {
            let mut stats = IterationStats::default();
            for _ in 0..self.ring.token().len() {
                let Some(outcome) = self.step() else {
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

        /// A full Eq.-(2) pass, after asserting the ledger agrees with it.
        fn cost(&self) -> f64 {
            let model = self.ring.engine().cost_model();
            let (alloc, topo) = (self.cluster.allocation(), self.cluster.topo());
            let fresh = model.total_cost(alloc, &self.traffic, topo);
            let ledgered = self.ledger.current();
            assert!(
                (ledgered - fresh).abs() <= 1e-9 * fresh.max(1.0),
                "ledger {ledgered} vs fresh {fresh}"
            );
            fresh
        }
    }

    #[test]
    fn iterations_reduce_cost_monotonically() {
        let mut run = Run::new(1, RoundRobin::new(), 32);
        let mut last = run.cost();
        let initial = last;
        for _ in 0..4 {
            run.iteration();
            let now = run.cost();
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
        let mut run = Run::new(2, RoundRobin::new(), 32);
        let stats: Vec<IterationStats> = (0..5).map(|_| run.iteration()).collect();
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
        let mut run = Run::new(3, HighestLevelFirst::new(), 32);
        let initial = run.cost();
        let stats: Vec<IterationStats> = (0..5).map(|_| run.iteration()).collect();
        assert!(run.cost() < initial);
        assert!(stats[4].migration_ratio() < 0.1);
    }

    #[test]
    fn gains_match_cost_drop() {
        let mut run = Run::new(4, RoundRobin::new(), 32);
        let before = run.cost();
        let stats = run.iteration();
        let after = run.cost();
        assert!(
            (before - after - stats.total_gain).abs() < 1e-6 * before.max(1.0),
            "sum of Lemma-3 gains must equal the total cost drop"
        );
    }

    #[test]
    fn step_outcome_chain() {
        let mut run = Run::new(5, RoundRobin::new(), 32);
        let o1 = run.step().unwrap();
        assert_eq!(o1.holder, VmId::new(0));
        assert_eq!(o1.next, Some(VmId::new(1)));
        let o2 = run.step().unwrap();
        assert_eq!(o2.holder, VmId::new(1));
    }

    #[test]
    fn ledgered_steps_track_full_recomputation() {
        let mut run = Run::new(10, RoundRobin::new(), 32);
        for _ in 0..64 {
            let Some(outcome) = run.step() else {
                break;
            };
            assert_eq!(outcome.decision.applied_delta(), -outcome.decision.gain);
        }
        run.cost();
    }

    #[test]
    fn empty_ring_terminates() {
        let mut run = Run::new(6, RoundRobin::new(), 0);
        assert!(run.ring.holder().is_none());
        assert!(run.step().is_none());
        let stats = run.iteration();
        assert_eq!(stats.steps, 0);
        assert_eq!(stats.migration_ratio(), 0.0);
    }

    #[test]
    fn churn_add_and_remove_vms_mid_run() {
        let mut run = Run::new(8, RoundRobin::new(), 32);
        // Run half an iteration, then remove the current holder and a
        // bystander; the ring must keep functioning.
        for _ in 0..16 {
            run.step();
        }
        let ring = &mut run.ring;
        let holder = ring.holder().unwrap();
        assert!(ring.remove_vm(holder));
        assert!(ring.remove_vm(VmId::new(0)));
        assert!(!ring.remove_vm(VmId::new(0)), "double removal is a no-op");
        assert_ne!(ring.holder(), Some(holder));
        assert_eq!(ring.token().len(), 30);
        // Re-adding restores membership and the ring still converges.
        assert!(ring.add_vm(VmId::new(0)));
        assert!(!ring.add_vm(VmId::new(0)));
        let stats = run.iteration();
        assert_eq!(stats.steps, 31);
        assert!(run.cluster.allocation().is_consistent());
        run.cost();
    }

    #[test]
    fn removing_last_vm_empties_ring() {
        let mut run = Run::new(9, RoundRobin::new(), 1);
        assert_eq!(run.ring.holder(), Some(VmId::new(0)));
        assert!(run.ring.remove_vm(VmId::new(0)));
        assert!(run.ring.holder().is_none());
        assert!(run.step().is_none());
        // An arrival restarts the ring.
        assert!(run.ring.add_vm(VmId::new(0)));
        assert_eq!(run.ring.holder(), Some(VmId::new(0)));
    }

    #[test]
    fn capacity_is_never_violated() {
        let mut run = Run::new(7, RoundRobin::new(), 32);
        let slots = run.cluster.server_spec().vm_slots as usize;
        for _ in 0..3 {
            run.iteration();
        }
        for s in run.cluster.topo().servers() {
            assert!(run.cluster.allocation().occupancy(s) <= slots);
        }
        assert!(run.cluster.allocation().is_consistent());
    }
}
