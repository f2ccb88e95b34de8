//! A [`Session`] is a materialized, running scenario: the cluster, the
//! token ring (policy selected at runtime), the discrete-event clock and
//! the report accumulators, advanced by [`Session::step`] /
//! [`Session::run`] / [`Session::run_to_horizon`] and observed through
//! [`Session::report`].
//!
//! The simulated-time semantics are the paper's §VI setup: each token
//! hold costs decision time, token passing costs network latency, and
//! every accepted migration samples the pre-copy model for its duration,
//! bytes and downtime (the wall-clock x-axis of Fig. 3d–i and Fig. 4b).
//!
//! A session owns its state: no `&mut Cluster` leaves it, so the cost
//! ledger is exact because nothing else can move a VM. This file holds
//! that state, the event loop and the report; what changes a running
//! session lives in `traffic` (TM deltas, scales, compiled traces),
//! `churn` (VM arrivals and departures), `faults` (the adversity engine
//! and raw trace-event dispatch) and `recording` (trace capture, obs
//! publishing).

mod churn;
mod faults;
mod recording;
mod traffic;

pub use faults::FaultOutcome;

use rand::rngs::StdRng;
use rand::SeedableRng;
use score_baselines::random_placement;
use score_core::{
    Cluster, CostLedger, CostModel, IterationStats, LinkLoadMap, OutlookContext, ScoreEngine,
    StepOutcome, TokenRing,
};
use score_topology::{Topology, VmId};
use score_trace::{CompiledTrace, ShiftRun, TraceSegment};
use score_traffic::{CbrLoad, PairTraffic};
use score_xen::PreCopyModel;

use crate::events::{EventQueue, SimEvent};
use crate::metrics::UtilizationSnapshot;
use crate::report::{
    FlowTableOps, ForecastStats, MigrationEvent, RecoveryStats, RunReport, TraceReplayStats,
};
use crate::spec::{ForecastSpec, Scenario, ScenarioError, WorkloadSpec};
use recording::{Recording, SessionObs};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use traffic::{DeltaScratch, SessionForecaster};

/// A running S-CORE experiment (see the module docs).
#[derive(Debug)]
pub struct Session {
    scenario: Scenario,
    topo: Arc<dyn Topology>,
    traffic: PairTraffic,
    cluster: Cluster,
    model: CostModel,
    ring: TokenRing,
    precopy: PreCopyModel,
    background: CbrLoad,
    rng: StdRng,
    queue: EventQueue,
    horizon_s: f64,
    finished: bool,
    /// Incrementally maintained Eq.-(2) cost: initialized with one full
    /// pass, then fed each accepted migration's Lemma-3 delta, so sample
    /// ticks read `C_A` in `O(1)` instead of re-walking all VM pairs.
    ledger: CostLedger,
    initial_cost: f64,
    /// The report accumulators of the run.
    tally: RunTally,
    /// A trace workload's delta batches, on the event clock as the
    /// queue's shift run, and the index of the next one to fire.
    shifts: ShiftRun,
    next_shift: usize,
    /// Staging buffers of the sparse delta path.
    delta_scratch: DeltaScratch,
    /// The short-horizon rate forecaster feeding every decision
    /// at `scenario.forecast`'s horizon (`None` = reactive pipeline).
    forecaster: Option<SessionForecaster>,
    /// Trace capture (off by default); see
    /// [`Session::start_trace_recording`].
    recording: Recording,
    /// True while a `TokenArrive` event sits in the queue (or is being
    /// handled). The token chain dies when the ring empties; a live
    /// placement into an empty ring must revive it with a fresh event —
    /// but only if no stale one is still in flight, or the ring would
    /// circulate twice per hold ever after.
    token_event_pending: bool,
    /// Link tiers currently degraded (`tier → factor`). Tier 0 also
    /// scales the cluster's NIC admission capacity; higher tiers are
    /// tracked for SLO accounting only (re-weighting the cost model
    /// mid-run would need a full Eq.-(2) re-pricing of the ledger, which
    /// the adversity engine refuses to pay).
    degraded_tiers: BTreeMap<u32, f64>,
    /// Attached observability (disabled by default); see
    /// [`Session::attach_obs`].
    obs: Option<SessionObs>,
}

/// Everything a report reads that the run accumulates; the physical
/// state — allocation, down hosts, degraded tiers — lives in the cluster
/// instead.
#[derive(Debug, Default)]
struct RunTally {
    cost_series: Vec<(f64, f64)>,
    migrations: Vec<MigrationEvent>,
    iterations: Vec<IterationStats>,
    current_iter: IterationStats,
    token_holds: usize,
    /// Delta batches applied and pairs they re-priced.
    trace_stats: TraceReplayStats,
    /// Pre-empted-vs-reactive migration counts.
    forecast_stats: ForecastStats,
    /// Pending horizon evaluations of the forecaster: `(due_s, u, v,
    /// predicted)` queued when a delta batch landed, settled against the
    /// realized rate once the clock passes `due_s`. Empty without an
    /// active nonzero-horizon forecast.
    forecast_evals: VecDeque<(f64, VmId, VmId, f64)>,
    /// Running error sums behind `ForecastStats::{mae,bias}`:
    /// `(samples, Σ|err|, Σ err)`.
    forecast_err: (u64, f64, f64),
    /// Recovery accumulators of the adversity engine (fault counts,
    /// evacuations, SLO seconds); `hosts_down` and `time_to_stable_s`
    /// are derived live at [`Session::report`] time.
    recovery: RecoveryStats,
    /// Event-clock time of the most recent injected fault.
    last_fault_s: Option<f64>,
    /// Event-clock time of the last migration (forced or Theorem-1) at
    /// or after the last fault — `time_to_stable_s`'s right edge.
    last_post_fault_migration_s: Option<f64>,
}

impl RunTally {
    /// Seconds from the last fault to the last migration at or after it
    /// (0 until both have happened).
    fn time_to_stable_s(&self) -> f64 {
        match (self.last_fault_s, self.last_post_fault_migration_s) {
            (Some(fault), Some(migration)) => (migration - fault).max(0.0),
            _ => 0.0,
        }
    }
}

impl Session {
    /// Builds a session for a compiled time-varying trace: the run's
    /// initial TM and duration become the session's workload and
    /// horizon, and its delta batches are scheduled on the event clock.
    pub(crate) fn materialize_trace(
        scenario: Scenario,
        topo: Arc<dyn Topology>,
        mut compiled: CompiledTrace,
    ) -> Result<Self, ScenarioError> {
        let Some(run) = compiled.segments.pop() else {
            return Err(ScenarioError::Workload("trace compiles to no run".into()));
        };
        let mut session = Session::materialize(scenario, topo, run.initial.clone(), Some(&run))?;
        session.load_shifts(run.shifts);
        Ok(session)
    }

    /// Builds the session from a scenario plus an already-materialized
    /// fabric and workload (called by [`Scenario::session`] /
    /// [`Scenario::session_with`]); `run` is the compiled trace the
    /// workload comes from, when it is one.
    pub(crate) fn materialize(
        scenario: Scenario,
        topo: Arc<dyn Topology>,
        traffic: PairTraffic,
        run: Option<&TraceSegment>,
    ) -> Result<Self, ScenarioError> {
        scenario.timing.validate()?;
        scenario.engine.validate()?;
        scenario.forecast.validate()?;
        if matches!(scenario.forecast, ForecastSpec::TraceOracle { .. })
            && !matches!(scenario.workload, WorkloadSpec::Trace { .. })
        {
            return Err(ScenarioError::Engine(
                "the trace-oracle forecast needs a trace workload to read ahead into".into(),
            ));
        }
        scenario.resources.validate()?;
        let (server, vm) = (scenario.resources.server, scenario.resources.vm);
        let (per_server, _) = server.vm_capacity(&vm);
        if u64::from(traffic.num_vms()) > topo.num_servers() as u64 * u64::from(per_server) {
            return Err(ScenarioError::Placement(format!(
                "{} VMs exceed {} servers x {per_server} VMs",
                traffic.num_vms(),
                topo.num_servers(),
            )));
        }
        // The paper's traffic-agnostic initial placement (§III).
        let alloc = random_placement(
            traffic.num_vms(),
            topo.num_servers() as u32,
            per_server,
            &mut StdRng::seed_from_u64(scenario.workload.seed() ^ 0x9e37_79b9_7f4a_7c15),
        );
        let cluster = Cluster::new(Arc::clone(&topo), server, vm, &traffic, alloc)?;
        let model = CostModel::new(scenario.engine.weights());
        let engine = ScoreEngine::new(model.clone(), scenario.engine.score());
        let ring = TokenRing::with_boxed(
            engine,
            scenario.policy.build(scenario.seed),
            traffic.num_vms(),
        );
        let ledger = model.ledger(cluster.allocation(), &traffic, cluster.topo());
        let horizon_s = run.map_or(scenario.timing.t_end_s, |run| run.duration_s);
        let mut queue = EventQueue::new();
        queue.schedule_at(0.0, SimEvent::Sample);
        queue.schedule_in(
            scenario.timing.token_hold_s.max(1e-6),
            SimEvent::TokenArrive,
        );
        queue.schedule_at(horizon_s, SimEvent::End);

        Ok(Session {
            horizon_s,
            precopy: PreCopyModel::new(scenario.engine.precopy()),
            background: scenario.engine.background(),
            rng: StdRng::seed_from_u64(scenario.seed),
            forecaster: SessionForecaster::build(&scenario.forecast, &traffic, run),
            scenario,
            topo,
            traffic,
            cluster,
            model,
            ring,
            queue,
            finished: false,
            initial_cost: ledger.current(),
            ledger,
            tally: RunTally::default(),
            shifts: ShiftRun::default(),
            next_shift: 0,
            delta_scratch: DeltaScratch::default(),
            recording: Recording::default(),
            token_event_pending: true,
            degraded_tiers: BTreeMap::new(),
            obs: None,
        })
    }

    /// The scenario this session materializes.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The fabric.
    pub fn topo(&self) -> &Arc<dyn Topology> {
        &self.topo
    }

    /// The pairwise VM traffic currently offered.
    pub fn traffic(&self) -> &PairTraffic {
        &self.traffic
    }

    /// The cluster state.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// Current simulated time in seconds.
    pub fn now_s(&self) -> f64 {
        self.queue.now_s()
    }

    /// Eq.-(2) cost of the placement at materialization time.
    pub fn initial_cost(&self) -> f64 {
        self.initial_cost
    }

    /// Eq.-(2) cost of the current placement — read from the
    /// incremental ledger in `O(1)`.
    pub fn current_cost(&self) -> f64 {
        self.ledger.current()
    }

    /// True once the simulation horizon has been reached.
    pub fn horizon_reached(&self) -> bool {
        self.finished
    }

    /// Advances simulated time until one token hold completes, returning
    /// its outcome. Returns `None` once the horizon is reached (or the
    /// ring has no holder left).
    pub fn step(&mut self) -> Option<StepOutcome> {
        if self.finished {
            return None;
        }
        while let Some((t, event)) = self.queue.pop() {
            match event {
                SimEvent::End => {
                    self.finished = true;
                    return None;
                }
                SimEvent::Sample => {
                    self.settle_forecast_evals(t);
                    // SLO accounting: a tick taken while any host is
                    // down or any link tier degraded charges one sample
                    // interval of violation time.
                    if self.cluster.num_hosts_down() > 0 || !self.degraded_tiers.is_empty() {
                        self.tally.recovery.slo_violating_s +=
                            self.scenario.timing.sample_interval_s;
                    }
                    self.publish_obs(t);
                    // O(1): the ledger already knows C_A — no Eq.-(2)
                    // walk on the sampling path.
                    self.tally.cost_series.push((t, self.ledger.current()));
                    let next = t + self.scenario.timing.sample_interval_s;
                    if next <= self.horizon_s {
                        self.queue
                            .schedule_in(self.scenario.timing.sample_interval_s, SimEvent::Sample);
                    }
                }
                // The allocation already switched at decision time.
                SimEvent::MigrationComplete => {}
                SimEvent::TrafficShift => self.apply_next_shift(),
                SimEvent::TokenArrive => {
                    self.token_event_pending = false;
                    self.ring.set_obs_clock(t);
                    // Without a forecaster the context is the reactive
                    // one and this is the paper pipeline, bit for bit.
                    let ctx = match &self.forecaster {
                        Some(f) => {
                            let horizon_s = self.scenario.forecast.horizon_s();
                            OutlookContext::forecast(f.as_dyn(), t, horizon_s)
                        }
                        None => OutlookContext::reactive(),
                    };
                    let Some(outcome) = self.ring.step_ledgered_outlook(
                        &mut self.cluster,
                        &self.traffic,
                        &mut self.ledger,
                        &ctx,
                    ) else {
                        continue;
                    };
                    self.tally.token_holds += 1;
                    self.tally.current_iter.steps += 1;
                    if let Some(target) = outcome.decision.target {
                        if outcome.decision.preemptive {
                            self.tally.forecast_stats.preempted += 1;
                        } else {
                            self.tally.forecast_stats.reactive += 1;
                        }
                        if self.tally.last_fault_s.is_some() {
                            self.tally.last_post_fault_migration_s = Some(t);
                        }
                        let sample = self.precopy.migrate(self.background, &mut self.rng);
                        self.tally.migrations.push(MigrationEvent {
                            time_s: t,
                            vm: outcome.holder,
                            from: outcome.source,
                            to: target,
                            gain: outcome.decision.gain,
                            predicted_gain: outcome.decision.predicted_gain,
                            bytes: sample.migrated_bytes,
                            duration_s: sample.total_time_s,
                            downtime_s: sample.downtime_s,
                        });
                        self.tally.current_iter.migrations += 1;
                        self.tally.current_iter.total_gain += outcome.decision.gain;
                        self.queue
                            .schedule_in(sample.total_time_s, SimEvent::MigrationComplete);
                    }
                    // An iteration is |V| holds of the live membership.
                    if self.tally.current_iter.steps >= self.ring.token().len() {
                        self.tally.iterations.push(self.tally.current_iter);
                        self.tally.current_iter = IterationStats::default();
                    }
                    if outcome.next.is_some() {
                        self.queue.schedule_in(
                            self.scenario.timing.token_hold_s + self.scenario.timing.token_pass_s,
                            SimEvent::TokenArrive,
                        );
                        self.token_event_pending = true;
                    }
                    return Some(outcome);
                }
            }
        }
        self.finished = true;
        None
    }

    /// Runs `iterations` full iterations (each `|V|` token holds, the
    /// paper's unit of progress), stopping early at the horizon. Returns
    /// the per-iteration statistics newly completed during this call.
    pub fn run(&mut self, iterations: usize) -> Vec<IterationStats> {
        let start = self.tally.iterations.len();
        let goal = start + iterations;
        while self.tally.iterations.len() < goal && self.step().is_some() {}
        self.tally.iterations[start..].to_vec()
    }

    /// Runs until the simulation horizon.
    pub fn run_to_horizon(&mut self) {
        while self.step().is_some() {}
    }

    /// Takes the unified report of everything run so far. Can be called
    /// at any point (before, during, after the horizon); the final cost
    /// and the link-utilization snapshot reflect the current placement.
    pub fn report(&self) -> RunReport {
        let (level_breakdown, link_utilization) = self.placement_snapshot();
        let mut iterations = self.tally.iterations.clone();
        if self.tally.current_iter.steps > 0 {
            iterations.push(self.tally.current_iter);
        }
        let migration_ratios = iterations
            .iter()
            .map(IterationStats::migration_ratio)
            .collect();
        RunReport {
            topology: self.topo.name().to_string(),
            policy: self.scenario.policy.name().to_string(),
            cost_series: self.tally.cost_series.clone(),
            initial_cost: self.initial_cost,
            final_cost: self.current_cost(),
            migrations: self.tally.migrations.clone(),
            iterations,
            migration_ratios,
            token_holds: self.tally.token_holds,
            level_breakdown,
            link_utilization,
            flow_table: FlowTableOps {
                aggregations: self.tally.token_holds as u64,
                rule_updates: 2 * self.tally.migrations.len() as u64,
            },
            trace: self.tally.trace_stats,
            forecast: self.forecast_stats(),
            recovery: self.recovery_stats(),
        }
    }

    /// The current placement's level breakdown and per-tier link
    /// utilization, from one walk of the live pairs. The pair list is
    /// dropped before the CDF vectors are built, so a report never holds
    /// both.
    fn placement_snapshot(&self) -> (Vec<f64>, UtilizationSnapshot) {
        let (alloc, topo) = (self.cluster.allocation(), self.cluster.topo());
        let pairs = self.live_pairs();
        let breakdown = score_core::level_breakdown(alloc, &pairs, topo);
        let map = LinkLoadMap::compute(alloc, &pairs, topo);
        drop(pairs);
        (breakdown, UtilizationSnapshot::capture(&map))
    }

    /// Every live pair `(u, v, λ)`, `u < v`, in [`PairTraffic::pairs`]'
    /// canonical order, found in O(live VMs + live pairs) rather than by a
    /// walk over every id ever admitted: the token lists every live VM in
    /// ascending id order, and a departed VM keeps its id but no pair (its
    /// rates are zeroed before it leaves the ring, and a delta naming it is
    /// refused).
    fn live_pairs(&self) -> Vec<(VmId, VmId, f64)> {
        let mut pairs = Vec::with_capacity(self.traffic.num_pairs());
        for &u in self.ring.token().ids() {
            let above = self.traffic.peers(u).filter(|&(v, _)| v > u);
            pairs.extend(above.map(|(v, rate)| (u, v, rate)));
        }
        debug_assert!(
            pairs == self.traffic.pairs(),
            "a VM with live pairs is missing from the token"
        );
        pairs
    }

    /// Recovery accounting so far: the run's fault/evacuation
    /// accumulators plus the live hosts-down count and the
    /// time-to-stable. All zeros for a fault-free run.
    fn recovery_stats(&self) -> RecoveryStats {
        RecoveryStats {
            hosts_down: self.cluster.num_hosts_down(),
            time_to_stable_s: self.tally.time_to_stable_s(),
            ..self.tally.recovery
        }
    }

    /// Pre-empted-vs-reactive migration counts accumulated so far
    /// (all-reactive without an active forecast), plus the
    /// per-pair forecast-error surface (MAE/bias of predicted vs
    /// realized rates).
    fn forecast_stats(&self) -> ForecastStats {
        let mut stats = self.tally.forecast_stats;
        let (n, abs_sum, sum) = self.tally.forecast_err;
        stats.error_samples = n;
        if n > 0 {
            stats.mae = abs_sum / n as f64;
            stats.bias = sum / n as f64;
        }
        stats
    }

    /// Returns 0. The ledger has no full-pass resync any more; every
    /// change reaches it as a delta. Kept, with its old signature, only
    /// because the performance harness's `audit` still calls it
    /// (`benchmark/src/sim_workloads.rs`, `benchmark/src/daemon.rs`);
    /// ROADMAP item 5(d) deletes those calls and this method.
    #[doc(hidden)]
    pub fn ledger_resyncs(&self) -> u64 {
        0
    }

    /// Panics unless every account the session keeps agrees with its one
    /// TM: the cluster's ([`Cluster::check_invariants`]); the ledger's,
    /// within 1e-9 of a full Eq.-(2) pass relative to the larger of that
    /// pass and the peak sampled cost (a running sum keeps residue of the
    /// largest value it carried); and the token's, whose members are
    /// exactly the live VMs. O(pairs + VMs × degree):
    /// the property suites call it inside their step loops. Debug builds
    /// only, because the cluster's check is compiled into those alone.
    #[cfg(debug_assertions)]
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.cluster.check_invariants(&self.traffic);
        let (alloc, topo) = (self.cluster.allocation(), self.cluster.topo());
        let fresh = self.model.total_cost(alloc, &self.traffic, topo);
        let samples = self.tally.cost_series.iter().map(|&(_, cost)| cost);
        let peak = samples.fold(fresh.max(self.initial_cost), f64::max);
        let ledgered = self.ledger.current();
        assert!(
            (ledgered - fresh).abs() <= 1e-9 * peak,
            "ledger {ledgered} drifted from a full Eq.-(2) pass {fresh} (peak {peak})"
        );
        let token = self.ring.token();
        assert!(
            token.len() == self.cluster.num_active() as usize
                && token.ids().iter().all(|&vm| self.cluster.is_active(vm)),
            "the token's {} members are not the {} live VMs",
            token.len(),
            self.cluster.num_active()
        );
    }

    /// One [`Session::step`] if the next pending event fires at or
    /// before `bound_s`; false once nothing is due or the run has ended.
    fn step_if_due(&mut self, bound_s: f64) -> bool {
        self.queue.peek_time().is_some_and(|t| t <= bound_s) && self.step().is_some()
    }

    /// Steps while the next pending event fires at or before `t_s` — how
    /// a driver brings the clock up to an instant it is about to act at
    /// (a storm entry, a recorded mutation, a trace's end). Replaying a
    /// mutation recorded at a drained boundary `t` with `advance_to(t)`
    /// first pops exactly the events the live run had popped.
    pub fn advance_to(&mut self, t_s: f64) {
        while self.step_if_due(t_s) {}
    }

    /// Steps until every pending event lies **strictly after** the
    /// current instant, returning that instant — the only clock states
    /// where a live driver may apply cluster mutations. The bound moves:
    /// each step may advance the clock onto further due events. A
    /// mutation recorded at such a drained boundary `t` replays exactly:
    /// the events [`Session::advance_to`]`(t)` pops are precisely the
    /// events the live run popped before mutating, ties included
    /// (same-timestamp events can never straddle the boundary, because
    /// none are left pending at it).
    pub fn drain_to_boundary(&mut self) -> f64 {
        while self.step_if_due(self.queue.now_s()) {}
        self.queue.now_s()
    }
}

#[cfg(test)]
mod tests;
