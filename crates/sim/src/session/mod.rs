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
//! session lives in `traffic` (TM deltas, scales, trace segments),
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
use score_core::{
    Cluster, CostLedger, CostModel, IterationStats, OutlookContext, ScoreEngine, StepOutcome,
    TokenRing,
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
    /// The report accumulators of the current segment.
    seg: SegmentRecord,
    /// The current segment's delta batches, on the event clock as the
    /// queue's shift run, and the index of the next one to fire.
    shifts: ShiftRun,
    next_shift: usize,
    /// Staging buffers of the sparse delta path.
    delta_scratch: DeltaScratch,
    /// Trace segments after the current one (`WorkloadSpec::Trace` with
    /// phase markers); advanced by [`Session::advance_trace_segment`].
    trace_segments: VecDeque<TraceSegment>,
    /// Index of the current segment (segment *i* reseeds ring and RNG
    /// with `scenario.seed + i`).
    segment_index: u64,
    /// The short-horizon rate forecaster feeding every decision outlook
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
    /// mid-run would force a ledger resync, which the adversity engine
    /// refuses to pay).
    degraded_tiers: BTreeMap<u32, f64>,
    /// Attached observability (disabled by default); see
    /// [`Session::attach_obs`].
    obs: Option<SessionObs>,
}

/// Everything a report reads that restarts with the segment. One
/// `Default` value, so materialization and a rebind are each a single
/// assignment and cannot drift apart. The physical state — allocation,
/// down hosts, degraded tiers — carries over with the cluster instead.
#[derive(Debug, Default)]
struct SegmentRecord {
    cost_series: Vec<(f64, f64)>,
    migrations: Vec<MigrationEvent>,
    iterations: Vec<IterationStats>,
    current_iter: IterationStats,
    token_holds: usize,
    /// Rebind bookkeeping for the current segment's report.
    trace_stats: TraceReplayStats,
    /// Pre-empted-vs-reactive migration counts for the current report.
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

impl SegmentRecord {
    /// Seconds from the last fault to the last migration at or after it
    /// (0 until both have happened).
    fn time_to_stable_s(&self) -> f64 {
        match (self.last_fault_s, self.last_post_fault_migration_s) {
            (Some(fault), Some(migration)) => (migration - fault).max(0.0),
            _ => 0.0,
        }
    }
}

/// `scenario`'s token ring over `num_vms` VMs with its policy seeded by
/// `seed` — one recipe for materialization and every segment rebind.
fn build_ring(scenario: &Scenario, model: &CostModel, seed: u64, num_vms: u32) -> TokenRing {
    let engine = ScoreEngine::new(model.clone(), scenario.engine.score());
    TokenRing::with_boxed(engine, scenario.policy.build(seed), num_vms)
}

impl Session {
    /// Builds a session for a compiled time-varying trace: the first
    /// segment's TM and duration become the session's workload and
    /// horizon, its delta batches are scheduled on the event clock, and
    /// the remaining segments queue up behind
    /// [`Session::advance_trace_segment`].
    pub(crate) fn materialize_trace(
        scenario: Scenario,
        topo: Arc<dyn Topology>,
        compiled: CompiledTrace,
    ) -> Result<Self, ScenarioError> {
        let mut segments: VecDeque<TraceSegment> = compiled.segments.into();
        let Some(first) = segments.pop_front() else {
            return Err(ScenarioError::Workload(
                "trace compiles to no segments".into(),
            ));
        };
        let mut session =
            Session::materialize(scenario, topo, first.initial.clone(), Some(&first))?;
        session.load_shifts(first.shifts);
        session.trace_segments = segments;
        Ok(session)
    }

    /// Builds the session from a scenario plus an already-materialized
    /// fabric and workload (called by [`Scenario::session`] /
    /// [`Scenario::session_with`]); `segment` is the trace segment the
    /// workload opens, when it is one.
    pub(crate) fn materialize(
        scenario: Scenario,
        topo: Arc<dyn Topology>,
        traffic: PairTraffic,
        segment: Option<&TraceSegment>,
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
        scenario.resources.validate(traffic.num_vms())?;
        let server_spec = scenario.resources.server;
        let capacity = topo.num_servers() as u64 * u64::from(server_spec.vm_slots);
        if u64::from(traffic.num_vms()) > capacity {
            return Err(ScenarioError::Placement(format!(
                "{} VMs exceed {} servers x {} slots",
                traffic.num_vms(),
                topo.num_servers(),
                server_spec.vm_slots
            )));
        }
        let alloc = scenario.placement.build(
            traffic.num_vms(),
            topo.num_servers() as u32,
            server_spec.vm_slots,
            scenario.workload.seed(),
        );
        let cluster = Cluster::with_vm_specs(
            Arc::clone(&topo),
            server_spec,
            scenario.resources.vm_specs(traffic.num_vms()),
            &traffic,
            alloc,
        )?;
        let model = CostModel::new(scenario.engine.weights());
        let ring = build_ring(&scenario, &model, scenario.seed, traffic.num_vms());
        let mut ledger = model.ledger(cluster.allocation(), &traffic, cluster.topo());
        // Per-rack/zone cost partials ride along for hierarchical
        // observability; the ledger's authoritative total (and thus
        // every reported cost) keeps its own byte-identical arithmetic.
        ledger.enable_sharding(cluster.allocation(), &traffic, cluster.topo());

        let mut session = Session {
            horizon_s: segment.map_or(scenario.timing.t_end_s, |s| s.duration_s),
            precopy: PreCopyModel::new(scenario.engine.precopy()),
            background: scenario.engine.background(),
            rng: StdRng::seed_from_u64(scenario.seed),
            forecaster: SessionForecaster::build(&scenario.forecast, &traffic, segment),
            scenario,
            topo,
            traffic,
            cluster,
            model,
            ring,
            queue: EventQueue::new(),
            finished: false,
            initial_cost: ledger.current(),
            ledger,
            seg: SegmentRecord::default(),
            shifts: ShiftRun::default(),
            next_shift: 0,
            delta_scratch: DeltaScratch::default(),
            trace_segments: VecDeque::new(),
            segment_index: 0,
            recording: Recording::default(),
            token_event_pending: false,
            degraded_tiers: BTreeMap::new(),
            obs: None,
        };
        session.prime_queue();
        Ok(session)
    }

    fn prime_queue(&mut self) {
        self.queue.schedule_at(self.queue.now_s(), SimEvent::Sample);
        self.queue.schedule_in(
            self.scenario.timing.token_hold_s.max(1e-6),
            SimEvent::TokenArrive,
        );
        self.token_event_pending = true;
        self.queue.schedule_at(self.horizon_s, SimEvent::End);
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
                        self.seg.recovery.slo_violating_s += self.scenario.timing.sample_interval_s;
                    }
                    self.publish_obs(t);
                    // O(1): the ledger already knows C_A — no Eq.-(2)
                    // walk on the sampling path.
                    self.seg.cost_series.push((t, self.ledger.current()));
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
                    // Every decision flows through an outlook; without a
                    // forecaster it is the reactive one and this is the
                    // paper pipeline, bit for bit.
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
                    self.seg.token_holds += 1;
                    self.seg.current_iter.steps += 1;
                    if let Some(target) = outcome.decision.target {
                        if outcome.decision.preemptive {
                            self.seg.forecast_stats.preempted += 1;
                        } else {
                            self.seg.forecast_stats.reactive += 1;
                        }
                        if self.seg.last_fault_s.is_some() {
                            self.seg.last_post_fault_migration_s = Some(t);
                        }
                        let sample = self.precopy.migrate(self.background, &mut self.rng);
                        self.seg.migrations.push(MigrationEvent {
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
                        self.seg.current_iter.migrations += 1;
                        self.seg.current_iter.total_gain += outcome.decision.gain;
                        self.queue
                            .schedule_in(sample.total_time_s, SimEvent::MigrationComplete);
                    }
                    if self.seg.current_iter.steps as u32 >= self.traffic.num_vms() {
                        self.seg.iterations.push(self.seg.current_iter);
                        self.seg.current_iter = IterationStats::default();
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
        let start = self.seg.iterations.len();
        let goal = start + iterations;
        while self.seg.iterations.len() < goal && self.step().is_some() {}
        self.seg.iterations[start..].to_vec()
    }

    /// Runs until the simulation horizon.
    pub fn run_to_horizon(&mut self) {
        while self.step().is_some() {}
    }

    /// Takes the unified report of everything run so far. Can be called
    /// at any point (before, during, after the horizon); the final cost
    /// and the link-utilization snapshot reflect the current placement.
    pub fn report(&self) -> RunReport {
        let mut iterations = self.seg.iterations.clone();
        if self.seg.current_iter.steps > 0 {
            iterations.push(self.seg.current_iter);
        }
        let migration_ratios = iterations
            .iter()
            .map(IterationStats::migration_ratio)
            .collect();
        RunReport {
            topology: self.topo.name().to_string(),
            policy: self.scenario.policy.name().to_string(),
            cost_series: self.seg.cost_series.clone(),
            initial_cost: self.initial_cost,
            final_cost: self.current_cost(),
            migrations: self.seg.migrations.clone(),
            iterations,
            migration_ratios,
            token_holds: self.seg.token_holds,
            level_breakdown: score_core::level_breakdown(
                self.cluster.allocation(),
                &self.traffic,
                self.cluster.topo(),
            ),
            link_utilization: UtilizationSnapshot::capture(&self.cluster, &self.traffic),
            flow_table: FlowTableOps {
                aggregations: self.seg.token_holds as u64,
                rule_updates: 2 * self.seg.migrations.len() as u64,
            },
            trace: self.seg.trace_stats,
            forecast: self.forecast_stats(),
            recovery: self.recovery_stats(),
        }
    }

    /// Recovery accounting so far: the segment's fault/evacuation
    /// accumulators plus the live hosts-down count and the
    /// time-to-stable. All zeros for a fault-free run.
    fn recovery_stats(&self) -> RecoveryStats {
        RecoveryStats {
            hosts_down: self.cluster.num_hosts_down(),
            time_to_stable_s: self.seg.time_to_stable_s(),
            ..self.seg.recovery
        }
    }

    /// Pre-empted-vs-reactive migration counts accumulated since the
    /// last rebind (all-reactive without an active forecast), plus the
    /// per-pair forecast-error surface (MAE/bias of predicted vs
    /// realized rates).
    fn forecast_stats(&self) -> ForecastStats {
        let mut stats = self.seg.forecast_stats;
        let (n, abs_sum, sum) = self.seg.forecast_err;
        stats.error_samples = n;
        if n > 0 {
            stats.mae = abs_sum / n as f64;
            stats.bias = sum / n as f64;
        }
        stats
    }

    /// Number of full-pass ledger resyncs paid so far: always 0. No
    /// `&mut Cluster` leaves a session, so every change to the placement
    /// or the TM reaches the ledger as a Lemma-3 delta, a sparse
    /// re-price or a scale, and nothing calls `CostLedger::resync`. Kept
    /// because the benchmark's audit and the suites assert it.
    pub fn ledger_resyncs(&self) -> u64 {
        self.ledger.resyncs()
    }

    /// Absolute drift between the merged shard sample and the
    /// authoritative ledger total (pinned ≤ 1e-9 relative by tests).
    pub fn shard_drift(&self) -> f64 {
        self.ledger.shard_drift()
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
