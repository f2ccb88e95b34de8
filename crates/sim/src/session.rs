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

use rand::rngs::StdRng;
use rand::SeedableRng;
use score_core::{
    Cluster, ClusterError, CostLedger, CostModel, IterationStats, OutlookContext, ScoreEngine,
    StepOutcome, TokenRing,
};
use score_obs::ObsHandle;
use score_topology::{RackId, ServerId, Topology, VmId};
use score_trace::{
    scaled_rate, CompiledTrace, DeltaBatch, OracleForecaster, TimedEvent, Trace, TraceEvent,
    TraceRecorder, TraceSegment, TrafficDelta,
};
use score_traffic::{CbrLoad, EwmaForecaster, PairTraffic, RateForecaster};
use score_xen::PreCopyModel;

use crate::events::{EventQueue, SimEvent};
use crate::metrics::UtilizationSnapshot;
use crate::report::{
    FlowTableOps, ForecastStats, MigrationEvent, RecoveryStats, RunReport, TraceReplayStats,
};
use crate::spec::{ForecastSpec, Scenario, ScenarioError, WorkloadSpec};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// The session-owned forecaster: one of the two `RateForecaster`
/// implementations, kept as a concrete enum so the trace-driven variant
/// can be fed compiled segments (the trait has no lookahead-loading
/// surface — measurement-driven forecasters have nothing to load).
#[derive(Debug)]
enum SessionForecaster {
    /// Online EWMA linear-trend estimation over applied deltas.
    Ewma(EwmaForecaster),
    /// Exact lookahead into the compiled trace delta stream.
    Oracle(OracleForecaster),
}

impl SessionForecaster {
    fn as_dyn(&self) -> &dyn RateForecaster {
        match self {
            SessionForecaster::Ewma(f) => f,
            SessionForecaster::Oracle(f) => f,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn RateForecaster {
        match self {
            SessionForecaster::Ewma(f) => f,
            SessionForecaster::Oracle(f) => f,
        }
    }

    /// Hands a freshly bound trace segment to the oracle's lookahead
    /// index (no-op for measurement-driven forecasters).
    fn load_segment(&mut self, segment: &TraceSegment) {
        if let SessionForecaster::Oracle(f) = self {
            f.load_segment(segment);
        }
    }
}

/// Bound on forecasts awaiting their horizon (see
/// `Session::queue_forecast_evals`).
const MAX_FORECAST_EVALS: usize = 65_536;

/// One phase of a dynamic workload: a traffic pattern active for a
/// duration.
#[derive(Debug, Clone)]
pub struct TrafficPhase {
    /// How long this phase lasts, seconds.
    pub duration_s: f64,
    /// The pairwise loads during the phase.
    pub traffic: PairTraffic,
}

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
    /// Set when external code took `cluster_mut`/`split_mut` and may
    /// have moved VMs behind the ledger's back; the next sampled read
    /// resyncs with one full pass.
    ledger_dirty: bool,
    initial_cost: f64,
    cost_series: Vec<(f64, f64)>,
    migrations: Vec<MigrationEvent>,
    iterations: Vec<IterationStats>,
    current_iter: IterationStats,
    token_holds: usize,
    /// In-segment trace deltas not yet fired, FIFO-aligned with the
    /// `TrafficShift` events in the queue.
    pending_shifts: VecDeque<TrafficDelta>,
    /// Trace segments after the current one (`WorkloadSpec::Trace` with
    /// phase markers); advanced by [`Session::advance_trace_segment`].
    trace_segments: VecDeque<TraceSegment>,
    /// Index of the current segment (seeds segment reseeding like
    /// `run_phases` numbers its phases).
    segment_index: u64,
    /// Rebind bookkeeping for the current segment's report.
    trace_stats: TraceReplayStats,
    /// The short-horizon rate forecaster feeding every decision
    /// outlook (`None` = reactive pipeline).
    forecaster: Option<SessionForecaster>,
    /// Lookahead horizon in seconds (0 when reactive).
    forecast_horizon_s: f64,
    /// Pre-empted-vs-reactive migration counts for the current report.
    forecast_stats: ForecastStats,
    /// Captures applied TM deltas back into a replayable trace when
    /// recording is on.
    recorder: Option<TraceRecorder>,
    /// Recording clock: simulated seconds elapsed before the current
    /// segment/phase (the event clock restarts per rebind; the
    /// recorder's must not).
    recorder_offset_s: f64,
    /// True while a `TokenArrive` event sits in the queue (or is being
    /// handled). The token chain dies when the ring empties; a live
    /// placement into an empty ring must revive it with a fresh event —
    /// but only if no stale one is still in flight, or the ring would
    /// circulate twice per hold ever after.
    token_event_pending: bool,
    /// Pending horizon evaluations of the forecaster: `(due_s, u, v,
    /// predicted)` queued when a delta batch landed, settled against the
    /// realized rate once the clock passes `due_s`. Empty without an
    /// active nonzero-horizon forecast.
    forecast_evals: VecDeque<(f64, VmId, VmId, f64)>,
    /// Running error sums behind `ForecastStats::{mae,bias}`:
    /// `(samples, Σ|err|, Σ err)`, reset per segment like the rest of
    /// the report accumulators.
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

/// What one fault event did to the session (see
/// [`Session::apply_fault`]): which hosts went down, who was evacuated
/// where, and who could not be rehomed. Consequences are deterministic —
/// replaying the same fault against the same state reproduces this
/// outcome exactly, which is why traces record only the fault itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultOutcome {
    /// Servers newly marked down by this event (ascending id for rack
    /// sweeps; empty for link events and already-down hosts).
    pub hosts_failed: Vec<ServerId>,
    /// Forced evacuation migrations `(vm, target)` in the order they
    /// were applied (ascending VM id per failed host).
    pub evacuated: Vec<(VmId, ServerId)>,
    /// VMs retired because no live server could admit them.
    pub unplaceable: Vec<VmId>,
}

/// Pre-resolved session-level instruments. Counters mirror the in-state
/// accumulators (`trace_stats`, `forecast_err`) and are published at the
/// sampling cadence — the delta hot path itself never touches an atomic.
#[derive(Debug)]
struct SessionObs {
    handle: ObsHandle,
    /// `score_clock_s`: current event-clock position.
    clock: std::sync::Arc<score_obs::Gauge>,
    /// `score_trace_events_total`: applied delta batches.
    events: std::sync::Arc<score_obs::Counter>,
    /// `score_pairs_repriced_total`: pair rates re-priced.
    pairs: std::sync::Arc<score_obs::Counter>,
    /// `score_segment_advances_total`: trace-segment boundaries crossed.
    segments: std::sync::Arc<score_obs::Counter>,
    /// `score_segment_rebind_ns`: wall time of each phase rebind.
    rebind_ns: std::sync::Arc<score_obs::Histogram>,
    /// `score_forecast_evals_total`, `score_forecast_mae`,
    /// `score_forecast_bias`: the per-pair forecast-error surface.
    forecast_evals: std::sync::Arc<score_obs::Counter>,
    forecast_mae: std::sync::Arc<score_obs::Gauge>,
    forecast_bias: std::sync::Arc<score_obs::Gauge>,
    /// The `score_recovery_*` adversity series: fault/evacuation/
    /// unplaceable counters plus hosts-down, SLO-seconds and
    /// time-to-stable gauges.
    recovery_faults: std::sync::Arc<score_obs::Counter>,
    recovery_evacuations: std::sync::Arc<score_obs::Counter>,
    recovery_unplaceable: std::sync::Arc<score_obs::Counter>,
    recovery_hosts_down: std::sync::Arc<score_obs::Gauge>,
    recovery_slo: std::sync::Arc<score_obs::Gauge>,
    recovery_tts: std::sync::Arc<score_obs::Gauge>,
    /// Counter values already published (counters are monotonic; the
    /// in-state accumulators reset per segment, so we track the diff).
    published_events: u64,
    published_pairs: u64,
    published_evals: u64,
    published_faults: u64,
    published_evacuations: u64,
    published_unplaceable: u64,
}

impl SessionObs {
    fn build(handle: &ObsHandle) -> Option<Self> {
        if !handle.is_enabled() {
            return None;
        }
        Some(SessionObs {
            clock: handle.gauge("score_clock_s")?,
            events: handle.counter("score_trace_events_total")?,
            pairs: handle.counter("score_pairs_repriced_total")?,
            segments: handle.counter("score_segment_advances_total")?,
            rebind_ns: handle.histogram("score_segment_rebind_ns")?,
            forecast_evals: handle.counter("score_forecast_evals_total")?,
            forecast_mae: handle.gauge("score_forecast_mae")?,
            forecast_bias: handle.gauge("score_forecast_bias")?,
            recovery_faults: handle.counter("score_recovery_faults_total")?,
            recovery_evacuations: handle.counter("score_recovery_evacuations_total")?,
            recovery_unplaceable: handle.counter("score_recovery_unplaceable_total")?,
            recovery_hosts_down: handle.gauge("score_recovery_hosts_down")?,
            recovery_slo: handle.gauge("score_recovery_slo_violating_s")?,
            recovery_tts: handle.gauge("score_recovery_time_to_stable_s")?,
            published_events: 0,
            published_pairs: 0,
            published_evals: 0,
            published_faults: 0,
            published_evacuations: 0,
            published_unplaceable: 0,
            handle: handle.clone(),
        })
    }
}

impl Session {
    /// Builds the session from a scenario plus an already-materialized
    /// fabric and workload (called by [`Scenario::session`] /
    /// [`Scenario::session_with`]).
    pub(crate) fn materialize(
        scenario: Scenario,
        topo: Arc<dyn Topology>,
        traffic: PairTraffic,
    ) -> Result<Self, ScenarioError> {
        Session::materialize_inner(scenario, topo, traffic, None)
    }

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
            Session::materialize_inner(scenario, topo, first.initial.clone(), Some(&first))?;
        session.load_shifts(first.shifts);
        session.trace_segments = segments;
        Ok(session)
    }

    fn materialize_inner(
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
        let engine = ScoreEngine::new(model.clone(), scenario.engine.score());
        let ring = TokenRing::with_boxed(
            engine,
            scenario.policy.build(scenario.seed),
            traffic.num_vms(),
        );
        let precopy = PreCopyModel::new(scenario.engine.precopy());
        let background = scenario.engine.background();
        let rng = StdRng::seed_from_u64(scenario.seed);
        let mut ledger = model.ledger(cluster.allocation(), &traffic, cluster.topo());
        // Per-rack/zone cost partials ride along for hierarchical
        // observability; the ledger's authoritative total (and thus
        // every reported cost) keeps its own byte-identical arithmetic.
        ledger.enable_sharding(cluster.allocation(), &traffic, cluster.topo());
        let initial_cost = ledger.current();

        // An inactive spec (None or zero horizon) builds no forecaster
        // at all — the bit-compatibility contract, not an optimization.
        let forecast_horizon_s = scenario.forecast.horizon_s();
        let forecaster = match scenario.forecast {
            _ if !scenario.forecast.is_active() => None,
            ForecastSpec::Ewma { alpha, .. } => {
                let mut f = EwmaForecaster::new(alpha);
                f.prime(&traffic, 0.0);
                Some(SessionForecaster::Ewma(f))
            }
            ForecastSpec::TraceOracle { .. } => {
                let mut f = OracleForecaster::new();
                match segment {
                    Some(seg) => f.load_segment(seg),
                    None => f.prime(&traffic, 0.0),
                }
                Some(SessionForecaster::Oracle(f))
            }
            ForecastSpec::None => unreachable!("None is never active"),
        };

        let mut session = Session {
            horizon_s: segment.map_or(scenario.timing.t_end_s, |s| s.duration_s),
            scenario,
            topo,
            traffic,
            cluster,
            model,
            ring,
            precopy,
            background,
            rng,
            queue: EventQueue::new(),
            finished: false,
            ledger,
            ledger_dirty: false,
            initial_cost,
            cost_series: Vec::new(),
            migrations: Vec::new(),
            iterations: Vec::new(),
            current_iter: IterationStats {
                steps: 0,
                migrations: 0,
                total_gain: 0.0,
            },
            token_holds: 0,
            pending_shifts: VecDeque::new(),
            trace_segments: VecDeque::new(),
            segment_index: 0,
            trace_stats: TraceReplayStats::default(),
            forecaster,
            forecast_horizon_s,
            forecast_stats: ForecastStats::default(),
            recorder: None,
            recorder_offset_s: 0.0,
            token_event_pending: false,
            forecast_evals: VecDeque::new(),
            forecast_err: (0, 0.0, 0.0),
            recovery: RecoveryStats::default(),
            last_fault_s: None,
            last_post_fault_migration_s: None,
            degraded_tiers: BTreeMap::new(),
            obs: None,
        };
        session.prime_queue();
        Ok(session)
    }

    /// Schedules a segment's delta batches on the event clock (segment
    /// time starts at the queue's current zero). Batches at or past the
    /// horizon never fire and are dropped here.
    fn load_shifts(&mut self, shifts: Vec<DeltaBatch>) {
        for batch in shifts {
            if batch.at_s >= self.horizon_s {
                continue;
            }
            self.queue.schedule_at(batch.at_s, SimEvent::TrafficShift);
            self.pending_shifts.push_back(batch.delta);
        }
    }

    fn prime_queue(&mut self) {
        self.queue.schedule_at(self.queue.now_s(), SimEvent::Sample);
        self.queue.schedule_in(
            self.scenario.timing.token_hold_s.max(1e-6),
            SimEvent::TokenArrive {
                vm: self.ring.holder().unwrap_or(VmId::new(0)),
            },
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

    /// Mutable cluster access (for baselines like Remedy operating on
    /// the same materialized instance). Marks the cost ledger stale:
    /// the next sampled cost pays one full Eq.-(2) resync.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        self.ledger_dirty = true;
        &mut self.cluster
    }

    /// Mutable cluster access together with the traffic it serves
    /// (borrow-friendly form for `baseline.run(cluster, traffic)`).
    /// Marks the cost ledger stale, like [`Session::cluster_mut`].
    pub fn split_mut(&mut self) -> (&mut Cluster, &PairTraffic) {
        self.ledger_dirty = true;
        (&mut self.cluster, &self.traffic)
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
    /// incremental ledger in `O(1)`. Only if external code mutated the
    /// cluster (via [`Session::cluster_mut`] / [`Session::split_mut`])
    /// does this fall back to one full recomputation.
    pub fn current_cost(&self) -> f64 {
        if self.ledger_dirty {
            self.model.total_cost(
                self.cluster.allocation(),
                &self.traffic,
                self.cluster.topo(),
            )
        } else {
            self.ledger.current()
        }
    }

    /// Resyncs the ledger after external cluster mutation; `O(1)` when
    /// nothing external happened.
    fn freshen_ledger(&mut self) {
        if self.ledger_dirty {
            self.ledger.resync(
                self.cluster.allocation(),
                &self.traffic,
                self.cluster.topo(),
            );
            self.ledger_dirty = false;
        }
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
                    // O(1): the ledger already knows C_A — no Eq.-(2)
                    // walk on the sampling path.
                    self.freshen_ledger();
                    self.settle_forecast_evals(t);
                    // SLO accounting: a tick taken while any host is
                    // down or any link tier degraded charges one sample
                    // interval of violation time.
                    if self.cluster.num_hosts_down() > 0 || !self.degraded_tiers.is_empty() {
                        self.recovery.slo_violating_s += self.scenario.timing.sample_interval_s;
                    }
                    self.publish_obs(t);
                    let cost = self.ledger.current();
                    self.cost_series.push((t, cost));
                    let next = t + self.scenario.timing.sample_interval_s;
                    if next <= self.horizon_s {
                        self.queue
                            .schedule_in(self.scenario.timing.sample_interval_s, SimEvent::Sample);
                    }
                }
                SimEvent::MigrationComplete { .. } => {
                    // The allocation already switched at decision time; the
                    // completion event only orders bookkeeping for
                    // consumers interested in in-flight counts.
                }
                SimEvent::TrafficShift => {
                    match self.pending_shifts.pop_front() {
                        Some(TrafficDelta::Rates(updates)) => self.apply_traffic_deltas(&updates),
                        Some(TrafficDelta::ScaleAll(factor)) => self.apply_traffic_scale(factor),
                        None => continue,
                    }
                    .expect("trace deltas are validated at materialization");
                }
                SimEvent::TokenArrive { vm: _ } => {
                    self.token_event_pending = false;
                    self.freshen_ledger();
                    self.ring.set_obs_clock(t);
                    // Every decision flows through an outlook; without a
                    // forecaster it is the reactive one and this is the
                    // paper pipeline, bit for bit. Building the outlook
                    // only *reads* the forecaster — the ledger cannot be
                    // dirtied from here.
                    let ctx = match &self.forecaster {
                        Some(f) => OutlookContext::forecast(f.as_dyn(), t, self.forecast_horizon_s),
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
                    self.token_holds += 1;
                    self.current_iter.steps += 1;
                    if let Some(target) = outcome.decision.target {
                        if outcome.decision.preemptive {
                            self.forecast_stats.preempted += 1;
                        } else {
                            self.forecast_stats.reactive += 1;
                        }
                        if self.last_fault_s.is_some() {
                            self.last_post_fault_migration_s = Some(t);
                        }
                        let sample = self.precopy.migrate(self.background, &mut self.rng);
                        self.migrations.push(MigrationEvent {
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
                        self.current_iter.migrations += 1;
                        self.current_iter.total_gain += outcome.decision.gain;
                        self.queue.schedule_in(
                            sample.total_time_s,
                            SimEvent::MigrationComplete {
                                vm: outcome.holder,
                                to: target,
                                sample,
                            },
                        );
                    }
                    if self.current_iter.steps as u32 >= self.traffic.num_vms() {
                        self.iterations.push(self.current_iter);
                        self.current_iter = IterationStats {
                            steps: 0,
                            migrations: 0,
                            total_gain: 0.0,
                        };
                    }
                    if let Some(next) = outcome.next {
                        self.queue.schedule_in(
                            self.scenario.timing.token_hold_s + self.scenario.timing.token_pass_s,
                            SimEvent::TokenArrive { vm: next },
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
        let start = self.iterations.len();
        let goal = start + iterations;
        while self.iterations.len() < goal && self.step().is_some() {}
        self.iterations[start..].to_vec()
    }

    /// Runs until the simulation horizon.
    pub fn run_to_horizon(&mut self) {
        while self.step().is_some() {}
    }

    /// Takes the unified report of everything run so far. Can be called
    /// at any point (before, during, after the horizon); the final cost
    /// and the link-utilization snapshot reflect the current placement.
    pub fn report(&self) -> RunReport {
        let mut iterations = self.iterations.clone();
        if self.current_iter.steps > 0 {
            iterations.push(self.current_iter);
        }
        let migration_ratios = iterations
            .iter()
            .map(IterationStats::migration_ratio)
            .collect();
        RunReport {
            topology: self.topo.name().to_string(),
            policy: self.scenario.policy.name().to_string(),
            cost_series: self.cost_series.clone(),
            initial_cost: self.initial_cost,
            final_cost: self.current_cost(),
            migrations: self.migrations.clone(),
            iterations,
            migration_ratios,
            token_holds: self.token_holds,
            level_breakdown: score_core::level_breakdown(
                self.cluster.allocation(),
                &self.traffic,
                self.cluster.topo(),
            ),
            link_utilization: UtilizationSnapshot::capture(&self.cluster, &self.traffic),
            flow_table: FlowTableOps {
                aggregations: self.token_holds as u64,
                rule_updates: 2 * self.migrations.len() as u64,
            },
            trace: self.trace_stats,
            forecast: self.forecast_stats(),
            recovery: self.recovery_stats(),
        }
    }

    /// Recovery accounting so far: the session's fault/evacuation
    /// accumulators plus the live hosts-down count and the
    /// time-to-stable derived from the last fault and the last
    /// migration at or after it. All zeros for a fault-free run.
    pub fn recovery_stats(&self) -> RecoveryStats {
        let mut stats = self.recovery;
        stats.hosts_down = self.cluster.num_hosts_down();
        stats.time_to_stable_s = match (self.last_fault_s, self.last_post_fault_migration_s) {
            (Some(fault), Some(migration)) => (migration - fault).max(0.0),
            _ => 0.0,
        };
        stats
    }

    /// Rebinds the session to a new traffic pattern and a fresh
    /// sub-horizon, keeping the current allocation: clock, queue, ring
    /// and accumulators restart, the cluster carries over **in place**
    /// (no rebuild — the resource ledger's NIC side is patched and the
    /// cost ledger is re-priced over the changed pairs only). This is
    /// the paper's "always-on" TM shift.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Cluster`] if the new traffic describes
    /// a different VM population; the session is unchanged on error.
    pub fn rebind_traffic(
        &mut self,
        traffic: PairTraffic,
        duration_s: f64,
        seed: u64,
    ) -> Result<(), ScenarioError> {
        let sw = self
            .obs
            .as_ref()
            .map(|o| o.handle.stopwatch())
            .unwrap_or_default();
        // Counters mirror per-segment accumulators about to reset; flush
        // the unpublished tail first so totals stay monotonic.
        let flush_at = self.queue.now_s();
        self.publish_obs(flush_at);
        self.cluster.rebind_traffic(&traffic)?;
        // The recording clock keeps running across the rebind even
        // though the event clock restarts; the wholesale re-rate is
        // captured as a marker + per-pair deltas at the boundary.
        let rebind_at_s = self.recorder_offset_s + self.queue.now_s();
        let old_traffic = std::mem::replace(&mut self.traffic, traffic);
        if let Some(rec) = &mut self.recorder {
            rec.record_rebind(rebind_at_s, "rebind", &old_traffic, &self.traffic);
        }
        self.recorder_offset_s = rebind_at_s;
        if self.ledger_dirty {
            self.freshen_ledger();
        } else {
            self.ledger.rebind(
                self.cluster.allocation(),
                &old_traffic,
                &self.traffic,
                self.cluster.topo(),
            );
        }
        // Forecaster state restarts with the segment, like ring and
        // policy state do (the new clock starts at 0).
        if let Some(f) = &mut self.forecaster {
            f.as_dyn_mut().prime(&self.traffic, 0.0);
        }
        let engine = ScoreEngine::new(self.model.clone(), self.scenario.engine.score());
        self.ring = TokenRing::with_boxed(
            engine,
            self.scenario.policy.build(seed),
            self.traffic.num_vms(),
        );
        self.rng = StdRng::seed_from_u64(seed);
        self.queue = EventQueue::new();
        self.horizon_s = duration_s;
        self.finished = false;
        self.initial_cost = self.ledger.current();
        self.cost_series.clear();
        self.migrations.clear();
        self.iterations.clear();
        self.current_iter = IterationStats {
            steps: 0,
            migrations: 0,
            total_gain: 0.0,
        };
        self.token_holds = 0;
        self.pending_shifts.clear();
        self.trace_stats = TraceReplayStats::default();
        self.forecast_stats = ForecastStats::default();
        self.forecast_evals.clear();
        self.forecast_err = (0, 0.0, 0.0);
        // Recovery *accumulators* restart per segment like every other
        // report accumulator; the physical fault state (down hosts,
        // degraded tiers) carries over with the cluster.
        self.recovery = RecoveryStats::default();
        self.last_fault_s = None;
        self.last_post_fault_migration_s = None;
        self.prime_queue();
        if let Some(obs) = &mut self.obs {
            // The per-segment accumulators restarted; realign the
            // published-counter watermarks with them.
            obs.published_events = 0;
            obs.published_pairs = 0;
            obs.published_evals = 0;
            obs.published_faults = 0;
            obs.published_evacuations = 0;
            obs.published_unplaceable = 0;
            if let Some(ns) = sw.elapsed_ns() {
                obs.rebind_ns.record(ns);
            }
            let handle = obs.handle.clone();
            // The ring was rebuilt for the new segment; re-attach it.
            self.ring.attach_obs(&handle);
        }
        Ok(())
    }

    /// Applies a batch of absolute-rate traffic updates **in place**,
    /// without resetting the clock, ring, or report accumulators: each
    /// `(u, v, new_rate)` entry replaces λ(u, v) (`0` removes the pair;
    /// duplicates within one batch: the later entry wins). The cluster's
    /// NIC ledger is patched per changed pair and the cost ledger is
    /// re-priced per changed pair — no full Eq.-(2) pass, no cluster
    /// rebuild — so `C_A(t)` reacts to traffic *between* samples at
    /// O(changed-pairs) cost. This is the path every trace event takes;
    /// external callers (benches, custom drivers) may invoke it
    /// directly.
    ///
    /// Returns the number of pairs whose rate actually changed.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Workload`] on self-pairs, out-of-range
    /// VM ids, or negative/non-finite rates; the session is unchanged on
    /// error.
    pub fn apply_traffic_deltas(
        &mut self,
        updates: &[(VmId, VmId, f64)],
    ) -> Result<usize, ScenarioError> {
        let start = Instant::now();
        let num_vms = self.traffic.num_vms();
        for &(u, v, rate) in updates {
            if u == v {
                return Err(ScenarioError::Workload(format!(
                    "traffic delta names the self-pair ({u}, {v})"
                )));
            }
            if u.get() >= num_vms || v.get() >= num_vms {
                return Err(ScenarioError::Workload(format!(
                    "traffic delta pair ({u}, {v}) exceeds the population of {num_vms} VMs"
                )));
            }
            if !self.cluster.is_active(u) || !self.cluster.is_active(v) {
                return Err(ScenarioError::Workload(format!(
                    "traffic delta pair ({u}, {v}) names a departed VM"
                )));
            }
            if !rate.is_finite() || rate < 0.0 {
                return Err(ScenarioError::Workload(format!(
                    "traffic delta pair ({u}, {v}) has invalid rate {rate}"
                )));
            }
        }
        // External cluster mutation first resyncs the baseline the
        // sparse re-pricing builds on.
        self.freshen_ledger();
        // Canonicalize, later-entry-wins, and drop no-ops.
        let mut canon: Vec<(VmId, VmId, f64)> = updates
            .iter()
            .map(|&(u, v, r)| if u < v { (u, v, r) } else { (v, u, r) })
            .collect();
        canon.sort_by_key(|&(u, v, _)| (u, v));
        canon.dedup_by(|later, earlier| {
            let dup = (later.0, later.1) == (earlier.0, earlier.1);
            if dup {
                earlier.2 = later.2;
            }
            dup
        });
        let changes: Vec<(VmId, VmId, f64, f64)> = canon
            .iter()
            .filter_map(|&(u, v, new)| {
                let old = self.traffic.rate(u, v);
                (old != new).then_some((u, v, old, new))
            })
            .collect();
        if !changes.is_empty() {
            self.cluster.patch_traffic(&changes);
            self.ledger.apply_rate_changes(
                self.cluster.allocation(),
                &changes,
                self.cluster.topo(),
            );
            // Settle forecast evaluations that came due *before* the new
            // rates land: the realized rate at any passed due time is
            // the pre-batch rate (piecewise-constant between batches).
            let now_s = self.queue.now_s();
            self.settle_forecast_evals(now_s);
            self.traffic.apply_updates(&canon);
            // The forecaster observes exactly the stream the cluster
            // absorbed — O(changed pairs), like everything else here.
            if let Some(f) = &mut self.forecaster {
                let observed: Vec<(VmId, VmId, f64)> =
                    changes.iter().map(|&(u, v, _, new)| (u, v, new)).collect();
                f.as_dyn_mut().observe_updates(&observed, now_s);
            }
            self.queue_forecast_evals(changes.iter().map(|&(u, v, _, _)| (u, v)), now_s);
            if let Some(rec) = &mut self.recorder {
                let recorded: Vec<(u32, u32, f64)> = changes
                    .iter()
                    .map(|&(u, v, _, new)| (u.get(), v.get(), new))
                    .collect();
                rec.record_updates(self.recorder_offset_s + now_s, &recorded);
            }
        }
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.trace_stats.events_applied += 1;
        self.trace_stats.pairs_repriced += changes.len() as u64;
        self.trace_stats.apply_ns_total += ns;
        self.trace_stats.apply_ns_max = self.trace_stats.apply_ns_max.max(ns);
        Ok(changes.len())
    }

    /// Applies a uniform `ScaleAll` traffic shift: every live pair's
    /// rate is multiplied by `factor`, saturating at `f64::MAX`. `C_A` is
    /// linear in `λ`, so nothing is re-priced pair by pair: the traffic
    /// stores take the factor as a pending multiplier their reads fold
    /// in, the cluster's NIC accounting and the cost ledger with its
    /// shards are multiplied through — O(VMs + servers + racks), the same
    /// whether 10² or 10⁷ pairs are live. This is the only way a session
    /// scales: compiled trace batches, raw `ScaleAll` events and the
    /// daemon all land here, a recorder logs the event itself, and a
    /// forecaster hears of it through
    /// [`RateForecaster::observe_scale`] (per-pair work over the pairs
    /// *it* tracks, which is the forecaster's cost alone).
    ///
    /// Returns the number of live pairs whose rate changed (0 for the
    /// identity factor, which still counts as an applied event).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Workload`] unless `factor` is positive
    /// and finite ([`TraceEvent::check_payload`]); the session is
    /// unchanged on error.
    pub fn apply_traffic_scale(&mut self, factor: f64) -> Result<usize, ScenarioError> {
        TraceEvent::ScaleAll { factor }
            .check_payload()
            .map_err(|e| ScenarioError::Workload(format!("traffic scale {e}")))?;
        let start = Instant::now();
        // External cluster mutation first resyncs the baseline the
        // ledger rescale builds on.
        self.freshen_ledger();
        let mut repriced = 0;
        if factor != 1.0 {
            repriced = self.traffic.num_pairs();
            // As for sparse deltas: forecasts already due are scored
            // against the rates they were made for.
            let now_s = self.queue.now_s();
            self.settle_forecast_evals(now_s);
            self.traffic.scale_all(factor);
            self.cluster.scale_traffic(factor);
            self.ledger.scale(factor);
            if let Some(f) = &mut self.forecaster {
                f.as_dyn_mut().observe_scale(factor, now_s);
                // Every live pair the forecaster tracks just moved; they
                // are scored at the horizon like a sparse batch's pairs,
                // in canonical order whatever the forecaster's own.
                if self.forecast_evals.len() < MAX_FORECAST_EVALS {
                    let mut moved = f.as_dyn().known_pairs();
                    moved.sort_unstable();
                    moved.retain(|&(u, v)| self.traffic.handle(u, v).is_some());
                    self.queue_forecast_evals(moved, now_s);
                }
            }
            if let Some(rec) = &mut self.recorder {
                rec.record_scale(self.recorder_offset_s + now_s, factor);
            }
        }
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.trace_stats.events_applied += 1;
        self.trace_stats.pairs_repriced += repriced as u64;
        self.trace_stats.apply_ns_total += ns;
        self.trace_stats.apply_ns_max = self.trace_stats.apply_ns_max.max(ns);
        Ok(repriced)
    }

    /// Trace-replay bookkeeping for the current segment (all zeros for
    /// static workloads).
    pub fn trace_stats(&self) -> TraceReplayStats {
        self.trace_stats
    }

    /// Number of full-pass ledger resyncs paid so far — stays 0 when
    /// every mid-run delta took the sparse O(changed-pairs) path (and
    /// when forecasters read ahead: building outlooks never dirties the
    /// ledger).
    pub fn ledger_resyncs(&self) -> u64 {
        self.ledger.resyncs()
    }

    /// Cost mass the sharded ledger currently attributes to topology
    /// zone `zone` (aggregation group / pod) — the hierarchical rollup
    /// a per-subtree dashboard reads without any pair walk.
    pub fn zone_cost(&self, zone: u32) -> f64 {
        self.ledger.zone_cost(zone)
    }

    /// Absolute drift between the merged shard sample and the
    /// authoritative ledger total (pinned ≤ 1e-9 relative by tests).
    pub fn shard_drift(&self) -> f64 {
        self.ledger.shard_drift()
    }

    /// True when decisions consume forecasted outlooks (an active
    /// [`ForecastSpec`] materialized a forecaster).
    pub fn forecasting(&self) -> bool {
        self.forecaster.is_some()
    }

    /// Pre-empted-vs-reactive migration counts accumulated since the
    /// last rebind (all-reactive without an active forecast), plus the
    /// per-pair forecast-error surface (MAE/bias of predicted vs
    /// realized rates).
    pub fn forecast_stats(&self) -> ForecastStats {
        let mut stats = self.forecast_stats;
        let (n, abs_sum, sum) = self.forecast_err;
        stats.error_samples = n;
        if n > 0 {
            stats.mae = abs_sum / n as f64;
            stats.bias = sum / n as f64;
        }
        stats
    }

    /// Attaches observability to the session and its inner layers (ring,
    /// ledger): event-clock gauge, deltas/pairs counters, trace-segment
    /// rebind timings and the forecast-error gauges, published at the
    /// sampling cadence. Survives phase/segment rebinds.
    ///
    /// Strictly a side channel: the attached run's `RunReport` is
    /// byte-identical to a bare run (pinned by proptest) — instruments
    /// are never read back, and wall-clock reads happen only inside
    /// `score_obs`. Passing a disabled handle detaches.
    pub fn attach_obs(&mut self, handle: &ObsHandle) {
        self.obs = SessionObs::build(handle);
        self.ring.attach_obs(handle);
        self.ledger.attach_obs(handle);
    }

    /// True when an enabled [`ObsHandle`] is attached.
    pub fn obs_attached(&self) -> bool {
        self.obs.is_some()
    }

    /// Publishes the sampled gauges/counters (clock, deltas, forecast
    /// error, ledger drift). Runs on every `Sample` tick; cheap no-op
    /// when detached.
    fn publish_obs(&mut self, t: f64) {
        let Some(obs) = &mut self.obs else {
            return;
        };
        obs.clock.set(t);
        obs.events
            .add(self.trace_stats.events_applied - obs.published_events);
        obs.published_events = self.trace_stats.events_applied;
        obs.pairs
            .add(self.trace_stats.pairs_repriced - obs.published_pairs);
        obs.published_pairs = self.trace_stats.pairs_repriced;
        let (n, abs_sum, sum) = self.forecast_err;
        obs.forecast_evals.add(n - obs.published_evals);
        obs.published_evals = n;
        if n > 0 {
            obs.forecast_mae.set(abs_sum / n as f64);
            obs.forecast_bias.set(sum / n as f64);
        }
        obs.recovery_faults
            .add(self.recovery.faults_injected - obs.published_faults);
        obs.published_faults = self.recovery.faults_injected;
        obs.recovery_evacuations
            .add(self.recovery.evacuations - obs.published_evacuations);
        obs.published_evacuations = self.recovery.evacuations;
        obs.recovery_unplaceable
            .add(self.recovery.unplaceable_vms - obs.published_unplaceable);
        obs.published_unplaceable = self.recovery.unplaceable_vms;
        obs.recovery_hosts_down
            .set(f64::from(self.cluster.num_hosts_down()));
        obs.recovery_slo.set(self.recovery.slo_violating_s);
        let tts = match (self.last_fault_s, self.last_post_fault_migration_s) {
            (Some(fault), Some(migration)) => (migration - fault).max(0.0),
            _ => 0.0,
        };
        obs.recovery_tts.set(tts);
        self.ledger.publish_obs();
    }

    /// Queues `pairs` (whose rates just changed at `now_s`) for scoring
    /// at the horizon: what the just-updated forecaster predicts for
    /// `now + h` will be compared against the rate realized then. The
    /// queue is bounded; overflow drops the newest entries
    /// (deterministically) rather than growing without bound. No-op
    /// without an active nonzero-horizon forecast.
    fn queue_forecast_evals(&mut self, pairs: impl IntoIterator<Item = (VmId, VmId)>, now_s: f64) {
        let Some(f) = &self.forecaster else {
            return;
        };
        if self.forecast_horizon_s <= 0.0 {
            return;
        }
        let due = now_s + self.forecast_horizon_s;
        for (u, v) in pairs {
            if self.forecast_evals.len() >= MAX_FORECAST_EVALS {
                break;
            }
            let predicted = f.as_dyn().predict(u, v, now_s, self.forecast_horizon_s);
            self.forecast_evals.push_back((due, u, v, predicted));
        }
    }

    /// Settles every pending forecast evaluation whose due time has
    /// passed: the rate predicted at `due − horizon` for `due` is
    /// compared against the realized rate (pair rates are
    /// piecewise-constant between batches, so the current rate *is* the
    /// realized rate at any already-passed due time).
    fn settle_forecast_evals(&mut self, now_s: f64) {
        while let Some(&(due, u, v, predicted)) = self.forecast_evals.front() {
            if due > now_s {
                break;
            }
            self.forecast_evals.pop_front();
            let realized = self.traffic.rate(u, v);
            let err = predicted - realized;
            self.forecast_err.0 += 1;
            self.forecast_err.1 += err.abs();
            self.forecast_err.2 += err;
        }
    }

    /// Starts capturing every applied TM delta into a replayable
    /// [`Trace`] seeded with the *current* TM; the recording clock
    /// starts at 0 now and keeps running across phase/segment rebinds
    /// (each recorded as a marker + boundary re-rates). Restarting
    /// recording discards the previous capture.
    pub fn start_trace_recording(&mut self) {
        self.recorder = Some(TraceRecorder::new(&self.traffic));
        self.recorder_offset_s = -self.queue.now_s();
    }

    /// True while applied deltas are being captured.
    pub fn recording_trace(&self) -> bool {
        self.recorder.is_some()
    }

    /// The recorder itself, for incremental JSONL streaming
    /// ([`TraceRecorder::append_jsonl`]).
    pub fn trace_recorder_mut(&mut self) -> Option<&mut TraceRecorder> {
        self.recorder.as_mut()
    }

    /// Closes the active recording into a validated [`Trace`] lasting
    /// until the current simulated instant. Recording continues; call
    /// [`Session::stop_trace_recording`] to drop the recorder.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Workload`] when nothing is recording or
    /// no simulated time has elapsed yet (a zero-length trace cannot
    /// exist).
    pub fn recorded_trace(&self) -> Result<Trace, ScenarioError> {
        let rec = self
            .recorder
            .as_ref()
            .ok_or_else(|| ScenarioError::Workload("the session is not recording".into()))?;
        rec.finish(self.recorder_offset_s + self.queue.now_s())
            .map_err(|e| ScenarioError::Workload(format!("recorded trace is unusable: {e}")))
    }

    /// Stops recording, returning the recorder (with everything it
    /// captured) to the caller.
    pub fn stop_trace_recording(&mut self) -> Option<TraceRecorder> {
        self.recorder.take()
    }

    /// Trace segments still queued behind the current one.
    pub fn trace_segments_remaining(&self) -> usize {
        self.trace_segments.len()
    }

    /// Advances a trace-driven session to its next segment (phase-marker
    /// boundary): rebinds to the segment's initial TM with `run_phases`
    /// semantics — clock, ring and accumulators restart, the allocation
    /// carries over, the segment is reseeded as phase *i* — and
    /// schedules the segment's delta batches. Returns `false` when no
    /// segments remain (including on static workloads).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Cluster`] if the segment's TM cannot be
    /// bound (impossible for traces validated at materialization).
    pub fn advance_trace_segment(&mut self) -> Result<bool, ScenarioError> {
        let Some(seg) = self.trace_segments.pop_front() else {
            return Ok(false);
        };
        self.segment_index += 1;
        if let Some(obs) = &self.obs {
            obs.segments.inc();
            obs.handle
                .journal_push(score_obs::ObsEvent::SegmentAdvance {
                    at_s: self.queue.now_s(),
                });
        }
        let seed = self.scenario.seed.wrapping_add(self.segment_index);
        self.rebind_traffic(seg.initial.clone(), seg.duration_s, seed)?;
        // The oracle reads ahead into the freshly bound segment
        // (rebinding primed it on the segment's initial TM already).
        if let Some(f) = &mut self.forecaster {
            f.load_segment(&seg);
        }
        self.load_shifts(seg.shifts);
        Ok(true)
    }

    /// Runs a trace-driven session to the end of its trace: each
    /// segment runs to its horizon and yields one report (exactly like
    /// [`Session::run_phases`] yields one report per phase — a
    /// piecewise-constant trace reproduces it verbatim). On a static
    /// workload this is `run_to_horizon` plus a single report.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if a segment fails to bind.
    pub fn run_trace(&mut self) -> Result<Vec<RunReport>, ScenarioError> {
        let mut reports = Vec::new();
        loop {
            self.run_to_horizon();
            reports.push(self.report());
            if !self.advance_trace_segment()? {
                return Ok(reports);
            }
        }
    }

    /// Runs S-CORE across a sequence of traffic phases — when the TM
    /// shifts, the token keeps circulating and the allocation
    /// re-converges to the new pattern. Returns one report per phase;
    /// the cluster state carries over between phases (time axes restart
    /// per phase).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if a phase's traffic cannot be bound.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty.
    pub fn run_phases(&mut self, phases: &[TrafficPhase]) -> Result<Vec<RunReport>, ScenarioError> {
        assert!(!phases.is_empty(), "need at least one phase");
        let base_seed = self.scenario.seed;
        phases
            .iter()
            .enumerate()
            .map(|(i, phase)| {
                self.rebind_traffic(
                    phase.traffic.clone(),
                    phase.duration_s,
                    base_seed.wrapping_add(i as u64),
                )?;
                self.run_to_horizon();
                Ok(self.report())
            })
            .collect()
    }

    /// Timestamp of the next pending event, if any — the boundary a
    /// live driver (the `scored` daemon) drains to before applying
    /// cluster mutations, so a recorded mutation at `t` replays against
    /// exactly the event prefix `<= t`.
    pub fn next_event_time(&self) -> Option<f64> {
        self.queue.peek_time()
    }

    /// Steps until every pending event lies **strictly after** the
    /// current instant, returning that instant — the only clock states
    /// where a live driver may apply cluster mutations. A mutation
    /// recorded at such a drained boundary `t` replays exactly: the
    /// events a replayer pops with `next_event_time() <= t` are
    /// precisely the events the live run popped before mutating, ties
    /// included (same-timestamp events can never straddle the
    /// boundary, because none are left pending at it).
    pub fn drain_to_boundary(&mut self) -> f64 {
        while self
            .queue
            .peek_time()
            .is_some_and(|t| t <= self.queue.now_s())
        {
            if self.step().is_none() {
                break;
            }
        }
        self.queue.now_s()
    }

    /// Places a newly arriving VM on `server` (or the deterministic
    /// [`Cluster::choose_server`] pick when `None`) **live**, without
    /// resetting the clock, ring, or accumulators: the newcomer gets the
    /// next dense id, joins the token ring, and starts with zero traffic
    /// — so `C_A` is untouched and the incremental ledger stays exact
    /// with no repricing at all. If the ring was empty (every prior VM
    /// departed), the token chain is revived: a fresh `TokenArrive`
    /// fires one hold+pass from now. Recorded as a
    /// [`score_trace::TraceEvent::PlaceVm`] when recording is on.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Cluster`] when the explicit target
    /// rejects the VM or no server has capacity; the session is
    /// unchanged on error.
    pub fn place_vm(
        &mut self,
        server: Option<ServerId>,
    ) -> Result<(VmId, ServerId), ScenarioError> {
        let spec = self.scenario.resources.vm;
        let (vm, host) = self.cluster.place_vm(spec, server)?;
        let mirrored = self.traffic.push_vm();
        debug_assert_eq!(vm, mirrored, "session and cluster ids diverged");
        self.ring.add_vm(vm);
        if !self.token_event_pending && !self.finished {
            self.queue.schedule_in(
                self.scenario.timing.token_hold_s + self.scenario.timing.token_pass_s,
                SimEvent::TokenArrive { vm },
            );
            self.token_event_pending = true;
        }
        if let Some(rec) = &mut self.recorder {
            rec.record_place(
                self.recorder_offset_s + self.queue.now_s(),
                vm.get(),
                host.get(),
            );
        }
        Ok((vm, host))
    }

    /// Removes a live VM **in place**: its surviving pair rates are
    /// zeroed through the ordinary sparse delta path (one
    /// [`Session::apply_traffic_deltas`] call per pair, so the recorded
    /// `SetRate` stream replays with the same number of apply calls and
    /// the cost ledger re-prices exactly `O(degree)` pairs — no resync),
    /// its server resources are released, the id is tombstoned (ids stay
    /// dense and stable), and it leaves the token ring — if it held the
    /// token, the pending pass simply finds the successor. Recorded as a
    /// [`score_trace::TraceEvent::RemoveVm`] when recording is on.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Cluster`] for an out-of-range or
    /// already-removed id; the session is unchanged on error.
    pub fn remove_vm(&mut self, vm: VmId) -> Result<(), ScenarioError> {
        if !self.cluster.is_active(vm) {
            return Err(ClusterError::UnknownVm { vm }.into());
        }
        let peers: Vec<VmId> = self.traffic.peers(vm).map(|(p, _)| p).collect();
        for peer in peers {
            self.apply_traffic_deltas(&[(vm, peer, 0.0)])?;
        }
        // All pairs are quiet now, so this only releases resources and
        // tombstones — the returned change set is empty by construction.
        let residual = self.cluster.remove_vm(vm)?;
        debug_assert!(residual.is_empty(), "zeroing left live pairs behind");
        self.ring.remove_vm(vm);
        if let Some(rec) = &mut self.recorder {
            rec.record_remove(self.recorder_offset_s + self.queue.now_s(), vm.get());
        }
        Ok(())
    }

    /// Applies one fault event to the running session and re-plans
    /// around it — the adversity engine's entry point:
    ///
    /// * `HostCrash` marks the server down and **evacuates** its live
    ///   VMs in ascending id order: each victim is rehomed on the
    ///   deterministic [`Cluster::choose_server`] pick (down hosts are
    ///   excluded) and the cost ledger absorbs the move through the
    ///   same Lemma-3 delta path an ordinary migration takes — exact,
    ///   `O(degree)` per victim, zero resyncs. Victims no live server
    ///   can admit are retired (pairs zeroed through the sparse path,
    ///   id tombstoned, ring membership dropped via the survivor
    ///   election) and counted as unplaceable.
    /// * `RackFail` is a correlated sweep: every server of the rack
    ///   crashes, in ascending server-id order.
    /// * `LinkDegrade { tier: 0 }` scales the cluster's NIC admission
    ///   capacity by `factor`; higher tiers are tracked for SLO
    ///   accounting only. `LinkRestore` lifts the tier's degradation.
    ///
    /// Only the fault event itself is recorded when trace recording is
    /// on — its consequences are deterministic functions of session
    /// state and are re-derived on replay, which is what keeps an
    /// adversity log byte-stable.
    ///
    /// Live drivers must call this at drained boundaries only
    /// ([`Session::drain_to_boundary`]), like every other mutation.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Workload`] for a non-fault event, an
    /// out-of-range rack, or an invalid degradation factor; the session
    /// is unchanged on error.
    pub fn apply_fault(&mut self, event: &TraceEvent) -> Result<FaultOutcome, ScenarioError> {
        if !event.is_fault() {
            return Err(ScenarioError::Workload(format!(
                "apply_fault takes fault events only, got {event:?}"
            )));
        }
        event.check_payload().map_err(ScenarioError::Workload)?;
        let now_s = self.queue.now_s();
        self.freshen_ledger();
        let outcome = match event {
            TraceEvent::HostCrash { server } => self.crash_hosts(&[ServerId::new(*server)])?,
            TraceEvent::RackFail { rack } => {
                if *rack as usize >= self.topo.num_racks() {
                    return Err(ScenarioError::Workload(format!(
                        "rack {rack} out of range ({} racks)",
                        self.topo.num_racks()
                    )));
                }
                let servers: Vec<ServerId> = self
                    .topo
                    .servers_in_rack(RackId::new(*rack))
                    .map(ServerId::new)
                    .collect();
                self.crash_hosts(&servers)?
            }
            TraceEvent::LinkDegrade { tier, factor } => {
                if *tier == 0 {
                    self.cluster.set_nic_capacity_factor(*factor);
                }
                self.degraded_tiers.insert(*tier, *factor);
                FaultOutcome::default()
            }
            TraceEvent::LinkRestore { tier } => {
                if *tier == 0 {
                    self.cluster.set_nic_capacity_factor(1.0);
                }
                self.degraded_tiers.remove(tier);
                FaultOutcome::default()
            }
            _ => unreachable!("is_fault() admitted a non-fault event"),
        };
        self.recovery.faults_injected += 1;
        self.last_fault_s = Some(now_s);
        if !outcome.evacuated.is_empty() {
            self.last_post_fault_migration_s = Some(now_s);
        }
        if let Some(rec) = &mut self.recorder {
            rec.record_fault(self.recorder_offset_s + now_s, event.clone());
        }
        Ok(outcome)
    }

    /// Crashes `servers` in the given order, evacuating or retiring
    /// every victim (see [`Session::apply_fault`]).
    fn crash_hosts(&mut self, servers: &[ServerId]) -> Result<FaultOutcome, ScenarioError> {
        let now_s = self.queue.now_s();
        let mut outcome = FaultOutcome::default();
        for &server in servers {
            if !self.cluster.host_is_up(server) {
                continue; // out of range / already down: nothing to fail
            }
            let victims = self.cluster.fail_host(server);
            outcome.hosts_failed.push(server);
            for vm in victims {
                match self.cluster.choose_server(self.cluster.vm_spec(vm)) {
                    Ok(target) => {
                        // Forced evacuation reprices through the exact
                        // Lemma-3 path an ordinary migration takes; the
                        // bandwidth threshold is waived (liveness over
                        // NIC headroom — the SLO clock records the
                        // degradation instead).
                        let from = self.cluster.allocation().server_of(vm);
                        let gain = self.model.migration_delta(
                            vm,
                            target,
                            self.cluster.allocation(),
                            &self.traffic,
                            self.cluster.topo(),
                        );
                        self.cluster
                            .migrate(vm, target, f64::INFINITY)
                            .map_err(|source| ClusterError::PlacementRejected {
                                server: target,
                                source,
                            })?;
                        self.ledger.apply_migration_shards(
                            vm,
                            from,
                            target,
                            self.cluster.allocation(),
                            &self.traffic,
                            self.cluster.topo(),
                        );
                        self.ledger.apply_gain(gain);
                        self.recovery.evacuations += 1;
                        outcome.evacuated.push((vm, target));
                    }
                    Err(_) => {
                        // No live server can admit it: retire in place.
                        // Pairs are zeroed through the sparse repricing
                        // path, bypassing the recorder — the removal is
                        // a fault consequence, re-derived on replay.
                        self.settle_forecast_evals(now_s);
                        let changes = self.cluster.remove_vm(vm)?;
                        self.ledger.apply_rate_changes(
                            self.cluster.allocation(),
                            &changes,
                            self.cluster.topo(),
                        );
                        let updates: Vec<(VmId, VmId, f64)> =
                            changes.iter().map(|&(u, v, _, new)| (u, v, new)).collect();
                        self.traffic.apply_updates(&updates);
                        if let Some(f) = &mut self.forecaster {
                            f.as_dyn_mut().observe_updates(&updates, now_s);
                        }
                        self.recovery.unplaceable_vms += 1;
                        outcome.unplaceable.push(vm);
                    }
                }
            }
        }
        if !outcome.unplaceable.is_empty() {
            // Crashed VMs vanish without a departure protocol; the ring
            // elects the deterministic survivor if the holder died.
            self.ring.fail_vms(&outcome.unplaceable);
        }
        Ok(outcome)
    }

    /// Replays one raw trace event against the live session — the
    /// single dispatch point shared by fault-trace replay (fault traces
    /// cannot compile; see [`score_trace::Trace::compile`]) and the
    /// daemon's socket protocol:
    ///
    /// * traffic events take [`Session::apply_traffic_deltas`]
    ///   (`SetRate`, `ScalePair`) or [`Session::apply_traffic_scale`]
    ///   (`ScaleAll`);
    /// * churn events take [`Session::place_vm`] /
    ///   [`Session::remove_vm`] — a `PlaceVm` must name the id the
    ///   arrival will get (the next dense one), which is how every
    ///   replayer learns its stream belongs to another session;
    /// * fault events take [`Session::apply_fault`];
    /// * markers are no-ops (segment semantics belong to the compiled
    ///   path).
    ///
    /// `ScalePair` on a pair with a dead or out-of-range endpoint is a
    /// **validated no-op**: scaling what no longer exists must not
    /// resurrect the pair (`SetRate` on the same pair stays an error —
    /// an absolute re-rate of a dead VM is a driver bug).
    ///
    /// # Errors
    ///
    /// Refuses a payload [`TraceEvent::check_payload`] refuses and
    /// propagates the underlying path's validation errors; the session
    /// is unchanged on error.
    pub fn apply_trace_event(&mut self, event: &TraceEvent) -> Result<(), ScenarioError> {
        event.check_payload().map_err(ScenarioError::Workload)?;
        match event {
            TraceEvent::SetRate { u, v, rate } => {
                self.apply_traffic_deltas(&[(VmId::new(*u), VmId::new(*v), *rate)])?;
            }
            TraceEvent::ScalePair { u, v, factor } => {
                let num_vms = self.traffic.num_vms();
                if *u >= num_vms || *v >= num_vms {
                    return Ok(());
                }
                let (u, v) = (VmId::new(*u), VmId::new(*v));
                if !self.cluster.is_active(u) || !self.cluster.is_active(v) {
                    return Ok(()); // validated no-op: never resurrect
                }
                let old = self.traffic.rate(u, v);
                if old != 0.0 {
                    self.apply_traffic_deltas(&[(u, v, scaled_rate(old, *factor))])?;
                }
            }
            TraceEvent::ScaleAll { factor } => {
                self.apply_traffic_scale(*factor)?;
            }
            TraceEvent::Marker { .. } => {}
            TraceEvent::PlaceVm { vm, server } => {
                // Ids are dense, so the arrival's id is known before it
                // lands: a stream recorded against another population
                // is refused with the session untouched.
                let next = self.traffic.num_vms();
                if *vm != next {
                    return Err(ScenarioError::Workload(format!(
                        "PlaceVm names vm{vm} but the next arrival here is vm{next}; \
                         the stream was recorded against a different session"
                    )));
                }
                self.place_vm(Some(ServerId::new(*server)))?;
            }
            TraceEvent::RemoveVm { vm } => {
                self.remove_vm(VmId::new(*vm))?;
            }
            TraceEvent::HostCrash { .. }
            | TraceEvent::RackFail { .. }
            | TraceEvent::LinkDegrade { .. }
            | TraceEvent::LinkRestore { .. } => {
                self.apply_fault(event)?;
            }
        }
        Ok(())
    }

    /// Link tiers currently degraded, as `(tier, factor)` pairs in
    /// ascending tier order.
    pub fn degraded_tiers(&self) -> Vec<(u32, f64)> {
        self.degraded_tiers.iter().map(|(&t, &f)| (t, f)).collect()
    }

    /// Drives a timed event stream (typically a
    /// [`score_trace::fault_storm_events`] storm, or the events of a
    /// recorded adversity trace) against the live run: the clock
    /// advances through pending ring/sample events up to each entry's
    /// firing time, the boundary is drained, and the entry is applied
    /// via [`Session::apply_trace_event`]. The caller usually follows
    /// with [`Session::run_to_horizon`] to let the survivors
    /// re-converge. Entries must be sorted by `time_s` (storm
    /// generators and recorded traces both are).
    ///
    /// # Errors
    ///
    /// Propagates the first event's validation error; earlier events
    /// stay applied (matching a live driver that dies mid-storm).
    pub fn run_storm(&mut self, events: &[TimedEvent]) -> Result<(), ScenarioError> {
        for ev in events {
            while self.next_event_time().is_some_and(|t| t <= ev.time_s) {
                if self.step().is_none() {
                    break;
                }
            }
            self.apply_trace_event(&ev.event)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PolicyKind, Scenario, TimingSpec, TraceSpec};
    use score_traffic::{TrafficIntensity, WorkloadConfig};

    fn quick_scenario(policy: PolicyKind, seed: u64) -> Scenario {
        let mut s = Scenario::small_canonical(TrafficIntensity::Sparse, seed);
        s.policy = policy;
        s.timing = TimingSpec {
            t_end_s: 120.0,
            sample_interval_s: 5.0,
            token_hold_s: 0.05,
            token_pass_s: 0.01,
        };
        s
    }

    #[test]
    fn simulation_reduces_cost_over_time() {
        let mut session = quick_scenario(PolicyKind::RoundRobin, 1).session().unwrap();
        session.run_to_horizon();
        let report = session.report();
        assert!(report.final_cost < report.initial_cost);
        // Series is non-increasing (S-CORE never performs a bad move).
        for w in report.cost_series.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-6);
        }
        assert!(report.token_holds > 0);
        assert!(!report.migrations.is_empty());
        assert!(session.horizon_reached());
        assert!(session.step().is_none(), "no steps past the horizon");
    }

    #[test]
    fn iteration_stats_group_by_population() {
        let mut session = quick_scenario(PolicyKind::RoundRobin, 2).session().unwrap();
        let vms = session.cluster().num_vms() as usize;
        session.run_to_horizon();
        let report = session.report();
        for (i, it) in report.iterations.iter().enumerate() {
            if i + 1 < report.iterations.len() {
                assert_eq!(it.steps, vms, "full iterations cover the population");
            }
        }
        assert_eq!(report.migration_ratios.len(), report.iterations.len());
    }

    #[test]
    fn run_n_iterations_is_incremental() {
        let mut session = quick_scenario(PolicyKind::RoundRobin, 3).session().unwrap();
        let first = session.run(1);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].steps, session.cluster().num_vms() as usize);
        let second = session.run(2);
        assert_eq!(second.len(), 2);
        assert_eq!(session.report().iterations.len(), 3);
        // The cost after explicit iterations matches the accumulator.
        assert!(session.current_cost() <= session.initial_cost());
    }

    #[test]
    fn hlf_and_rr_both_converge() {
        for policy in PolicyKind::paper_policies() {
            let mut session = quick_scenario(policy, 3).session().unwrap();
            session.run_to_horizon();
            let report = session.report();
            assert!(
                report.final_cost < report.initial_cost,
                "{} must improve the initial placement",
                policy.name()
            );
            assert_eq!(report.policy, policy.name());
        }
    }

    #[test]
    fn migration_events_have_sane_overheads() {
        let mut session = quick_scenario(PolicyKind::HighestLevelFirst, 4)
            .session()
            .unwrap();
        session.run_to_horizon();
        let report = session.report();
        for m in &report.migrations {
            assert!(m.gain > 0.0);
            assert!(m.bytes > 50e6 && m.bytes < 200e6);
            assert!(m.duration_s > 1.0 && m.duration_s < 15.0);
            assert!(m.downtime_s < 0.05);
        }
        assert!(report.total_migration_bytes() > 0.0);
        assert!(report.total_downtime_s() > 0.0);
        assert_eq!(report.flow_table.aggregations, report.token_holds as u64);
        assert_eq!(
            report.flow_table.rule_updates,
            2 * report.migrations.len() as u64
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut session = quick_scenario(PolicyKind::HighestLevelFirst, 6)
                .session()
                .unwrap();
            session.run_to_horizon();
            session.report()
        };
        let a = run();
        let b = run();
        assert_eq!(a.final_cost, b.final_cost);
        assert_eq!(a.migrations.len(), b.migrations.len());
        assert_eq!(a.token_holds, b.token_holds);
        assert_eq!(a, b, "the full report must be identical under a fixed seed");
    }

    #[test]
    fn hypervisor_stats_balance() {
        let mut session = quick_scenario(PolicyKind::RoundRobin, 11)
            .session()
            .unwrap();
        let servers = session.topo().num_servers();
        session.run_to_horizon();
        let report = session.report();
        let stats = report.hypervisor_stats(servers);
        let ins: u32 = stats.iter().map(|s| s.in_migrations).sum();
        let outs: u32 = stats.iter().map(|s| s.out_migrations).sum();
        assert_eq!(ins as usize, report.migrations.len());
        assert_eq!(outs as usize, report.migrations.len());
        if !report.migrations.is_empty() {
            assert!(report.max_concurrent_migrations() >= 1);
        }
    }

    #[test]
    fn dynamic_phases_readapt() {
        // Phase 1: workload A; phase 2: a fresh workload B over the same
        // population. S-CORE must re-converge after the shift.
        let mut session = quick_scenario(PolicyKind::HighestLevelFirst, 8)
            .session()
            .unwrap();
        let num_vms = session.traffic().num_vms();
        let traffic_a = session.traffic().clone();
        let traffic_b = WorkloadConfig::new(num_vms, 999).generate();
        let phases = vec![
            TrafficPhase {
                duration_s: 120.0,
                traffic: traffic_a,
            },
            TrafficPhase {
                duration_s: 120.0,
                traffic: traffic_b,
            },
        ];
        let reports = session.run_phases(&phases).unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports[0].final_cost < reports[0].initial_cost);
        // The shift leaves the allocation mismatched to workload B; the
        // second phase finds new migrations and improves again.
        assert!(
            reports[1].migrations.len() > 3,
            "must re-adapt after the TM shift"
        );
        assert!(reports[1].final_cost < reports[1].initial_cost);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn dynamic_requires_phases() {
        let mut session = quick_scenario(PolicyKind::RoundRobin, 9).session().unwrap();
        let _ = session.run_phases(&[]);
    }

    #[test]
    fn stability_no_oscillation_under_static_traffic() {
        // VM stability (paper §VI-B): once converged, no VM keeps
        // bouncing.
        let mut scenario = quick_scenario(PolicyKind::RoundRobin, 10);
        scenario.timing.t_end_s = 250.0;
        let mut session = scenario.session().unwrap();
        session.run_to_horizon();
        let report = session.report();
        let mut per_vm = std::collections::HashMap::new();
        for m in &report.migrations {
            *per_vm.entry(m.vm).or_insert(0usize) += 1;
        }
        let max_moves = per_vm.values().copied().max().unwrap_or(0);
        assert!(
            max_moves <= 4,
            "a VM migrated {max_moves} times under static traffic"
        );
        let late = report
            .migrations
            .iter()
            .filter(|m| m.time_s > 200.0)
            .count();
        assert_eq!(late, 0, "migrations continued after convergence");
    }

    #[test]
    fn ledger_sampling_matches_full_recomputation() {
        let mut session = quick_scenario(PolicyKind::HighestLevelFirst, 21)
            .session()
            .unwrap();
        session.run_to_horizon();
        let fresh = session.cost_model().total_cost(
            session.cluster().allocation(),
            session.traffic(),
            session.cluster().topo(),
        );
        let ledgered = session.current_cost();
        assert!(
            (ledgered - fresh).abs() <= 1e-9 * fresh.max(1.0),
            "ledger {ledgered} vs fresh {fresh}"
        );
        // The last sample the event loop took agrees too.
        let report = session.report();
        let (_, last_sampled) = *report.cost_series.last().unwrap();
        assert!((last_sampled - fresh).abs() <= 1e-9 * fresh.max(1.0));
    }

    #[test]
    fn shard_rollups_stay_coherent_through_a_run() {
        // The sharded ledger's per-zone partials must keep summing to
        // the authoritative total through migrations and sampling.
        let mut session = quick_scenario(PolicyKind::HighestLevelFirst, 23)
            .session()
            .unwrap();
        session.run_to_horizon();
        let total = session.current_cost();
        assert!(
            session.shard_drift() <= 1e-9 * total.abs().max(1.0),
            "shard drift {} after a full run (total {total})",
            session.shard_drift()
        );
        let zones = session.cluster().topo().num_zones() as u32;
        let zone_sum: f64 = (0..zones).map(|z| session.zone_cost(z)).sum();
        assert!((zone_sum - total).abs() <= 1e-9 * total.abs().max(1.0));
    }

    #[test]
    fn external_mutation_resyncs_ledger() {
        use score_topology::ServerId;
        let mut session = quick_scenario(PolicyKind::RoundRobin, 22)
            .session()
            .unwrap();
        session.run(1);
        // Mutate the cluster behind the session's back (what a
        // centralized baseline does via split_mut).
        let threshold = f64::INFINITY;
        let (cluster, _) = session.split_mut();
        let vm = VmId::new(0);
        let target = ServerId::new(
            (cluster.allocation().server_of(vm).get() + 1) % cluster.topo().num_servers() as u32,
        );
        cluster.migrate(vm, target, threshold).unwrap();
        // The sampled cost reflects the mutation immediately …
        let fresh = session.cost_model().total_cost(
            session.cluster().allocation(),
            session.traffic(),
            session.cluster().topo(),
        );
        assert!((session.current_cost() - fresh).abs() <= 1e-9 * fresh.max(1.0));
        // … and the run continues correctly after the resync.
        session.run_to_horizon();
        let fresh = session.cost_model().total_cost(
            session.cluster().allocation(),
            session.traffic(),
            session.cluster().topo(),
        );
        assert!((session.current_cost() - fresh).abs() <= 1e-9 * fresh.max(1.0));
    }

    #[test]
    fn rebind_preserves_resource_specs_and_ledger() {
        use score_core::{ServerSpec, VmSpec};
        // A non-default resource spec must survive a phase rebind (the
        // old implementation rebuilt the cluster with paper defaults).
        let server = ServerSpec {
            vm_slots: 8,
            ..ServerSpec::paper_default()
        };
        let vm = VmSpec {
            ram_mb: 256,
            cpu_cores: 0.5,
        };
        let mut scenario = quick_scenario(PolicyKind::RoundRobin, 23);
        scenario.resources.server = server;
        scenario.resources.vm = vm;
        let mut session = scenario.session().unwrap();
        let num_vms = session.traffic().num_vms();
        let shifted = WorkloadConfig::new(num_vms, 4242).generate();
        session.rebind_traffic(shifted, 60.0, 1).unwrap();
        assert_eq!(session.cluster().server_spec(), &server);
        assert_eq!(session.cluster().vm_spec(VmId::new(0)), &vm);
        // The re-priced ledger lands on the full recomputation.
        let fresh = session.cost_model().total_cost(
            session.cluster().allocation(),
            session.traffic(),
            session.cluster().topo(),
        );
        assert!((session.current_cost() - fresh).abs() <= 1e-9 * fresh.max(1.0));
        assert_eq!(session.initial_cost(), session.current_cost());
        // A population mismatch is rejected and leaves the session usable.
        let bad = WorkloadConfig::new(num_vms + 1, 1).generate();
        assert!(session.rebind_traffic(bad, 60.0, 2).is_err());
        session.run_to_horizon();
        assert!(session.report().final_cost <= session.report().initial_cost + 1e-9);
    }

    #[test]
    fn trace_workload_applies_deltas_mid_run() {
        use crate::spec::TraceSpec;
        use score_trace::DiurnalShape;
        // 120 s of diurnal drift re-rated every second: 119 mid-run
        // deltas, each through the sparse ledger path.
        let mut scenario = quick_scenario(PolicyKind::HighestLevelFirst, 31);
        scenario.workload = crate::spec::WorkloadSpec::Trace {
            spec: TraceSpec::Diurnal {
                num_vms: 64,
                intensity: TrafficIntensity::Sparse,
                seed: 31,
                shape: DiurnalShape {
                    period_s: 60.0,
                    amplitude: 0.5,
                    step_s: 1.0,
                    horizon_s: 120.0,
                },
            },
        };
        let mut session = scenario.session().unwrap();
        assert_eq!(session.trace_segments_remaining(), 0);
        session.run_to_horizon();
        let report = session.report();
        assert_eq!(report.trace.events_applied, 119);
        assert!(report.trace.pairs_repriced > 0);
        assert!(report.trace.apply_ns_max >= 1);
        // Every delta took the sparse path: zero full resyncs, and the
        // ledger still agrees with a fresh recomputation.
        assert_eq!(session.ledger_resyncs(), 0);
        let fresh = session.cost_model().total_cost(
            session.cluster().allocation(),
            session.traffic(),
            session.cluster().topo(),
        );
        assert!(
            (session.current_cost() - fresh).abs() <= 1e-9 * fresh.max(1.0),
            "ledger {} vs fresh {fresh}",
            session.current_cost()
        );
        // The offered traffic at the horizon is the drifted TM, not the
        // base one.
        let base_total = scenario
            .workload
            .generate(session.topo().as_ref())
            .total_rate();
        assert_ne!(session.traffic().total_rate(), base_total);
    }

    #[test]
    fn piecewise_constant_trace_equals_run_phases() {
        use score_trace::Trace;
        // Phases: workload A for 60 s, then workload B for 60 s.
        let scenario = quick_scenario(PolicyKind::HighestLevelFirst, 17);
        let num_vms = 64u32;
        let a = WorkloadConfig::new(num_vms, 1717).generate();
        let b = WorkloadConfig::new(num_vms, 2525).generate();

        // Path 1: explicit phases over a session bound to A.
        let mut phase_scenario = scenario.clone();
        phase_scenario.workload = crate::spec::WorkloadSpec::ExplicitPairs {
            num_vms,
            pairs: a
                .pairs()
                .iter()
                .map(|&(u, v, r)| (u.get(), v.get(), r))
                .collect(),
            seed: scenario.workload.seed(),
        };
        let mut phase_session = phase_scenario.session().unwrap();
        let phase_reports = phase_session
            .run_phases(&[
                TrafficPhase {
                    duration_s: 60.0,
                    traffic: a.clone(),
                },
                TrafficPhase {
                    duration_s: 60.0,
                    traffic: b.clone(),
                },
            ])
            .unwrap();

        // Path 2: the same schedule as a piecewise-constant trace — a
        // marker at 60 s with the full A→B re-rate folded into the
        // second segment's initial TM.
        let mut builder = Trace::builder(num_vms, 120.0)
            .base_traffic(&a)
            .marker(60.0, "phase-2");
        for (u, v, _) in a.pairs() {
            builder = builder.set_rate(60.0, u.get(), v.get(), b.rate(u, v));
        }
        for (u, v, r) in b.pairs() {
            if a.rate(u, v) == 0.0 {
                builder = builder.set_rate(60.0, u.get(), v.get(), r);
            }
        }
        let trace = builder.build().unwrap();
        let mut trace_scenario = scenario;
        trace_scenario.workload = crate::spec::WorkloadSpec::Trace {
            spec: crate::spec::TraceSpec::Literal {
                trace,
                seed: trace_scenario.workload.seed(),
            },
        };
        let mut trace_session = trace_scenario.session().unwrap();
        assert_eq!(trace_session.trace_segments_remaining(), 1);
        let trace_reports = trace_session.run_trace().unwrap();

        assert_eq!(phase_reports.len(), 2);
        assert_eq!(trace_reports, phase_reports, "trace ≡ run_phases");
    }

    #[test]
    fn apply_traffic_deltas_validates_and_reprices() {
        let mut session = quick_scenario(PolicyKind::RoundRobin, 41)
            .session()
            .unwrap();
        session.run(1);
        let (u, v) = (VmId::new(0), VmId::new(1));
        // Invalid updates are rejected without touching the session.
        let before = session.current_cost();
        assert!(session.apply_traffic_deltas(&[(u, u, 1.0)]).is_err());
        assert!(session
            .apply_traffic_deltas(&[(u, VmId::new(9999), 1.0)])
            .is_err());
        assert!(session.apply_traffic_deltas(&[(u, v, -1.0)]).is_err());
        assert!(session.apply_traffic_deltas(&[(u, v, f64::NAN)]).is_err());
        assert_eq!(session.current_cost(), before);
        // A real delta re-prices and matches a fresh recomputation;
        // duplicate entries in one batch: the later wins.
        let changed = session
            .apply_traffic_deltas(&[(u, v, 123.0), (v, u, 456.0)])
            .unwrap();
        assert_eq!(changed, 1);
        assert_eq!(session.traffic().rate(u, v), 456.0);
        let fresh = session.cost_model().total_cost(
            session.cluster().allocation(),
            session.traffic(),
            session.cluster().topo(),
        );
        assert!((session.current_cost() - fresh).abs() <= 1e-9 * fresh.max(1.0));
        assert_eq!(session.trace_stats().events_applied, 1);
        // Setting the same rate again is a counted no-op batch.
        assert_eq!(session.apply_traffic_deltas(&[(u, v, 456.0)]).unwrap(), 0);
        assert_eq!(session.trace_stats().events_applied, 2);
        // And the run continues normally afterwards.
        session.run_to_horizon();
        assert!(session.report().final_cost <= session.report().initial_cost + 1e-9);
    }

    #[test]
    fn traffic_scale_matches_expanded_deltas() {
        // Two identical sessions; one scales in O(1), the other applies
        // the reference: one absolute re-rate per pair. The O(1) side
        // records too — there is no other path to fall back to.
        let scenario = quick_scenario(PolicyKind::RoundRobin, 43);
        let mut slow = scenario.session().unwrap();
        let mut fast = scenario.session().unwrap();
        fast.start_trace_recording();
        fast.run(1);
        slow.run(1);
        let factor = 2.5;
        let swept = fast.apply_traffic_scale(factor).unwrap();
        assert_eq!(swept, fast.traffic().num_pairs());
        let expand = |s: &Session, factor: f64| -> Vec<(VmId, VmId, f64)> {
            s.traffic()
                .pairs()
                .iter()
                .map(|&(u, v, r)| (u, v, (r * factor).min(f64::MAX)))
                .collect()
        };
        slow.apply_traffic_deltas(&expand(&slow, factor)).unwrap();
        // Rates agree exactly; costs and NIC accounting to 1e-9.
        for (u, v, r) in slow.traffic().pairs() {
            assert_eq!(fast.traffic().rate(u, v), r);
        }
        let close = |fast: &Session, slow: &Session| {
            let (cf, cs) = (fast.current_cost(), slow.current_cost());
            assert!((cf - cs).abs() <= 1e-9 * cs.abs().max(1.0), "{cf} vs {cs}");
            assert!(fast.shard_drift() <= 1e-9 * cf.abs().max(1.0));
            for vm in 0..slow.traffic().num_vms() {
                let vm = VmId::new(vm);
                let (df, ds) = (
                    fast.cluster().vm_nic_demand(vm),
                    slow.cluster().vm_nic_demand(vm),
                );
                assert!((df - ds).abs() <= 1e-9 * ds.max(1.0), "{vm}: {df} vs {ds}");
            }
            assert_eq!(fast.ledger_resyncs(), 0);
        };
        close(&fast, &slow);
        // A second scale composes with the first before either is
        // settled; the reference rounds after each.
        fast.apply_traffic_scale(0.3).unwrap();
        slow.apply_traffic_deltas(&expand(&slow, 0.3)).unwrap();
        for (u, v, r) in slow.traffic().pairs() {
            assert!((fast.traffic().rate(u, v) - r).abs() <= 1e-12 * r);
        }
        close(&fast, &slow);
        // Each scale was recorded as the one event it was.
        let recorded = fast.recorded_trace().unwrap();
        assert_eq!(
            recorded
                .events()
                .iter()
                .map(|e| &e.event)
                .collect::<Vec<_>>(),
            [
                &TraceEvent::ScaleAll { factor },
                &TraceEvent::ScaleAll { factor: 0.3 }
            ]
        );
        // Invalid factors are rejected without touching the session.
        assert!(fast.apply_traffic_scale(0.0).is_err());
        assert!(fast.apply_traffic_scale(f64::NAN).is_err());
        assert!(fast.apply_traffic_scale(f64::INFINITY).is_err());
        assert!(fast.apply_traffic_scale(-2.0).is_err());
        assert_eq!(fast.recorded_trace().unwrap(), recorded);
        close(&fast, &slow);
        // Identity factor changes nothing but counts as an event.
        let events_before = fast.trace_stats().events_applied;
        assert_eq!(fast.apply_traffic_scale(1.0).unwrap(), 0);
        assert_eq!(fast.trace_stats().events_applied, events_before + 1);
        // Both sessions keep running normally.
        fast.run_to_horizon();
        slow.run_to_horizon();
        assert_eq!(
            fast.report().migrations.len(),
            slow.report().migrations.len()
        );
    }

    #[test]
    fn ten_thousand_scales_around_a_cycle_leave_no_drift() {
        // Ten diurnal periods of a thousand steps each: the factors
        // multiply to 1, so everything must end where it began.
        let mut session = quick_scenario(PolicyKind::RoundRobin, 47)
            .session()
            .unwrap();
        let base = session.traffic().clone();
        let cost = session.current_cost();
        let envelope = |i: u32| 1.0 + 0.5 * (std::f64::consts::TAU * f64::from(i) / 1000.0).sin();
        for i in 0..10_000 {
            session
                .apply_traffic_scale(envelope(i + 1) / envelope(i))
                .unwrap();
        }
        for ((u, v, got), (_, _, want)) in session.traffic().pairs().into_iter().zip(base.pairs()) {
            assert!(
                (got - want).abs() <= 1e-9 * want,
                "({u}, {v}): {got} vs {want}"
            );
        }
        assert_eq!(session.traffic().num_pairs(), base.num_pairs());
        let fresh = session.cost_model().total_cost(
            session.cluster().allocation(),
            session.traffic(),
            session.cluster().topo(),
        );
        for drifted in [
            session.current_cost() - fresh,
            session.current_cost() - cost,
        ] {
            assert!(drifted.abs() <= 1e-9 * cost, "ledger drifted by {drifted}");
        }
        assert!(session.shard_drift() <= 1e-9 * cost);
        assert_eq!(session.ledger_resyncs(), 0);
        assert_eq!(session.trace_stats().events_applied, 10_000);
    }

    /// A small flash-crowd trace scenario (fast token timing so the
    /// lookahead spans several iterations).
    fn flash_scenario(forecast: crate::spec::ForecastSpec) -> Scenario {
        use score_trace::FlashCrowdShape;
        let mut scenario = quick_scenario(PolicyKind::HighestLevelFirst, 51);
        scenario.workload = crate::spec::WorkloadSpec::Trace {
            spec: TraceSpec::FlashCrowd {
                num_vms: 64,
                intensity: TrafficIntensity::Sparse,
                seed: 51,
                shape: FlashCrowdShape {
                    spikes: 6,
                    fanout: 4,
                    surge_bps: 2e8,
                    hold_s: 20.0,
                    horizon_s: 120.0,
                },
            },
        };
        scenario.forecast = forecast;
        scenario
    }

    #[test]
    fn zero_horizon_forecast_is_bit_identical_to_none() {
        use crate::spec::ForecastSpec;
        // The compatibility invariant, at the session level: an
        // inactive forecast spec (zero horizon) must reproduce the
        // reactive pipeline's report byte for byte — for the online
        // estimator on a static workload and the oracle on a trace.
        let run = |forecast: ForecastSpec, trace: bool| {
            let mut scenario = if trace {
                flash_scenario(forecast)
            } else {
                let mut s = quick_scenario(PolicyKind::HighestCostFirst, 33);
                s.forecast = forecast;
                s
            };
            scenario.timing.t_end_s = 120.0;
            let mut session = scenario.session().unwrap();
            session.run_to_horizon();
            let mut report = session.report();
            // Wall-clock rebind latencies differ between any two runs.
            report.trace.apply_ns_total = 0;
            report.trace.apply_ns_max = 0;
            report.to_json()
        };
        let reactive = run(ForecastSpec::None, false);
        let zero_ewma = run(
            ForecastSpec::Ewma {
                alpha: 0.4,
                horizon_s: 0.0,
            },
            false,
        );
        assert_eq!(reactive, zero_ewma);
        let reactive_trace = run(ForecastSpec::None, true);
        let zero_oracle = run(ForecastSpec::TraceOracle { horizon_s: 0.0 }, true);
        assert_eq!(reactive_trace, zero_oracle);
    }

    #[test]
    fn oracle_forecast_preempts_flash_crowds_and_keeps_the_ledger_exact() {
        use crate::spec::ForecastSpec;
        let mut session = flash_scenario(ForecastSpec::TraceOracle { horizon_s: 30.0 })
            .session()
            .unwrap();
        assert!(session.forecasting());
        session.run_to_horizon();
        let report = session.report();
        assert!(
            report.forecast.preempted > 0,
            "the oracle should act ahead of at least one spike"
        );
        assert_eq!(
            report.forecast.preempted + report.forecast.reactive,
            report.migrations.len() as u64
        );
        assert!(report.forecast.preempted_ratio() > 0.0);
        // Reading ahead never dirties the ledger (regression guard for
        // the outlook path) and the incrementally tracked cost still
        // agrees with a fresh Eq.-(2) pass even though pre-emptive
        // moves applied non-positive current-TM gains.
        assert_eq!(session.ledger_resyncs(), 0);
        let fresh = session.cost_model().total_cost(
            session.cluster().allocation(),
            session.traffic(),
            session.cluster().topo(),
        );
        assert!(
            (session.current_cost() - fresh).abs() <= 1e-9 * fresh.max(1.0),
            "ledger {} vs fresh {fresh}",
            session.current_cost()
        );
    }

    #[test]
    fn ewma_forecast_runs_on_time_varying_workloads() {
        use crate::spec::ForecastSpec;
        let mut session = flash_scenario(ForecastSpec::Ewma {
            alpha: 0.5,
            horizon_s: 20.0,
        })
        .session()
        .unwrap();
        session.run_to_horizon();
        // The estimator must not corrupt anything; pre-emption is
        // possible but not guaranteed for a trend model on square
        // spikes.
        assert_eq!(session.ledger_resyncs(), 0);
        let report = session.report();
        assert_eq!(
            report.forecast.preempted + report.forecast.reactive,
            report.migrations.len() as u64
        );
        let fresh = session.cost_model().total_cost(
            session.cluster().allocation(),
            session.traffic(),
            session.cluster().topo(),
        );
        assert!((session.current_cost() - fresh).abs() <= 1e-9 * fresh.max(1.0));
    }

    #[test]
    fn oracle_forecast_requires_a_trace_workload() {
        use crate::spec::ForecastSpec;
        let mut scenario = quick_scenario(PolicyKind::RoundRobin, 1);
        scenario.forecast = ForecastSpec::TraceOracle { horizon_s: 10.0 };
        assert!(matches!(scenario.session(), Err(ScenarioError::Engine(_))));
        // Invalid forecast parameters are errors, not panics.
        let mut scenario = quick_scenario(PolicyKind::RoundRobin, 1);
        scenario.forecast = ForecastSpec::Ewma {
            alpha: 1.5,
            horizon_s: 10.0,
        };
        assert!(matches!(scenario.session(), Err(ScenarioError::Engine(_))));
        let mut scenario = quick_scenario(PolicyKind::RoundRobin, 1);
        scenario.forecast = ForecastSpec::Ewma {
            alpha: 0.5,
            horizon_s: f64::NAN,
        };
        assert!(matches!(scenario.session(), Err(ScenarioError::Engine(_))));
    }

    #[test]
    fn recorded_trace_replays_the_same_run() {
        // Record a trace-driven run's applied deltas, then replay the
        // recording as a literal trace: decisions must match exactly.
        let scenario = flash_scenario(crate::spec::ForecastSpec::None);
        let mut original = scenario.clone().session().unwrap();
        original.start_trace_recording();
        assert!(original.recording_trace());
        assert!(original.recorded_trace().is_err(), "no time elapsed yet");
        original.run_to_horizon();
        let recorded = original.recorded_trace().unwrap();
        assert!(recorded.num_events() > 0);

        let mut replay_scenario = scenario.clone();
        replay_scenario.workload = crate::spec::WorkloadSpec::Trace {
            spec: TraceSpec::Literal {
                trace: recorded,
                seed: scenario.workload.seed(),
            },
        };
        let mut replayed = replay_scenario.session().unwrap();
        replayed.run_to_horizon();

        let strip = |mut r: RunReport| {
            r.trace.apply_ns_total = 0;
            r.trace.apply_ns_max = 0;
            r
        };
        assert_eq!(
            strip(original.report()),
            strip(replayed.report()),
            "record → replay must reproduce the run"
        );
        assert_eq!(original.traffic(), replayed.traffic());
        // Stopping hands the recorder back.
        assert!(original.stop_trace_recording().is_some());
        assert!(!original.recording_trace());
    }

    #[test]
    fn recording_spans_phase_rebinds() {
        // run_phases rebinds wholesale; the recording captures the
        // boundary as marker + re-rates and replays to the same final
        // TM.
        let mut session = quick_scenario(PolicyKind::RoundRobin, 61)
            .session()
            .unwrap();
        let num_vms = session.traffic().num_vms();
        session.start_trace_recording();
        let a = session.traffic().clone();
        let b = WorkloadConfig::new(num_vms, 717).generate();
        session
            .run_phases(&[
                TrafficPhase {
                    duration_s: 60.0,
                    traffic: a,
                },
                TrafficPhase {
                    duration_s: 60.0,
                    traffic: b.clone(),
                },
            ])
            .unwrap();
        let recorded = session.recorded_trace().unwrap();
        assert_eq!(recorded.num_markers(), 2, "one marker per rebind");
        let compiled = recorded.compile();
        assert_eq!(
            compiled.segments.last().unwrap().initial,
            b,
            "the recorded boundary re-rates reproduce the phase TM"
        );
    }

    #[test]
    fn report_mid_run_then_final() {
        let mut session = quick_scenario(PolicyKind::HighestLevelFirst, 12)
            .session()
            .unwrap();
        session.run(1);
        let mid = session.report();
        assert_eq!(mid.iterations.len(), 1);
        session.run_to_horizon();
        let fin = session.report();
        assert!(fin.token_holds >= mid.token_holds);
        assert!(fin.final_cost <= mid.final_cost + 1e-9);
    }

    #[test]
    fn infeasible_placement_is_an_error() {
        // 20 VMs per host cannot fit 16 slots.
        let scenario = Scenario::builder().vms_per_host(20.0).build();
        assert!(matches!(
            scenario.session(),
            Err(ScenarioError::Placement(_))
        ));
    }

    #[test]
    fn live_churn_keeps_the_ledger_exact_without_resyncs() {
        let mut session = quick_scenario(PolicyKind::RoundRobin, 21)
            .session()
            .unwrap();
        session.run(1);
        let before = session.current_cost();
        let (vm, host) = session.place_vm(None).unwrap();
        assert_eq!(vm.get(), session.cluster().num_vms() - 1);
        assert_eq!(session.cluster().allocation().server_of(vm), host);
        // A newcomer idles at zero rate: C_A is untouched.
        assert_eq!(session.current_cost(), before);
        session
            .apply_traffic_deltas(&[(vm, VmId::new(0), 4e6)])
            .unwrap();
        session.run(1);
        session.remove_vm(VmId::new(1)).unwrap();
        assert!(!session.cluster().is_active(VmId::new(1)));
        session.run(1);
        assert_eq!(
            session.ledger_resyncs(),
            0,
            "churn must stay on the sparse repricing path"
        );
        let exact = session.cost_model().total_cost(
            session.cluster().allocation(),
            session.traffic(),
            session.cluster().topo(),
        );
        let got = session.current_cost();
        assert!(
            (got - exact).abs() <= 1e-6 * exact.abs().max(1.0),
            "incremental {got} vs full recompute {exact}"
        );
    }

    #[test]
    fn churn_rejects_dead_or_unknown_vms() {
        let mut session = quick_scenario(PolicyKind::RoundRobin, 22)
            .session()
            .unwrap();
        let n = session.cluster().num_vms();
        session.remove_vm(VmId::new(0)).unwrap();
        assert!(session.remove_vm(VmId::new(0)).is_err(), "double remove");
        assert!(session.remove_vm(VmId::new(n + 7)).is_err(), "out of range");
        assert!(
            session
                .apply_traffic_deltas(&[(VmId::new(0), VmId::new(1), 1e6)])
                .is_err(),
            "deltas must not resurrect a departed VM"
        );
    }

    #[test]
    fn removing_every_vm_drains_the_run_cleanly() {
        let mut session = quick_scenario(PolicyKind::RoundRobin, 23)
            .session()
            .unwrap();
        let n = session.cluster().num_vms();
        for v in 0..n {
            session.remove_vm(VmId::new(v)).unwrap();
        }
        assert_eq!(session.cluster().num_active(), 0);
        // The ledger is a running sum; zeroing every pair leaves only
        // floating-point residue behind.
        assert!(session.current_cost().abs() <= 1e-9 * session.initial_cost().abs().max(1.0));
        session.run_to_horizon();
        assert!(session.horizon_reached());
        assert_eq!(session.ledger_resyncs(), 0);
        // The cluster keeps accepting arrivals after the horizon (the
        // daemon mutates state between runs); ids stay dense.
        let (vm, _) = session.place_vm(None).unwrap();
        assert_eq!(vm.get(), n);
    }

    #[test]
    fn replayed_arrival_must_name_the_next_dense_id() {
        use score_trace::TraceEvent;

        let mut session = quick_scenario(PolicyKind::RoundRobin, 30)
            .session()
            .unwrap();
        let n = session.traffic().num_vms();
        for wrong in [n + 1, 0] {
            let err = session
                .apply_trace_event(&TraceEvent::PlaceVm {
                    vm: wrong,
                    server: 0,
                })
                .unwrap_err();
            assert!(err.to_string().contains("next arrival"), "{err}");
            assert_eq!(session.traffic().num_vms(), n, "unchanged on error");
        }
        session
            .apply_trace_event(&TraceEvent::PlaceVm { vm: n, server: 0 })
            .unwrap();
        assert_eq!(session.traffic().num_vms(), n + 1);
    }

    #[test]
    fn recorded_churn_replays_identically() {
        let mut live = quick_scenario(PolicyKind::HighestLevelFirst, 31)
            .session()
            .unwrap();
        live.start_trace_recording();
        live.run(1);
        live.drain_to_boundary();
        let (vm, _) = live.place_vm(None).unwrap();
        live.apply_traffic_deltas(&[(vm, VmId::new(2), 8e6)])
            .unwrap();
        live.run(1);
        live.drain_to_boundary();
        live.remove_vm(VmId::new(0)).unwrap();
        live.run_to_horizon();
        let trace = live.recorded_trace().unwrap();
        let live_report = live.report();

        let mut replay = quick_scenario(PolicyKind::HighestLevelFirst, 31)
            .session()
            .unwrap();
        replay.run_storm(trace.events()).unwrap();
        replay.run_to_horizon();
        let strip = |mut r: RunReport| {
            r.trace.apply_ns_total = 0;
            r.trace.apply_ns_max = 0;
            r
        };
        assert_eq!(
            strip(live_report),
            strip(replay.report()),
            "a recorded churn session must replay byte-for-byte"
        );
        assert_eq!(replay.ledger_resyncs(), 0);
    }

    mod fault_tests {
        use super::*;
        use score_trace::{fault_storm_events, FaultSpec, TraceEvent};

        /// From-scratch Eq.-(2) recomputation, the exactness oracle.
        fn recomputed(session: &Session) -> f64 {
            session.cost_model().total_cost(
                session.cluster().allocation(),
                session.traffic(),
                session.cluster().topo(),
            )
        }

        fn assert_ledger_exact(session: &Session) {
            let truth = recomputed(session);
            assert!(
                (session.current_cost() - truth).abs() <= 1e-9 * truth.abs().max(1.0),
                "ledger drifted: {} vs {truth}",
                session.current_cost()
            );
            assert_eq!(session.ledger_resyncs(), 0, "fault paths must not resync");
        }

        #[test]
        fn host_crash_evacuates_with_exact_repricing() {
            let mut session = quick_scenario(PolicyKind::RoundRobin, 41)
                .session()
                .unwrap();
            session.run(1);
            session.drain_to_boundary();
            let server = session.cluster().allocation().server_of(VmId::new(0));
            let victims = session.cluster().allocation().vms_on(server).len();
            assert!(victims > 0);

            let outcome = session
                .apply_fault(&TraceEvent::HostCrash {
                    server: server.get(),
                })
                .unwrap();
            assert_eq!(outcome.hosts_failed, vec![server]);
            assert_eq!(outcome.evacuated.len() + outcome.unplaceable.len(), victims);
            assert!(!session.cluster().host_is_up(server));
            // Every live VM sits on a live host, including the evacuees.
            for v in 0..session.cluster().num_vms() {
                let vm = VmId::new(v);
                if session.cluster().is_active(vm) {
                    let host = session.cluster().allocation().server_of(vm);
                    assert!(
                        session.cluster().host_is_up(host),
                        "{vm} left on dead {host}"
                    );
                }
            }
            assert_ledger_exact(&session);

            // A second crash of the same host is a recorded no-op fault.
            let again = session
                .apply_fault(&TraceEvent::HostCrash {
                    server: server.get(),
                })
                .unwrap();
            assert!(again.hosts_failed.is_empty());

            session.run_to_horizon();
            assert_ledger_exact(&session);
            let recovery = session.report().recovery;
            assert!(!recovery.is_clean());
            assert_eq!(recovery.faults_injected, 2);
            assert_eq!(recovery.hosts_down, 1);
            assert_eq!(recovery.evacuations, outcome.evacuated.len() as u64);
            assert!(
                recovery.slo_violating_s > 0.0,
                "down host must charge the SLO clock"
            );
            assert!(recovery.time_to_stable_s >= 0.0);
        }

        #[test]
        fn rack_fail_is_a_correlated_sweep() {
            let mut session = quick_scenario(PolicyKind::HighestLevelFirst, 43)
                .session()
                .unwrap();
            session.run(1);
            session.drain_to_boundary();
            let rack = session
                .topo()
                .rack_of(session.cluster().allocation().server_of(VmId::new(1)));
            let outcome = session
                .apply_fault(&TraceEvent::RackFail { rack: rack.get() })
                .unwrap();
            let servers: Vec<_> = session.topo().servers_in_rack(rack).collect();
            assert_eq!(
                outcome.hosts_failed.len(),
                servers.len(),
                "every server of the rack fails"
            );
            for s in servers {
                assert!(!session.cluster().host_is_up(ServerId::new(s)));
            }
            assert_ledger_exact(&session);

            // Out-of-range racks are rejected, session unchanged.
            let down_before = session.cluster().num_hosts_down();
            assert!(matches!(
                session.apply_fault(&TraceEvent::RackFail { rack: 9999 }),
                Err(ScenarioError::Workload(_))
            ));
            assert_eq!(session.cluster().num_hosts_down(), down_before);
        }

        #[test]
        fn link_degrade_charges_the_slo_clock_until_restored() {
            let mut session = quick_scenario(PolicyKind::RoundRobin, 47)
                .session()
                .unwrap();
            session
                .apply_fault(&TraceEvent::LinkDegrade {
                    tier: 0,
                    factor: 0.5,
                })
                .unwrap();
            assert_eq!(session.degraded_tiers(), vec![(0, 0.5)]);
            assert_eq!(session.cluster().nic_capacity_factor(), 0.5);
            session.run_to_horizon();
            let degraded = session.report().recovery;
            assert!(degraded.slo_violating_s > 0.0);
            assert_eq!(degraded.hosts_down, 0);

            // Restore lifts the degradation and the clock stops.
            session
                .apply_fault(&TraceEvent::LinkRestore { tier: 0 })
                .unwrap();
            assert!(session.degraded_tiers().is_empty());
            assert_eq!(session.cluster().nic_capacity_factor(), 1.0);

            // Invalid factors are rejected before any state changes.
            for bad in [0.0, -0.25, 1.5, f64::NAN] {
                assert!(matches!(
                    session.apply_fault(&TraceEvent::LinkDegrade {
                        tier: 0,
                        factor: bad,
                    }),
                    Err(ScenarioError::Workload(_))
                ));
            }
            assert!(matches!(
                session.apply_fault(&TraceEvent::Marker {
                    label: "not a fault".into(),
                }),
                Err(ScenarioError::Workload(_))
            ));
        }

        #[test]
        fn losing_every_rack_degrades_gracefully() {
            let mut session = quick_scenario(PolicyKind::RoundRobin, 53)
                .session()
                .unwrap();
            session.run(1);
            session.drain_to_boundary();
            let racks = session.topo().num_racks() as u32;
            for rack in 0..racks {
                session.apply_fault(&TraceEvent::RackFail { rack }).unwrap();
            }
            // No live server remains: every VM was retired as unplaceable
            // (earlier racks' victims evacuate; the last survivors can't).
            assert_eq!(session.cluster().num_active(), 0);
            let recovery = session.recovery_stats();
            assert!(recovery.unplaceable_vms > 0);
            assert!(
                session.current_cost().abs() <= 1e-9 * session.initial_cost().abs().max(1.0),
                "an empty cluster carries no communication cost"
            );
            // The dead ring terminates instead of spinning.
            session.run_to_horizon();
            assert!(session.horizon_reached());
            assert_eq!(session.ledger_resyncs(), 0);
        }

        #[test]
        fn fault_storm_keeps_the_ledger_exact() {
            let spec = FaultSpec {
                num_servers: 160,
                num_racks: 32,
                host_crashes: 3,
                rack_fails: 1,
                degradations: 2,
                degrade_factor: 0.4,
                degrade_hold_s: 20.0,
                max_tier: 1,
                horizon_s: 100.0,
            };
            let storm = fault_storm_events(&spec, 7).unwrap();
            assert!(!storm.is_empty());
            let mut session = quick_scenario(PolicyKind::HighestLevelFirst, 59)
                .session()
                .unwrap();
            for ev in &storm {
                while session.next_event_time().is_some_and(|t| t <= ev.time_s) {
                    if session.step().is_none() {
                        break;
                    }
                }
                session.apply_fault(&ev.event).unwrap();
                assert_ledger_exact(&session);
            }
            session.run_to_horizon();
            assert_ledger_exact(&session);
            assert_eq!(
                session.report().recovery.faults_injected,
                storm.len() as u64
            );
        }

        #[test]
        fn recorded_fault_run_replays_identically() {
            let spec = FaultSpec {
                num_servers: 160,
                num_racks: 32,
                host_crashes: 2,
                rack_fails: 1,
                degradations: 1,
                degrade_factor: 0.6,
                degrade_hold_s: 30.0,
                max_tier: 0,
                horizon_s: 90.0,
            };
            let storm = fault_storm_events(&spec, 11).unwrap();

            let mut live = quick_scenario(PolicyKind::HighestLevelFirst, 61)
                .session()
                .unwrap();
            live.start_trace_recording();
            for ev in &storm {
                while live.next_event_time().is_some_and(|t| t <= ev.time_s) {
                    if live.step().is_none() {
                        break;
                    }
                }
                live.apply_fault(&ev.event).unwrap();
            }
            live.run_to_horizon();
            let trace = live.recorded_trace().unwrap();
            assert!(trace.has_faults());
            let live_report = live.report();
            assert!(!live_report.recovery.is_clean());

            // Only the fault events are in the log — their consequences
            // (evacuations, retirements) are re-derived on replay.
            assert_eq!(trace.events().len(), storm.len());

            let mut replay = quick_scenario(PolicyKind::HighestLevelFirst, 61)
                .session()
                .unwrap();
            for ev in trace.events() {
                while replay.next_event_time().is_some_and(|t| t <= ev.time_s) {
                    if replay.step().is_none() {
                        break;
                    }
                }
                replay.apply_trace_event(&ev.event).unwrap();
            }
            replay.run_to_horizon();
            let strip = |mut r: RunReport| {
                r.trace.apply_ns_total = 0;
                r.trace.apply_ns_max = 0;
                r
            };
            assert_eq!(
                strip(live_report),
                strip(replay.report()),
                "a recorded adversity log must replay byte-for-byte"
            );
            assert_eq!(replay.ledger_resyncs(), 0);
        }

        #[test]
        fn scale_pair_on_dead_endpoint_is_a_validated_noop() {
            let mut session = quick_scenario(PolicyKind::RoundRobin, 67)
                .session()
                .unwrap();
            session.remove_vm(VmId::new(0)).unwrap();
            let cost = session.current_cost();
            // Scaling a pair whose endpoint departed must not resurrect it…
            session
                .apply_trace_event(&TraceEvent::ScalePair {
                    u: 0,
                    v: 1,
                    factor: 2.0,
                })
                .unwrap();
            assert_eq!(session.traffic().rate(VmId::new(0), VmId::new(1)), 0.0);
            assert_eq!(session.current_cost(), cost);
            // …and out-of-range endpoints are equally inert.
            session
                .apply_trace_event(&TraceEvent::ScalePair {
                    u: 10_000,
                    v: 1,
                    factor: 0.5,
                })
                .unwrap();
            // An absolute re-rate of a dead VM stays a hard error.
            assert!(session
                .apply_trace_event(&TraceEvent::SetRate {
                    u: 0,
                    v: 1,
                    rate: 1e6,
                })
                .is_err());
        }
    }

    mod churn_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Satellite regression pin: across arbitrary interleavings
            /// of placements, departures, live deltas and token holds,
            /// the cost ledger never pays a full resync and still agrees
            /// with a from-scratch Eq.-(2) recomputation.
            #[test]
            fn churn_never_resyncs_and_stays_exact(
                ops in prop::collection::vec((0u8..4, 0u32..64, 0u32..64, 1u32..100), 1..24),
            ) {
                let mut session = quick_scenario(PolicyKind::RoundRobin, 17)
                    .session()
                    .unwrap();
                for &(kind, a, b, r) in &ops {
                    let n = session.cluster().num_vms();
                    match kind {
                        0 => {
                            let _ = session.place_vm(None);
                        }
                        1 => {
                            let _ = session.remove_vm(VmId::new(a % n));
                        }
                        2 => {
                            let u = VmId::new(a % n);
                            let v = VmId::new(b % n);
                            if u != v
                                && session.cluster().is_active(u)
                                && session.cluster().is_active(v)
                            {
                                session
                                    .apply_traffic_deltas(&[(u, v, f64::from(r) * 1e5)])
                                    .unwrap();
                            }
                        }
                        _ => {
                            let _ = session.step();
                        }
                    }
                    prop_assert_eq!(session.ledger_resyncs(), 0);
                }
                let exact = session.cost_model().total_cost(
                    session.cluster().allocation(),
                    session.traffic(),
                    session.cluster().topo(),
                );
                let got = session.current_cost();
                prop_assert!(
                    (got - exact).abs() <= 1e-6 * exact.abs().max(1.0),
                    "ledger {} vs exact {}", got, exact
                );
            }
        }
    }
}
