//! Traffic application: sparse TM deltas, uniform scales, and the
//! segment machinery of trace workloads (rebind at a marker, advance,
//! [`Session::run_trace`]), plus the forecaster every applied change is
//! shown to.

use rand::rngs::StdRng;
use rand::SeedableRng;
use score_topology::VmId;
use score_trace::{OracleForecaster, ShiftRun, TraceEvent, TraceSegment, TrafficDelta};
use score_traffic::{EwmaForecaster, PairTraffic, RateForecaster};
use std::time::Instant;

use super::{build_ring, SegmentRecord, Session};
use crate::events::EventQueue;
use crate::report::{RunReport, TraceReplayStats};
use crate::spec::{ForecastSpec, ScenarioError};

/// The session-owned forecaster: one of the two `RateForecaster`
/// implementations, kept as a concrete enum so the trace-driven variant
/// can be fed compiled segments (the trait has no lookahead-loading
/// surface — measurement-driven forecasters have nothing to load).
#[derive(Debug)]
pub(super) enum SessionForecaster {
    /// Online EWMA linear-trend estimation over applied deltas.
    Ewma(EwmaForecaster),
    /// Exact lookahead into the compiled trace delta stream.
    Oracle(OracleForecaster),
}

impl SessionForecaster {
    /// The forecaster `spec` asks for, primed on the TM (or the trace
    /// segment) the session opens with. An inactive spec (None or zero
    /// horizon) builds no forecaster at all — the bit-compatibility
    /// contract, not an optimization.
    pub(super) fn build(
        spec: &ForecastSpec,
        traffic: &PairTraffic,
        segment: Option<&TraceSegment>,
    ) -> Option<Self> {
        match *spec {
            _ if !spec.is_active() => None,
            ForecastSpec::Ewma { alpha, .. } => {
                let mut f = EwmaForecaster::new(alpha);
                f.prime(traffic, 0.0);
                Some(SessionForecaster::Ewma(f))
            }
            ForecastSpec::TraceOracle { .. } => {
                let mut f = OracleForecaster::new();
                match segment {
                    Some(seg) => f.load_segment(seg),
                    None => f.prime(traffic, 0.0),
                }
                Some(SessionForecaster::Oracle(f))
            }
            ForecastSpec::None => unreachable!("None is never active"),
        }
    }

    pub(super) fn as_dyn(&self) -> &dyn RateForecaster {
        match self {
            SessionForecaster::Ewma(f) => f,
            SessionForecaster::Oracle(f) => f,
        }
    }

    pub(super) fn as_dyn_mut(&mut self) -> &mut dyn RateForecaster {
        match self {
            SessionForecaster::Ewma(f) => f,
            SessionForecaster::Oracle(f) => f,
        }
    }
}

/// Bound on forecasts awaiting their horizon (see
/// `Session::queue_forecast_evals`).
const MAX_FORECAST_EVALS: usize = 65_536;

/// The two buffers a sparse delta is staged in, kept by the session so a
/// batch that changes nothing but rates allocates nothing.
#[derive(Debug, Default)]
pub(super) struct DeltaScratch {
    /// The batch canonicalized (`u < v`), sorted, later-entry-wins.
    canon: Vec<(VmId, VmId, f64)>,
    /// The entries of `canon` that move a rate: `(u, v, old, new)`.
    changes: Vec<(VmId, VmId, f64, f64)>,
}

/// What a sparse delta does about an update naming a departed VM.
#[derive(Clone, Copy, PartialEq)]
enum Departed {
    /// Refuse the whole batch — a live driver's bug.
    Reject,
    /// Drop the update: the batch was compiled before the VM left.
    Skip,
}

impl Session {
    /// Puts a segment's delta batches on the event clock as one sorted
    /// run (segment time starts at the queue's current zero) and rewinds
    /// the cursor [`Session::apply_next_shift`] walks them with.
    pub(super) fn load_shifts(&mut self, shifts: ShiftRun) {
        debug_assert!(
            shifts.iter().all(|b| b.at_s < self.horizon_s),
            "compile keeps the batches inside the segment's horizon only"
        );
        self.queue.schedule_shifts(shifts.iter().map(|b| b.at_s));
        self.shifts = shifts;
        self.next_shift = 0;
    }

    /// Applies the scheduled batch a popped `TrafficShift` stands for:
    /// the run fires in batch order, so it is the cursor's. A re-rate
    /// whose endpoint departed after the trace was compiled
    /// ([`Session::remove_vm`], a crash that retired the VM) is dropped —
    /// the batch still counts as applied and nothing is resurrected, the
    /// rule a `ScalePair` on a dead endpoint follows.
    pub(super) fn apply_next_shift(&mut self) {
        // Out of `self` for the call: the updates are borrowed from it.
        let shifts = std::mem::take(&mut self.shifts);
        let batch = shifts[self.next_shift];
        self.next_shift += 1;
        match batch.delta {
            TrafficDelta::Rates(range) => self.apply_deltas(shifts.updates(range), Departed::Skip),
            TrafficDelta::ScaleAll(factor) => self.apply_traffic_scale(factor),
        }
        .expect("trace deltas are validated at materialization");
        self.shifts = shifts;
    }

    /// Applies a batch of absolute-rate traffic updates **in place**,
    /// without resetting the clock, ring, or report accumulators: each
    /// `(u, v, new_rate)` entry replaces λ(u, v) (`0` removes the pair;
    /// duplicates within one batch: the later entry wins). The cluster's
    /// copy of the rates is patched per changed pair and the cost ledger
    /// is re-priced per changed pair — no full Eq.-(2) pass, no cluster
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
        self.apply_deltas(updates, Departed::Reject)
    }

    fn apply_deltas(
        &mut self,
        updates: &[(VmId, VmId, f64)],
        departed: Departed,
    ) -> Result<usize, ScenarioError> {
        let start = Instant::now();
        let mut scratch = std::mem::take(&mut self.delta_scratch);
        let applied = self
            .stage_deltas(updates, departed, &mut scratch)
            .map(|()| {
                if !scratch.changes.is_empty() {
                    self.commit_deltas(&scratch);
                }
                scratch.changes.len()
            });
        self.delta_scratch = scratch;
        let changed = applied?;
        self.seg.trace_stats.count_batch(changed, start);
        Ok(changed)
    }

    /// Validates `updates` and fills `scratch`: the canonical,
    /// deduplicated batch and the rate changes it makes. Touches nothing
    /// else, so an error leaves the session as it was.
    fn stage_deltas(
        &self,
        updates: &[(VmId, VmId, f64)],
        departed: Departed,
        scratch: &mut DeltaScratch,
    ) -> Result<(), ScenarioError> {
        let DeltaScratch { canon, changes } = scratch;
        canon.clear();
        changes.clear();
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
                if departed == Departed::Skip {
                    continue;
                }
                return Err(ScenarioError::Workload(format!(
                    "traffic delta pair ({u}, {v}) names a departed VM"
                )));
            }
            if !rate.is_finite() || rate < 0.0 {
                return Err(ScenarioError::Workload(format!(
                    "traffic delta pair ({u}, {v}) has invalid rate {rate}"
                )));
            }
            canon.push(if u < v { (u, v, rate) } else { (v, u, rate) });
        }
        // Later-entry-wins, and drop no-ops.
        canon.sort_by_key(|&(u, v, _)| (u, v));
        canon.dedup_by(|later, earlier| {
            let dup = (later.0, later.1) == (earlier.0, earlier.1);
            if dup {
                earlier.2 = later.2;
            }
            dup
        });
        changes.extend(canon.iter().filter_map(|&(u, v, new)| {
            let old = self.traffic.rate(u, v);
            (old != new).then_some((u, v, old, new))
        }));
        Ok(())
    }

    /// Lands a staged, non-empty delta on the cluster, the ledger, the
    /// session's TM and whoever is listening.
    fn commit_deltas(&mut self, scratch: &DeltaScratch) {
        let DeltaScratch { canon, changes } = scratch;
        self.cluster.patch_traffic(changes);
        self.ledger
            .apply_rate_changes(self.cluster.allocation(), changes, self.cluster.topo());
        // Settle forecast evaluations that came due *before* the new
        // rates land: the realized rate at any passed due time is
        // the pre-batch rate (piecewise-constant between batches).
        let now_s = self.queue.now_s();
        self.settle_forecast_evals(now_s);
        self.traffic.apply_updates(canon);
        // The forecaster observes exactly the stream the cluster
        // absorbed — O(changed pairs), like everything else here.
        if let Some(f) = &mut self.forecaster {
            let observed: Vec<(VmId, VmId, f64)> =
                changes.iter().map(|&(u, v, _, new)| (u, v, new)).collect();
            f.as_dyn_mut().observe_updates(&observed, now_s);
        }
        self.queue_forecast_evals(changes.iter().map(|&(u, v, _, _)| (u, v)), now_s);
        self.recording.log(now_s, |rec, at_s| {
            let recorded: Vec<(u32, u32, f64)> = changes
                .iter()
                .map(|&(u, v, _, new)| (u.get(), v.get(), new))
                .collect();
            rec.record_updates(at_s, &recorded);
        });
    }

    /// Applies a uniform `ScaleAll` traffic shift: every live pair's
    /// rate is multiplied by `factor`, saturating at `f64::MAX`. `C_A` is
    /// linear in `λ`, so nothing is re-priced pair by pair: the traffic
    /// stores take the factor as a pending multiplier their reads fold
    /// in, the cluster's memoized host NIC loads and the cost ledger with
    /// its shards are multiplied through — O(servers + racks), the same
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
                if self.seg.forecast_evals.len() < MAX_FORECAST_EVALS {
                    let mut moved = f.as_dyn().known_pairs();
                    moved.sort_unstable();
                    moved.retain(|&(u, v)| self.traffic.rate(u, v) != 0.0);
                    self.queue_forecast_evals(moved, now_s);
                }
            }
            self.recording
                .log(now_s, |rec, at_s| rec.record_scale(at_s, factor));
        }
        self.seg.trace_stats.count_batch(repriced, start);
        Ok(repriced)
    }

    /// Trace-replay bookkeeping for the current segment (all zeros for
    /// static workloads).
    pub fn trace_stats(&self) -> TraceReplayStats {
        self.seg.trace_stats
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
        let horizon_s = self.scenario.forecast.horizon_s();
        let due = now_s + horizon_s;
        for (u, v) in pairs {
            if self.seg.forecast_evals.len() >= MAX_FORECAST_EVALS {
                break;
            }
            let predicted = f.as_dyn().predict(u, v, now_s, horizon_s);
            self.seg.forecast_evals.push_back((due, u, v, predicted));
        }
    }

    /// Settles every pending forecast evaluation whose due time has
    /// passed: the rate predicted at `due − horizon` for `due` is
    /// compared against the realized rate (pair rates are
    /// piecewise-constant between batches, so the current rate *is* the
    /// realized rate at any already-passed due time).
    pub(super) fn settle_forecast_evals(&mut self, now_s: f64) {
        while let Some(&(due, u, v, predicted)) = self.seg.forecast_evals.front() {
            if due > now_s {
                break;
            }
            self.seg.forecast_evals.pop_front();
            let realized = self.traffic.rate(u, v);
            let err = predicted - realized;
            self.seg.forecast_err.0 += 1;
            self.seg.forecast_err.1 += err.abs();
            self.seg.forecast_err.2 += err;
        }
    }

    /// Advances a trace-driven session to its next segment (phase-marker
    /// boundary) — the paper's "always-on" TM shift, and the one way to
    /// ask for a wholesale one ([`score_trace::Trace::piecewise`]
    /// scripts them). The session rebinds to the segment's initial TM
    /// **in place**: clock, queue, ring and report accumulators restart
    /// (segment *i* is reseeded with `scenario.seed + i`), the
    /// allocation carries over, the cluster takes the new rates and the
    /// cost ledger is re-priced over the changed pairs only; then the
    /// segment's delta batches are scheduled. Returns
    /// `false` when no segments remain (including on static workloads).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Cluster`] if the segment's TM describes
    /// a different VM population than the session now holds — a trace
    /// is validated at materialization, so this takes live churn
    /// ([`Session::place_vm`]) with segments still queued. The session,
    /// the queued segment included, is unchanged on error.
    pub fn advance_trace_segment(&mut self) -> Result<bool, ScenarioError> {
        let Some(next) = self.trace_segments.front() else {
            return Ok(false);
        };
        let sw = self
            .obs
            .as_ref()
            .map(|o| o.handle.stopwatch())
            .unwrap_or_default();
        // Bind before anything else moves: this is the one step that
        // can fail, and it leaves the cluster untouched when it does.
        self.cluster.rebind_traffic(&next.initial)?;
        let seg = self.trace_segments.pop_front().expect("peeked above");
        self.segment_index += 1;
        let now_s = self.queue.now_s();
        if let Some(obs) = &self.obs {
            obs.segments.inc();
            obs.handle
                .journal_push(score_obs::ObsEvent::SegmentAdvance { at_s: now_s });
        }
        // Counters mirror per-segment accumulators about to reset; flush
        // the unpublished tail first so totals stay monotonic.
        self.publish_obs(now_s);
        // The recording clock keeps running across the rebind even
        // though the event clock restarts; the wholesale re-rate is
        // captured as a marker + per-pair deltas at the boundary.
        let old_traffic = std::mem::replace(&mut self.traffic, seg.initial.clone());
        self.recording.log(now_s, |rec, at_s| {
            rec.record_rebind(at_s, "rebind", &old_traffic, &self.traffic);
        });
        self.recording.offset_s += now_s;
        self.ledger.rebind(
            self.cluster.allocation(),
            &old_traffic,
            &self.traffic,
            self.cluster.topo(),
        );
        // Forecaster state restarts with the segment, like ring and
        // policy state do (the new clock starts at 0); the oracle reads
        // ahead into the freshly bound segment.
        if let Some(f) = &mut self.forecaster {
            f.as_dyn_mut().prime(&self.traffic, 0.0);
            if let SessionForecaster::Oracle(oracle) = f {
                oracle.load_segment(&seg);
            }
        }
        let seed = self.scenario.seed.wrapping_add(self.segment_index);
        self.ring = build_ring(&self.scenario, &self.model, seed, self.traffic.num_vms());
        self.rng = StdRng::seed_from_u64(seed);
        self.queue = EventQueue::new();
        self.horizon_s = seg.duration_s;
        self.finished = false;
        self.initial_cost = self.ledger.current();
        self.seg = SegmentRecord::default();
        self.prime_queue();
        self.load_shifts(seg.shifts);
        if let Some(obs) = &mut self.obs {
            // The per-segment accumulators restarted; realign the
            // published-counter watermarks with them.
            obs.published = Default::default();
            if let Some(ns) = sw.elapsed_ns() {
                obs.rebind_ns.record(ns);
            }
            // The ring was rebuilt for the new segment; re-attach it.
            self.ring.attach_obs(&obs.handle);
        }
        Ok(true)
    }

    /// Runs a trace-driven session to the end of its trace: each
    /// segment runs to its horizon and yields one report, and the next
    /// starts from the allocation it ended on. On a static workload
    /// this is `run_to_horizon` plus a single report.
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
}
