//! Traffic application: sparse TM deltas, uniform scales and a compiled
//! trace's batches on the event clock, plus the forecaster every applied
//! change is shown to.

use score_topology::VmId;
use score_trace::{OracleForecaster, ShiftRun, TraceEvent, TraceSegment, TrafficDelta};
use score_traffic::{EwmaForecaster, PairTraffic, RateForecaster};

use super::Session;
use crate::report::{RunReport, TraceReplayStats};
use crate::spec::{ForecastSpec, ScenarioError};

/// The session-owned forecaster: one of the two `RateForecaster`
/// implementations, kept as a concrete enum so the trace-driven variant
/// can be fed the compiled run (the trait has no lookahead-loading
/// surface — measurement-driven forecasters have nothing to load).
#[derive(Debug)]
pub(super) enum SessionForecaster {
    /// Online EWMA linear-trend estimation over applied deltas.
    Ewma(EwmaForecaster),
    /// Exact lookahead into the compiled trace delta stream.
    Oracle(OracleForecaster),
}

impl SessionForecaster {
    /// The forecaster `spec` asks for, primed on the TM (or the compiled
    /// trace run) the session opens with. An inactive spec (None or zero
    /// horizon) builds no forecaster at all — the bit-compatibility
    /// contract, not an optimization.
    pub(super) fn build(
        spec: &ForecastSpec,
        traffic: &PairTraffic,
        run: Option<&TraceSegment>,
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
                match run {
                    Some(run) => f.load_segment(run),
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
    /// Puts a compiled trace's delta batches on the event clock as one
    /// sorted run and rewinds the cursor [`Session::apply_next_shift`]
    /// walks them with.
    pub(super) fn load_shifts(&mut self, shifts: ShiftRun) {
        debug_assert!(
            shifts.iter().all(|b| b.at_s < self.horizon_s),
            "compile keeps the batches inside the trace's horizon only"
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
    /// duplicates within one batch: the later entry wins). The session's
    /// TM is patched per pair, the cluster drops the memoized NIC loads
    /// of the changed pairs' hosts and the cost ledger is re-priced per
    /// changed pair — no full Eq.-(2) pass, no cluster rebuild — so
    /// `C_A(t)` reacts to traffic *between* samples at O(changed-pairs)
    /// cost. This is the path every trace event takes; external callers
    /// (benches, custom drivers) may invoke it directly.
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
        self.tally.trace_stats.count_batch(changed);
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

    /// Lands a staged, non-empty delta on the session's TM and tells the
    /// cluster, the ledger and whoever is listening.
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
        // absorbed — O(changed pairs), like everything else here, and
        // mapped as it goes, with no buffer of its own.
        if let Some(f) = &mut self.forecaster {
            let mut observed = changes.iter().map(|&(u, v, _, new)| (u, v, new));
            f.as_dyn_mut().observe_updates(&mut observed, now_s);
        }
        self.queue_forecast_evals(changes.iter().map(|&(u, v, _, _)| (u, v)), now_s);
        self.recording.log(now_s, |rec, at_s| {
            rec.record_updates(
                at_s,
                changes
                    .iter()
                    .map(|&(u, v, _, new)| (u.get(), v.get(), new)),
            );
        });
    }

    /// Applies a uniform `ScaleAll` traffic shift: every live pair's
    /// rate is multiplied by `factor`, saturating at `f64::MAX`. `C_A` is
    /// linear in `λ`, so nothing is re-priced pair by pair: the TM takes
    /// the factor as a pending multiplier its reads fold in, the
    /// cluster's memoized host NIC loads and the cost ledger are
    /// multiplied through — O(servers), the same
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
                if self.tally.forecast_evals.len() < MAX_FORECAST_EVALS {
                    let mut moved = f.as_dyn().known_pairs();
                    moved.sort_unstable();
                    moved.retain(|&(u, v)| self.traffic.rate(u, v) != 0.0);
                    self.queue_forecast_evals(moved, now_s);
                }
            }
            self.recording
                .log(now_s, |rec, at_s| rec.record_scale(at_s, factor));
        }
        self.tally.trace_stats.count_batch(repriced);
        Ok(repriced)
    }

    /// Trace-replay bookkeeping of the run (all zeros for static
    /// workloads).
    pub fn trace_stats(&self) -> TraceReplayStats {
        self.tally.trace_stats
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
            if self.tally.forecast_evals.len() >= MAX_FORECAST_EVALS {
                break;
            }
            let predicted = f.as_dyn().predict(u, v, now_s, horizon_s);
            self.tally.forecast_evals.push_back((due, u, v, predicted));
        }
    }

    /// Settles every pending forecast evaluation whose due time has
    /// passed: the rate predicted at `due − horizon` for `due` is
    /// compared against the realized rate (pair rates are
    /// piecewise-constant between batches, so the current rate *is* the
    /// realized rate at any already-passed due time).
    pub(super) fn settle_forecast_evals(&mut self, now_s: f64) {
        while let Some(&(due, u, v, predicted)) = self.tally.forecast_evals.front() {
            if due > now_s {
                break;
            }
            self.tally.forecast_evals.pop_front();
            let realized = self.traffic.rate(u, v);
            let err = predicted - realized;
            self.tally.forecast_err.0 += 1;
            self.tally.forecast_err.1 += err.abs();
            self.tally.forecast_err.2 += err;
        }
    }

    /// Returns `Ok(false)`: a trace is one run, so there is no next
    /// segment to advance to. Kept, with its old signature, only because
    /// the performance harness still calls it
    /// (`benchmark/src/sim_workloads.rs`); ROADMAP item 5 moves that
    /// caller to [`Session::run_to_horizon`] and deletes this method.
    ///
    /// # Errors
    ///
    /// Never.
    #[doc(hidden)]
    pub fn advance_trace_segment(&mut self) -> Result<bool, ScenarioError> {
        Ok(false)
    }

    /// [`Session::run_to_horizon`], then the one [`Session::report`] in a
    /// `Vec`. Kept, with its old signature, only because the performance
    /// harness still calls it (`benchmark/src/sim_workloads.rs`); ROADMAP
    /// item 5 moves that caller to `run_to_horizon` and `report` and
    /// deletes this method.
    ///
    /// # Errors
    ///
    /// Never.
    #[doc(hidden)]
    pub fn run_trace(&mut self) -> Result<Vec<RunReport>, ScenarioError> {
        self.run_to_horizon();
        Ok(vec![self.report()])
    }
}
