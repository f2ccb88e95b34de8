//! The two side channels of a session: trace capture (every applied
//! mutation recorded back into a replayable [`Trace`]) and obs
//! publishing (counters and gauges mirrored at the sampling cadence).

use score_obs::{Counter, Gauge, Histogram, ObsHandle};
use score_trace::{Trace, TraceRecorder};
use std::sync::Arc;

use super::Session;
use crate::spec::ScenarioError;

/// Trace capture: the recorder, when recording is on, and its clock.
#[derive(Debug, Default)]
pub(super) struct Recording {
    /// Captures applied TM deltas back into a replayable trace when
    /// recording is on.
    recorder: Option<TraceRecorder>,
    /// Recording clock: simulated seconds elapsed before the current
    /// segment (the event clock restarts per rebind; the recorder's
    /// must not).
    pub(super) offset_s: f64,
}

impl Recording {
    /// Runs `write` on the recorder, when one is on, with the event
    /// clock's `now_s` translated to the recording clock.
    pub(super) fn log(&mut self, now_s: f64, write: impl FnOnce(&mut TraceRecorder, f64)) {
        if let Some(rec) = &mut self.recorder {
            write(rec, self.offset_s + now_s);
        }
    }
}

/// Pre-resolved session-level instruments. Counters mirror the in-state
/// accumulators (`trace_stats`, `forecast_err`) and are published at the
/// sampling cadence — the delta hot path itself never touches an atomic.
#[derive(Debug)]
pub(super) struct SessionObs {
    pub(super) handle: ObsHandle,
    /// `score_clock_s`: current event-clock position.
    clock: Arc<Gauge>,
    /// `score_trace_events_total`: applied delta batches.
    events: Arc<Counter>,
    /// `score_pairs_repriced_total`: pair rates re-priced.
    pairs: Arc<Counter>,
    /// `score_segment_advances_total`: trace-segment boundaries crossed.
    pub(super) segments: Arc<Counter>,
    /// `score_segment_rebind_ns`: wall time of each phase rebind.
    pub(super) rebind_ns: Arc<Histogram>,
    /// `score_forecast_evals_total`, `score_forecast_mae`,
    /// `score_forecast_bias`: the per-pair forecast-error surface.
    forecast_evals: Arc<Counter>,
    forecast_mae: Arc<Gauge>,
    forecast_bias: Arc<Gauge>,
    /// The `score_recovery_*` adversity series: fault/evacuation/
    /// unplaceable counters plus hosts-down, SLO-seconds and
    /// time-to-stable gauges.
    recovery_faults: Arc<Counter>,
    recovery_evacuations: Arc<Counter>,
    recovery_unplaceable: Arc<Counter>,
    recovery_hosts_down: Arc<Gauge>,
    recovery_slo: Arc<Gauge>,
    recovery_tts: Arc<Gauge>,
    /// Counter values already published (counters are monotonic; the
    /// in-state accumulators reset per segment, so we track the diff).
    pub(super) published: Published,
}

/// The per-segment totals behind the six counters, as last published.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Published {
    events: u64,
    pairs: u64,
    evals: u64,
    faults: u64,
    evacuations: u64,
    unplaceable: u64,
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
            published: Published::default(),
            handle: handle.clone(),
        })
    }
}

impl Session {
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
    pub(super) fn publish_obs(&mut self, t: f64) {
        let Some(obs) = &mut self.obs else {
            return;
        };
        let seg = &self.seg;
        let (n, abs_sum, sum) = seg.forecast_err;
        let now = Published {
            events: seg.trace_stats.events_applied,
            pairs: seg.trace_stats.pairs_repriced,
            evals: n,
            faults: seg.recovery.faults_injected,
            evacuations: seg.recovery.evacuations,
            unplaceable: seg.recovery.unplaceable_vms,
        };
        let was = std::mem::replace(&mut obs.published, now);
        obs.clock.set(t);
        obs.events.add(now.events - was.events);
        obs.pairs.add(now.pairs - was.pairs);
        obs.forecast_evals.add(now.evals - was.evals);
        if n > 0 {
            obs.forecast_mae.set(abs_sum / n as f64);
            obs.forecast_bias.set(sum / n as f64);
        }
        obs.recovery_faults.add(now.faults - was.faults);
        obs.recovery_evacuations
            .add(now.evacuations - was.evacuations);
        obs.recovery_unplaceable
            .add(now.unplaceable - was.unplaceable);
        obs.recovery_hosts_down
            .set(f64::from(self.cluster.num_hosts_down()));
        obs.recovery_slo.set(seg.recovery.slo_violating_s);
        obs.recovery_tts.set(seg.time_to_stable_s());
        self.ledger.publish_obs();
    }

    /// Starts capturing every applied TM delta into a replayable
    /// [`Trace`] seeded with the *current* TM; the recording clock
    /// starts at 0 now and keeps running across phase/segment rebinds
    /// (each recorded as a marker + boundary re-rates). Restarting
    /// recording discards the previous capture.
    pub fn start_trace_recording(&mut self) {
        self.recording = Recording {
            recorder: Some(TraceRecorder::new(&self.traffic)),
            offset_s: -self.queue.now_s(),
        };
    }

    /// The recorder itself, for incremental JSONL streaming
    /// ([`TraceRecorder::append_jsonl`]).
    pub fn trace_recorder_mut(&mut self) -> Option<&mut TraceRecorder> {
        self.recording.recorder.as_mut()
    }

    /// Closes the active recording into a validated [`Trace`] lasting
    /// until the current simulated instant. Recording continues.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Workload`] when nothing is recording or
    /// no simulated time has elapsed yet (a zero-length trace cannot
    /// exist).
    pub fn recorded_trace(&self) -> Result<Trace, ScenarioError> {
        let rec = self
            .recording
            .recorder
            .as_ref()
            .ok_or_else(|| ScenarioError::Workload("the session is not recording".into()))?;
        rec.finish(self.recording.offset_s + self.queue.now_s())
            .map_err(|e| ScenarioError::Workload(format!("recorded trace is unusable: {e}")))
    }
}
