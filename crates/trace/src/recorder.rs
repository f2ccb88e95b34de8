//! Trace *recording*: capturing the traffic deltas a live run actually
//! applied back into a replayable [`Trace`] (ROADMAP open item).
//!
//! A [`TraceRecorder`] is seeded with the TM a session started on and
//! fed every applied re-rate batch and uniform scale.
//! [`TraceRecorder::finish`] closes the stream into a validated
//! [`Trace`], so a measured run replays through the same
//! compile → delta-batch machinery as a synthetic one —
//! including the oracle forecaster, which can then "read ahead" into a
//! recorded production trace.
//!
//! Recording composes with the JSONL persistence format by design:
//! JSONL appends cleanly, so a long-running caller can stream the tail
//! of [`TraceRecorder::events`] to a log as it grows
//! ([`crate::jsonl::write_event_lines`]) instead of holding its output
//! hostage until the end.

use score_traffic::PairTraffic;

use crate::trace::{TimedEvent, Trace, TraceError, TraceEvent};

/// Captures applied traffic deltas into a replayable [`Trace`] (see the
/// module docs). Event times are recorded on an absolute clock that
/// starts at 0 when the recorder is created; the driver is responsible
/// for feeding monotonically non-decreasing times (the session event
/// clock already is one).
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    num_vms: u32,
    base: Vec<(u32, u32, f64)>,
    events: Vec<TimedEvent>,
}

impl TraceRecorder {
    /// Starts recording over the TM the run begins on.
    pub fn new(base: &PairTraffic) -> Self {
        TraceRecorder {
            num_vms: base.num_vms(),
            base: base
                .pairs()
                .iter()
                .map(|&(u, v, r)| (u.get(), v.get(), r))
                .collect(),
            events: Vec::new(),
        }
    }

    /// The recorded population.
    pub fn num_vms(&self) -> u32 {
        self.num_vms
    }

    /// Number of events captured so far.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// The events captured so far, in recording order — live consumers
    /// (daemon subscribers) read the tail incrementally by index.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// True when nothing has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Records one applied batch of absolute re-rates at `at_s`: each
    /// `(u, v, new_rate)` entry becomes a [`TraceEvent::SetRate`].
    pub fn record_updates(
        &mut self,
        at_s: f64,
        updates: impl IntoIterator<Item = (u32, u32, f64)>,
    ) {
        self.events
            .extend(updates.into_iter().map(|(u, v, rate)| TimedEvent {
                time_s: at_s,
                event: TraceEvent::SetRate { u, v, rate },
            }));
    }

    /// Records one applied uniform scale at `at_s` as the
    /// [`TraceEvent::ScaleAll`] it was: the recording stays O(events)
    /// and a replay repeats the very multiplication the live run did.
    pub fn record_scale(&mut self, at_s: f64, factor: f64) {
        self.events.push(TimedEvent {
            time_s: at_s,
            event: TraceEvent::ScaleAll { factor },
        });
    }

    /// Records a VM arrival at `at_s` (a [`TraceEvent::PlaceVm`]): `vm`
    /// must be the next dense id of the recorded population at that
    /// point in the stream, and `server` the host the placement manager
    /// chose — recording the decision keeps replay deterministic even
    /// if the choice heuristic changes.
    pub fn record_place(&mut self, at_s: f64, vm: u32, server: u32) {
        self.events.push(TimedEvent {
            time_s: at_s,
            event: TraceEvent::PlaceVm { vm, server },
        });
    }

    /// Records a VM departure at `at_s` (a [`TraceEvent::RemoveVm`]).
    /// Callers record the zeroing re-rates of the VM's surviving pairs
    /// *before* this (the session's remove path applies them as an
    /// ordinary delta batch), so a recorded stream always removes an
    /// already-quiet VM.
    pub fn record_remove(&mut self, at_s: f64, vm: u32) {
        self.events.push(TimedEvent {
            time_s: at_s,
            event: TraceEvent::RemoveVm { vm },
        });
    }

    /// Records one applied fault event at `at_s` (`HostCrash` /
    /// `RackFail` / `LinkDegrade` / `LinkRestore`). The fault's
    /// *consequences* — evacuation migrations, unplaceable-VM
    /// retirements — are deterministic functions of the session state
    /// and are deliberately **not** recorded: replaying the fault
    /// re-derives them, which is what keeps an adversity log byte-stable
    /// without encoding the placement manager's choices twice.
    ///
    /// # Panics
    ///
    /// Panics if `event` is not a fault variant.
    pub fn record_fault(&mut self, at_s: f64, event: TraceEvent) {
        assert!(event.is_fault(), "record_fault takes fault events only");
        self.events.push(TimedEvent {
            time_s: at_s,
            event,
        });
    }

    /// Closes the recording into a validated [`Trace`] lasting `end_s`
    /// seconds (callers pass the total recorded duration; it must cover
    /// every captured event).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when the captured stream violates trace
    /// invariants (e.g. a non-positive duration, or an `end_s` before
    /// the last event).
    pub fn finish(&self, end_s: f64) -> Result<Trace, TraceError> {
        Trace::new(self.num_vms, end_s, self.base.clone(), self.events.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TrafficDelta;
    use score_topology::VmId;
    use score_traffic::PairTrafficBuilder;

    fn tm(pairs: &[(u32, u32, f64)]) -> PairTraffic {
        let mut b = PairTrafficBuilder::new(4);
        for &(u, v, r) in pairs {
            b.add(VmId::new(u), VmId::new(v), r);
        }
        b.build()
    }

    #[test]
    fn recorded_stream_round_trips_through_compile() {
        let base = tm(&[(0, 1, 10.0), (2, 3, 5.0)]);
        let mut rec = TraceRecorder::new(&base);
        assert!(rec.is_empty());
        rec.record_updates(10.0, [(0, 1, 50.0)]);
        rec.record_updates(20.0, [(2, 3, 0.0), (0, 2, 7.0)]);
        rec.record_scale(25.0, 1.5);
        let trace = rec.finish(30.0).unwrap();
        assert_eq!(trace.num_events(), 4);
        let compiled = trace.compile();
        assert_eq!(compiled.segments.len(), 1);
        assert_eq!(compiled.segments[0].initial, base);
        // One batch per recorded event (same-instant events stay
        // separate batches; the replay outcome is identical).
        assert_eq!(compiled.num_shifts(), 4);
        // `Ok` = the re-rates of a `Rates` batch, `Err` = a scale factor.
        let rates = |u, v, r| Ok(vec![(VmId::new(u), VmId::new(v), r)]);
        let run = &compiled.segments[0].shifts;
        let deltas: Vec<Result<Vec<_>, f64>> = run
            .iter()
            .map(|b| match b.delta {
                TrafficDelta::Rates(range) => Ok(run.updates(range).to_vec()),
                TrafficDelta::ScaleAll(factor) => Err(factor),
            })
            .collect();
        assert_eq!(
            deltas,
            [
                rates(0, 1, 50.0),
                rates(2, 3, 0.0),
                rates(0, 2, 7.0),
                Err(1.5)
            ]
        );
    }

    #[test]
    fn finish_validates() {
        let rec = TraceRecorder::new(&tm(&[(0, 1, 1.0)]));
        assert!(rec.finish(0.0).is_err(), "zero duration is invalid");
        let mut rec = TraceRecorder::new(&tm(&[(0, 1, 1.0)]));
        rec.record_updates(50.0, [(0, 1, 2.0)]);
        assert!(rec.finish(10.0).is_err(), "end before the last event");
        assert!(rec.finish(50.0).is_ok());
    }
}
