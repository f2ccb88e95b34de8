//! Bounded ring-buffer journal of structured decision traces.
//!
//! The journal answers "what did the token do recently?" without grepping a
//! trace file: every token hold appends a [`DecisionTrace`] (candidates
//! scored, accept/reject, gain, ledger delta magnitude, preemptive flag) and
//! the ring keeps the last `capacity` entries, counting what it evicted. A
//! mutex guards the ring — pushes are rare (one per token hold, microseconds
//! apart) compared to metric increments, so contention is a non-issue.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::registry::json_escape;

/// One structured journal entry.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// A token hold: the holder scored its candidates and accepted or
    /// rejected a migration.
    Decision(DecisionTrace),
    /// A traffic-delta batch was applied to the live traffic matrix.
    TrafficDeltas {
        /// Event-clock time of the batch (seconds).
        at_s: f64,
        /// Trace events lowered into this batch.
        events: u64,
        /// Pairs whose rate changed.
        pairs: u64,
    },
    /// A trace segment boundary was crossed (phase rebind).
    SegmentAdvance {
        /// Event-clock time of the boundary (seconds).
        at_s: f64,
    },
    /// Free-form marker (daemon lifecycle, subscriber drops...).
    Note(String),
}

/// Decision-trace payload for one token hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionTrace {
    /// Event-clock time of the hold (seconds).
    pub at_s: f64,
    /// VM id holding the token.
    pub holder: u64,
    /// Candidate destinations scored under Theorem 1.
    pub candidates: u32,
    /// Whether a migration was accepted.
    pub accepted: bool,
    /// Communication-cost gain of the accepted move (0 when rejected).
    pub gain: f64,
    /// Magnitude of the Lemma-3 delta applied to the cost ledger.
    pub ledger_delta: f64,
    /// True when the move was justified by the forecast envelope rather
    /// than the current traffic matrix.
    pub preemptive: bool,
}

/// One journal slot: a monotonically increasing sequence number plus the
/// event. Sequence numbers survive eviction, so a reader can detect gaps.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Position in the append stream (starts at 0, never reused).
    pub seq: u64,
    /// The recorded event.
    pub event: ObsEvent,
}

struct Ring {
    entries: VecDeque<JournalEntry>,
    next_seq: u64,
    evicted: u64,
}

/// Bounded ring buffer of [`JournalEntry`] values.
pub struct Journal {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl Journal {
    /// New journal retaining at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            ring: Mutex::new(Ring {
                entries: VecDeque::new(),
                next_seq: 0,
                evicted: 0,
            }),
        }
    }

    /// Maximum retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append an event, evicting the oldest entry when full.
    pub fn push(&self, event: ObsEvent) {
        let mut ring = self.ring.lock().unwrap();
        if ring.entries.len() == self.capacity {
            ring.entries.pop_front();
            ring.evicted += 1;
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.entries.push_back(JournalEntry { seq, event });
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().entries.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted by the bound so far.
    pub fn evicted(&self) -> u64 {
        self.ring.lock().unwrap().evicted
    }

    /// The most recent `n` entries, oldest first.
    pub fn recent(&self, n: usize) -> Vec<JournalEntry> {
        let ring = self.ring.lock().unwrap();
        let skip = ring.entries.len().saturating_sub(n);
        ring.entries.iter().skip(skip).cloned().collect()
    }

    /// Render the most recent `n` entries as a JSON array, oldest first.
    pub fn recent_json(&self, n: usize) -> String {
        let mut out = String::from("[");
        for (i, e) in self.recent(n).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push(']');
        out
    }
}

fn fin(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl JournalEntry {
    /// Render as a single JSON object `{"seq":..,"kind":..,...}`.
    pub fn to_json(&self) -> String {
        match &self.event {
            ObsEvent::Decision(d) => format!(
                "{{\"seq\":{},\"kind\":\"decision\",\"at_s\":{},\"holder\":{},\"candidates\":{},\"accepted\":{},\"gain\":{},\"ledger_delta\":{},\"preemptive\":{}}}",
                self.seq,
                fin(d.at_s),
                d.holder,
                d.candidates,
                d.accepted,
                fin(d.gain),
                fin(d.ledger_delta),
                d.preemptive,
            ),
            ObsEvent::TrafficDeltas { at_s, events, pairs } => format!(
                "{{\"seq\":{},\"kind\":\"traffic_deltas\",\"at_s\":{},\"events\":{events},\"pairs\":{pairs}}}",
                self.seq,
                fin(*at_s),
            ),
            ObsEvent::SegmentAdvance { at_s } => format!(
                "{{\"seq\":{},\"kind\":\"segment_advance\",\"at_s\":{}}}",
                self.seq,
                fin(*at_s),
            ),
            ObsEvent::Note(s) => format!(
                "{{\"seq\":{},\"kind\":\"note\",\"note\":\"{}\"}}",
                self.seq,
                json_escape(s),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_seq() {
        let j = Journal::new(3);
        for i in 0..5 {
            j.push(ObsEvent::Note(format!("n{i}")));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.evicted(), 2);
        let recent = j.recent(10);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].seq, 2);
        assert_eq!(recent[2].seq, 4);
        assert_eq!(recent[2].event, ObsEvent::Note("n4".into()));
    }

    #[test]
    fn recent_json_is_wellformed_array() {
        let j = Journal::new(8);
        j.push(ObsEvent::Decision(DecisionTrace {
            at_s: 1.5,
            holder: 7,
            candidates: 12,
            accepted: true,
            gain: 3.25,
            ledger_delta: -3.25,
            preemptive: false,
        }));
        j.push(ObsEvent::SegmentAdvance { at_s: 2.0 });
        let json = j.recent_json(2);
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"kind\":\"decision\""), "{json}");
        assert!(json.contains("\"preemptive\":false"), "{json}");
        assert!(json.contains("\"kind\":\"segment_advance\""), "{json}");
    }
}
