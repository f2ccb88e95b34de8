//! Discrete-event machinery of the flow-level simulator.
//!
//! A minimal, deterministic event queue: events fire in time order, ties
//! broken by insertion sequence (so same-timestamp events are FIFO, as in
//! ns-3's scheduler).

use score_topology::VmId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Events the S-CORE scenario simulator processes.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// The token arrives at (the dom0 of) a VM.
    TokenArrive {
        /// The VM receiving the token.
        vm: VmId,
    },
    /// Periodic cost sampling tick.
    Sample,
    /// A trace-driven traffic delta fires: the session applies the next
    /// pending update batch in place (sparse ledger re-pricing), between
    /// token holds and cost samples.
    TrafficShift,
    /// A live migration finished moving a VM (the allocation switched at
    /// decision time; this only advances the clock to the completion).
    MigrationComplete,
    /// End of simulation.
    End,
}

#[derive(Debug, Clone)]
struct Scheduled {
    time_s: f64,
    seq: u64,
    event: SimEvent,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time_s == other.time_s && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap and we want the
        // earliest event first.
        other
            .time_s
            .total_cmp(&self.time_s)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic time-ordered event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
    now_s: f64,
}

impl EventQueue {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `time_s`.
    ///
    /// # Panics
    ///
    /// Panics if `time_s` is in the past or not finite.
    pub fn schedule_at(&mut self, time_s: f64, event: SimEvent) {
        assert!(time_s.is_finite(), "event time must be finite");
        assert!(
            time_s >= self.now_s,
            "cannot schedule into the past ({time_s} < {})",
            self.now_s
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { time_s, seq, event });
    }

    /// Schedules `event` `delay_s` seconds from now.
    pub fn schedule_in(&mut self, delay_s: f64, event: SimEvent) {
        self.schedule_at(self.now_s + delay_s, event);
    }

    /// Timestamp of the earliest pending event, without popping it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.time_s)
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, SimEvent)> {
        let s = self.heap.pop()?;
        self.now_s = s.time_s;
        Some((s.time_s, s.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(5.0, SimEvent::Sample);
        q.schedule_at(1.0, SimEvent::TokenArrive { vm: VmId::new(0) });
        q.schedule_at(3.0, SimEvent::End);
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
        assert_eq!(q.now_s(), 5.0);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        q.schedule_at(1.0, SimEvent::TokenArrive { vm: VmId::new(1) });
        q.schedule_at(1.0, SimEvent::TokenArrive { vm: VmId::new(2) });
        let (_, e1) = q.pop().unwrap();
        let (_, e2) = q.pop().unwrap();
        assert_eq!(e1, SimEvent::TokenArrive { vm: VmId::new(1) });
        assert_eq!(e2, SimEvent::TokenArrive { vm: VmId::new(2) });
    }

    #[test]
    fn relative_scheduling_advances_with_clock() {
        let mut q = EventQueue::new();
        q.schedule_in(2.0, SimEvent::Sample);
        q.pop();
        q.schedule_in(2.0, SimEvent::End);
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, 4.0);
        assert_eq!(e, SimEvent::End);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn past_scheduling_rejected() {
        let mut q = EventQueue::new();
        q.schedule_at(5.0, SimEvent::Sample);
        q.pop();
        q.schedule_at(1.0, SimEvent::End);
    }

    #[test]
    fn empty_queue() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }
}
