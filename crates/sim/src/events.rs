//! Discrete-event machinery of the flow-level simulator.
//!
//! A minimal, deterministic event queue: events fire in time order, ties
//! broken by insertion sequence (so same-timestamp events are FIFO, as in
//! ns-3's scheduler). A trace segment's delta batches arrive already
//! sorted, a million at a time, so they do not go through the heap: the
//! queue holds their firing times as one sorted run and merges it with
//! the heap by the same `(time, sequence)` key.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Events the S-CORE scenario simulator processes.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// The token arrives at (the dom0 of) the ring's current holder.
    TokenArrive,
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
    /// Firing times of the loaded [`SimEvent::TrafficShift`] run, sorted;
    /// entry `i` carries sequence number `run_seq + i`.
    run: Vec<f64>,
    /// Index of the run's next unfired entry.
    run_next: usize,
    /// Sequence number of the run's first entry.
    run_seq: u64,
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
        self.heap.len() + self.run.len() - self.run_next
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Schedules one [`SimEvent::TrafficShift`] at each of `times_s`,
    /// which must be sorted — exactly what a [`EventQueue::schedule_at`]
    /// per entry would do, the order of same-timestamp events included
    /// (the run takes its block of sequence numbers here, so an event
    /// scheduled earlier fires before a run entry of the same time and
    /// one scheduled later after it), but O(1) per entry to load and to
    /// pop, and 8 bytes each.
    ///
    /// # Panics
    ///
    /// Panics if a time is not finite, in the past or before its
    /// predecessor, or if an earlier run still has unfired entries.
    pub fn schedule_shifts(&mut self, times_s: impl IntoIterator<Item = f64>) {
        assert!(
            self.run_next == self.run.len(),
            "the previous shift run has not drained"
        );
        self.run.clear();
        self.run.extend(times_s);
        let mut prev = self.now_s;
        for &time_s in &self.run {
            assert!(time_s.is_finite(), "event time must be finite");
            assert!(
                time_s >= prev,
                "shift run is unsorted or starts in the past ({time_s} < {prev})"
            );
            prev = time_s;
        }
        self.run_next = 0;
        self.run_seq = self.seq;
        self.seq += self.run.len() as u64;
    }

    /// Firing time of the run's next entry when it precedes everything
    /// in the heap by `(time, sequence)`.
    fn run_head(&self) -> Option<f64> {
        let &time_s = self.run.get(self.run_next)?;
        let seq = self.run_seq + self.run_next as u64;
        let first = self.heap.peek().is_none_or(|top| {
            time_s
                .total_cmp(&top.time_s)
                .then_with(|| seq.cmp(&top.seq))
                .is_lt()
        });
        first.then_some(time_s)
    }

    /// Timestamp of the earliest pending event, without popping it.
    pub fn peek_time(&self) -> Option<f64> {
        self.run_head()
            .or_else(|| self.heap.peek().map(|s| s.time_s))
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, SimEvent)> {
        let (time_s, event) = match self.run_head() {
            Some(time_s) => {
                self.run_next += 1;
                (time_s, SimEvent::TrafficShift)
            }
            None => {
                let s = self.heap.pop()?;
                (s.time_s, s.event)
            }
        };
        self.now_s = time_s;
        Some((time_s, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(5.0, SimEvent::Sample);
        q.schedule_at(1.0, SimEvent::TokenArrive);
        q.schedule_at(3.0, SimEvent::End);
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
        assert_eq!(q.now_s(), 5.0);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        q.schedule_at(1.0, SimEvent::TokenArrive);
        q.schedule_at(1.0, SimEvent::MigrationComplete);
        let (_, e1) = q.pop().unwrap();
        let (_, e2) = q.pop().unwrap();
        assert_eq!(e1, SimEvent::TokenArrive);
        assert_eq!(e2, SimEvent::MigrationComplete);
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
    fn shift_run_ties_are_fifo_across_run_and_heap() {
        let mut q = EventQueue::new();
        q.schedule_at(2.0, SimEvent::Sample); // before the run: fires first
        q.schedule_shifts([1.0, 2.0, 2.0, 3.0]);
        q.schedule_at(2.0, SimEvent::End); // after the run: fires last
        assert_eq!(q.len(), 6);
        assert_eq!(q.peek_time(), Some(1.0));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            [
                (1.0, SimEvent::TrafficShift),
                (2.0, SimEvent::Sample),
                (2.0, SimEvent::TrafficShift),
                (2.0, SimEvent::TrafficShift),
                (2.0, SimEvent::End),
                (3.0, SimEvent::TrafficShift),
            ]
        );
        assert!(q.is_empty());
        // A drained run makes room for the next one.
        q.schedule_shifts([3.0, 4.5]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic(expected = "unsorted")]
    fn unsorted_shift_run_rejected() {
        EventQueue::new().schedule_shifts([2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "has not drained")]
    fn second_shift_run_needs_the_first_drained() {
        let mut q = EventQueue::new();
        q.schedule_shifts([1.0]);
        q.schedule_shifts([2.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The oracle is the all-heap queue: a run pushed one
        /// `schedule_at` per entry, the only form there was before the
        /// sorted run. Times sit on a quarter-second grid over a few
        /// seconds, so ties between run entries, heap entries scheduled
        /// before the run and heap entries scheduled after it are the
        /// common case; heap entries cycle through the four other event
        /// kinds, so one swapped with a neighbour or a run entry shows.
        #[test]
        fn shift_run_pops_in_the_all_heap_order(
            ops in prop::collection::vec((0u8..4, 0u32..12), 0..60),
            run in prop::collection::vec(0u32..4, 0..24),
            load_at in 0usize..60,
        ) {
            let mut merged = EventQueue::new();
            let mut all_heap = EventQueue::new();
            let kinds = [
                SimEvent::TokenArrive,
                SimEvent::Sample,
                SimEvent::MigrationComplete,
                SimEvent::End,
            ];
            let load = |merged: &mut EventQueue, all_heap: &mut EventQueue| {
                let mut at_s = merged.now_s();
                let times: Vec<f64> = run
                    .iter()
                    .map(|&gap| {
                        at_s += f64::from(gap) * 0.25;
                        at_s
                    })
                    .collect();
                merged.schedule_shifts(times.iter().copied());
                for &t in &times {
                    all_heap.schedule_at(t, SimEvent::TrafficShift);
                }
            };
            for (i, &(kind, arg)) in ops.iter().enumerate() {
                if i == load_at {
                    load(&mut merged, &mut all_heap);
                }
                let delay_s = f64::from(arg) * 0.25;
                let event = kinds[i % kinds.len()].clone();
                match kind {
                    0 => {
                        let at_s = merged.now_s() + delay_s;
                        merged.schedule_at(at_s, event.clone());
                        all_heap.schedule_at(at_s, event);
                    }
                    1 => {
                        merged.schedule_in(delay_s, event.clone());
                        all_heap.schedule_in(delay_s, event);
                    }
                    _ => prop_assert_eq!(merged.pop(), all_heap.pop()),
                }
                prop_assert_eq!(merged.len(), all_heap.len());
                prop_assert_eq!(merged.peek_time(), all_heap.peek_time());
                prop_assert_eq!(merged.now_s(), all_heap.now_s());
            }
            if load_at >= ops.len() {
                load(&mut merged, &mut all_heap);
            }
            while let Some(expected) = all_heap.pop() {
                prop_assert_eq!(merged.peek_time(), Some(expected.0));
                prop_assert_eq!(merged.pop(), Some(expected));
                prop_assert_eq!(merged.len(), all_heap.len());
            }
            prop_assert!(merged.is_empty());
            prop_assert_eq!(merged.pop(), None);
        }
    }

    #[test]
    fn empty_queue() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }
}
