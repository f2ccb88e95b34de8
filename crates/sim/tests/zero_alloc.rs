//! Counting-allocator proof that the sparse trace-replay path makes
//! **zero heap allocations** per batch (the companion of
//! `crates/core/tests/zero_alloc.rs`, which pins the decision path).
//!
//! A churn trace is a million single-pair batches; each one is a pop off
//! the event queue's shift run plus one `Session::apply_traffic_deltas`.
//! The session stages a batch in two buffers it keeps, the cluster feeds
//! its TM update by update and the run is popped by index — so once the
//! buffers have seen a batch of the size, re-rating live pairs must not
//! touch the allocator. A regression here puts `malloc`/`free` back on a
//! path that does half a microsecond of work per batch. A recording
//! session (the daemon's) may grow its recorder's event list, and
//! nothing else.

use score_sim::{EventQueue, Scenario, SimEvent};
use score_topology::VmId;
use score_traffic::TrafficIntensity;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Delegates to the system allocator, counting every `alloc`/`realloc`.
struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocator calls made while `work` runs.
fn allocs_during(work: impl FnOnce()) -> usize {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    work();
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

// One test function: the counter is process-wide, and a second test
// running beside it would be counted too.
#[test]
fn sparse_replay_does_not_allocate() {
    // No forecaster, no recorder, no obs: the replay configuration.
    let mut session = Scenario::small_canonical(TrafficIntensity::Sparse, 0xa110c)
        .session()
        .expect("the preset is feasible");
    let pairs = session.traffic().pairs();
    assert!(pairs.len() >= 8, "the workload has pairs to re-rate");

    // Warm-up: one batch of the largest size used below brings the two
    // staging buffers to their high-water mark.
    let batch_of = |k: usize, bump: f64| -> Vec<(VmId, VmId, f64)> {
        pairs[k..k + 4]
            .iter()
            .map(|&(u, v, rate)| (v, u, rate * bump))
            .collect()
    };
    session.apply_traffic_deltas(&batch_of(0, 1.5)).unwrap();

    // Single-pair batches over every live pair, the churn trace's shape,
    // then four-pair batches: none may allocate.
    let quads: Vec<_> = (0..pairs.len() - 4)
        .map(|k| batch_of(k, 3.0 + k as f64))
        .collect();
    let mut changed = 0;
    let steady = allocs_during(|| {
        for &(u, v, rate) in &pairs {
            changed += session.apply_traffic_deltas(&[(u, v, rate * 2.0)]).unwrap();
        }
        for batch in &quads {
            changed += session.apply_traffic_deltas(batch).unwrap();
        }
    });
    assert_eq!(changed, pairs.len() + 4 * quads.len());
    assert_eq!(
        steady, 0,
        "re-rating live pairs performed {steady} heap allocations"
    );

    // The one allowed exception: a pair that does not exist yet is an
    // insert into two sorted peer lists in each of the two TM stores a
    // session keeps; a list that is full has to grow. Bounded, and only
    // on inserts.
    let (a, b) = (0..session.traffic().num_vms())
        .flat_map(|a| (a + 1..session.traffic().num_vms()).map(move |b| (a, b)))
        .map(|(a, b)| (VmId::new(a), VmId::new(b)))
        .find(|&(a, b)| session.traffic().rate(a, b) == 0.0)
        .expect("a sparse TM has a silent pair");
    let insert = allocs_during(|| {
        session.apply_traffic_deltas(&[(a, b, 1e6)]).unwrap();
    });
    assert!(
        insert <= 2 * 2,
        "one insert performed {insert} heap allocations"
    );

    // A recording session (the daemon's configuration) logs each re-rate
    // straight into the recorder's event list: its amortised growth is
    // the only allocation, never one per call.
    session.start_trace_recording();
    let mut rerated = 0;
    let recorded = allocs_during(|| {
        for i in 0..10_000 {
            let (u, v, rate) = pairs[i % pairs.len()];
            let bumped = rate * (4.0 + i as f64);
            rerated += session.apply_traffic_deltas(&[(u, v, bumped)]).unwrap();
        }
    });
    assert_eq!(rerated, 10_000);
    assert_eq!(session.trace_recorder_mut().unwrap().num_events(), 10_000);
    assert!(
        recorded <= 32,
        "10,000 recorded re-rates performed {recorded} heap allocations"
    );

    // The event queue: a loaded run pops by index, whatever sits in the
    // heap beside it.
    let mut queue = EventQueue::new();
    queue.schedule_at(0.0, SimEvent::Sample);
    queue.schedule_at(5_000.0, SimEvent::TokenArrive);
    queue.schedule_at(20_000.0, SimEvent::End);
    queue.schedule_shifts((1..=10_000).map(f64::from));
    let mut shifts = 0;
    let popping = allocs_during(|| {
        while let Some((_, event)) = queue.pop() {
            shifts += usize::from(event == SimEvent::TrafficShift);
        }
    });
    assert_eq!(shifts, 10_000);
    assert_eq!(
        popping, 0,
        "popping the shift run performed {popping} heap allocations"
    );
}
