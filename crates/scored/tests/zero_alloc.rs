//! Counting-allocator proof that reading a request line builds no tree:
//! `parse_request` reads the fields straight off the text
//! (`Deserialize::read_compact`), so a line costs the allocations its
//! `Request` owns and nothing else.

use score_scored::{parse_request, Request};
use score_trace::TraceEvent;
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

/// Parses `line`, returning the request and the allocator calls it took.
fn counted(line: &str) -> (Request, usize) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let request = parse_request(line).expect("a valid line");
    (request, ALLOC_CALLS.load(Ordering::Relaxed) - before)
}

// One test, so no other thread of this binary allocates meanwhile.
#[test]
fn request_lines_allocate_only_what_the_request_owns() {
    let (request, calls) = counted(r#"{"Remove":{"vm":81234}}"#);
    assert_eq!(request, Request::Remove { vm: 81234 });
    assert_eq!(calls, 0, "a Remove line owns nothing");

    let (request, calls) = counted(r#" {"Place": {"server": null, "zone": ["a", {"b": 1.5}]}} "#);
    assert_eq!(request, Request::Place { server: None });
    assert_eq!(calls, 0, "unknown keys are skipped, not built");

    assert_eq!(counted("\"Report\""), (Request::Report, 0));

    // The benchmark mix's `Traffic` line: four `SetRate`s.
    let line = concat!(
        r#"{"Traffic":{"events":[{"SetRate":{"u":1234,"v":4321,"rate":1234567.1234567891}},"#,
        r#"{"SetRate":{"u":234,"v":321,"rate":234567.12345678912}},"#,
        r#"{"SetRate":{"u":5034,"v":4121,"rate":34567.123456789123}},"#,
        r#"{"SetRate":{"u":12,"v":43,"rate":4567.125}}]}}"#,
    );
    let (request, calls) = counted(line);
    let Request::Traffic { events } = request else {
        panic!("expected Traffic, got {request:?}");
    };
    assert_eq!(events.len(), 4);
    assert_eq!(
        events[3],
        TraceEvent::SetRate {
            u: 12,
            v: 43,
            rate: 4567.125
        }
    );
    assert!(calls <= 2, "the events Vec and nothing else, not {calls}");

    let (request, calls) = counted(r#"{"Attach":{"tenant":"edge-pod"}}"#);
    assert_eq!(
        request,
        Request::Attach {
            tenant: "edge-pod".into()
        }
    );
    assert_eq!(calls, 1, "the tenant name");
}
