//! Peak live heap, counted by the benchmark binary's own allocator.
//!
//! `VmHWM` is what the operating system saw, but it moves in steps of
//! tens of MB from one seed to the next (allocator thresholds and
//! fragmentation), so it cannot carry a 5 % bound. The bytes the
//! program itself asked for repeat exactly at one seed and move
//! smoothly across seeds; that is what `peak_heap_mb` reports, for the
//! first timed rep.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `System`, plus two counters. The counters are updated with plain
/// relaxed loads and stores, not read-modify-write instructions, to
/// keep the cost near a nanosecond per call: exact while one thread
/// allocates, which is the case in every timed rep, and merely
/// approximate during the few multi-threaded probes, which never read
/// them.
pub struct CountingAllocator;

#[inline]
fn grow(bytes: usize) {
    let live = LIVE.load(Relaxed).wrapping_add(bytes);
    LIVE.store(live, Relaxed);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

#[inline]
fn shrink(bytes: usize) {
    LIVE.store(LIVE.load(Relaxed).wrapping_sub(bytes), Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract, and returns what `System`
// returned; the counters publish no data and are never used to make a
// memory-safety decision.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` is the caller's to vouch for.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Forgets the peak so far: the next [`peak_mb`] covers only what
/// happens from here on.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Most bytes live at once since the last [`reset_peak`], in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}
