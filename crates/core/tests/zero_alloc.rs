//! Counting-allocator proof that the steady-state decision path makes
//! **zero heap allocations**.
//!
//! The ring threads one `DecisionScratch` (observation buffers + the
//! level-bucketed `KernelScratch`) through every hold, and the token
//! policies run on epoch-stamped sets and pre-built indexes (HLF's
//! per-level bitsets, the cost-first tournament) — so
//! once the ring has seen a full iteration (every buffer at its
//! high-water mark, the placement converged), further holds must not
//! touch the allocator at all. A regression here silently reintroduces
//! per-decision malloc traffic, which is exactly what the single-pass
//! kernel exists to avoid.

use score_core::{
    Allocation, Cluster, ForecastCostFirst, HighestCostFirst, HighestLevelFirst, RoundRobin,
    ScoreEngine, ServerSpec, TokenPolicy, TokenRing, VmSpec,
};
use score_topology::{CanonicalTree, ServerId, Topology};
use score_traffic::WorkloadConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

fn steady_state_allocs(policy: impl TokenPolicy + 'static, name: &str) {
    let topo: Arc<dyn Topology> = Arc::new(CanonicalTree::small());
    let num_servers = topo.num_servers() as u32;
    let num_vms = num_servers * 2;
    let traffic = WorkloadConfig::new(num_vms, 0xa110c).generate();
    let alloc = Allocation::from_fn(num_vms, num_servers, |vm| {
        ServerId::new(vm.get() % num_servers)
    });
    let mut cluster = Cluster::new(
        Arc::clone(&topo),
        ServerSpec::paper_default(),
        VmSpec::paper_default(),
        &traffic,
        alloc,
    )
    .expect("round-robin allocation is feasible");
    let mut ring = TokenRing::new(ScoreEngine::paper_default(), policy, num_vms);

    // Warm-up: enough full iterations for the placement to converge (no
    // more beneficial moves) and every reusable buffer to reach its
    // high-water mark.
    for _ in 0..4 {
        ring.run_iteration(&mut cluster, &traffic);
    }

    // Steady state: two more full iterations — covering round restarts,
    // every holder's observation and the full decision kernel — must not
    // allocate. Migrations are excluded from the claim (moving a VM grows
    // per-server lists), so assert the warmed-up ring no longer moves.
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let mut migrations = 0;
    for _ in 0..(num_vms as usize * 2) {
        let Some(outcome) = ring.step(&mut cluster, &traffic) else {
            break;
        };
        if outcome.decision.migrates() {
            migrations += 1;
        }
    }
    let delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        migrations, 0,
        "{name}: placement did not converge during warm-up"
    );
    assert_eq!(
        delta, 0,
        "{name}: steady-state holds performed {delta} heap allocations"
    );
}

#[test]
fn steady_state_decisions_do_not_allocate() {
    steady_state_allocs(RoundRobin::new(), "round-robin");
    steady_state_allocs(HighestLevelFirst::new(), "hlf");
    steady_state_allocs(HighestCostFirst::paper_default(), "hcf");
    steady_state_allocs(ForecastCostFirst::paper_default(), "fcf");
}
