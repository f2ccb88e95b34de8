//! Counting-allocator proof that the steady-state decision path makes
//! **zero heap allocations**.
//!
//! The ring reuses one `LocalView` and one level-bucketed `KernelScratch`
//! for every hold, a forecast fills the view's expected rates in place,
//! and the token policies run on epoch-stamped sets and pre-built
//! indexes (HLF's per-level bitsets, the cost-first tournament) — so
//! once the ring has seen a full iteration (every buffer at its
//! high-water mark, the placement converged), further holds must not
//! touch the allocator at all, with or without a forecast. A regression here silently reintroduces
//! per-decision malloc traffic, which is exactly what the single-pass
//! kernel exists to avoid.
//!
//! The same counter pins the token's membership path: a departure, and
//! an arrival appended within capacity, patch the level table in place.

use score_core::{
    Allocation, Cluster, ForecastCostFirst, HighestCostFirst, HighestLevelFirst, OutlookContext,
    RoundRobin, ScoreEngine, ServerSpec, Token, TokenPolicy, TokenRing, VmSpec,
};
use score_topology::{CanonicalTree, ServerId, Topology, VmId};
use score_traffic::{EwmaForecaster, PairTraffic, RateForecaster, WorkloadConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Delegates to the system allocator, counting every `alloc`/`realloc`
/// the calling thread makes (the tests of this file run side by side).
struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<usize> = const { Cell::new(0) };
}

fn count_alloc() {
    // A thread being torn down has no counter left to bump.
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

fn alloc_calls() -> usize {
    ALLOC_CALLS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// An EWMA forecaster primed on `traffic` at t = 0 that then saw every
/// third pair double by t = 10 s, so forecasts differ from current rates.
fn rising(traffic: &PairTraffic) -> EwmaForecaster {
    let mut f = EwmaForecaster::new(0.5);
    f.prime(traffic, 0.0);
    let ups: Vec<_> = traffic
        .pairs()
        .into_iter()
        .step_by(3)
        .map(|(u, v, r)| (u, v, 2.0 * r))
        .collect();
    f.observe_updates(&mut ups.into_iter(), 10.0);
    f
}

/// Steady-state holds of a `policy` ring, reactive or (`forecast`) with
/// an EWMA forecast read at t = 10 s, 30 s ahead.
fn steady_state_allocs(policy: impl TokenPolicy + 'static, name: &str, forecast: bool) {
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
    let mut ledger =
        ring.engine()
            .cost_model()
            .ledger(cluster.allocation(), &traffic, cluster.topo());
    let forecaster = rising(&traffic);
    let ctx = if forecast {
        OutlookContext::forecast(&forecaster as &dyn RateForecaster, 10.0, 30.0)
    } else {
        OutlookContext::reactive()
    };

    // Warm-up: enough full iterations for the placement to converge (no
    // more beneficial moves) and every reusable buffer to reach its
    // high-water mark.
    for _ in 0..(num_vms as usize * 4) {
        ring.step_ledgered_outlook(&mut cluster, &traffic, &mut ledger, &ctx);
    }

    // Steady state: two more full iterations — covering round restarts,
    // every holder's observation and the full decision kernel — must not
    // allocate. Migrations are excluded from the claim (moving a VM grows
    // per-server lists), so assert the warmed-up ring no longer moves.
    let before = alloc_calls();
    let mut migrations = 0;
    for _ in 0..(num_vms as usize * 2) {
        let Some(outcome) = ring.step_ledgered_outlook(&mut cluster, &traffic, &mut ledger, &ctx)
        else {
            break;
        };
        if outcome.decision.migrates() {
            migrations += 1;
        }
    }
    let delta = alloc_calls() - before;
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
    steady_state_allocs(RoundRobin::new(), "round-robin", false);
    steady_state_allocs(HighestLevelFirst::new(), "hlf", false);
    steady_state_allocs(HighestCostFirst::paper_default(), "hcf", false);
    steady_state_allocs(ForecastCostFirst::paper_default(), "fcf", false);
    steady_state_allocs(ForecastCostFirst::paper_default(), "fcf+ewma", true);
}

#[test]
fn token_membership_changes_do_not_allocate() {
    let id = VmId::new;
    let mut token = Token::for_vms((0..1_000).map(id));
    let before = alloc_calls();
    // Departures of the highest id, the lowest and one in between …
    assert!(token.remove_vm(id(999)) && token.remove_vm(id(998)));
    assert!(token.remove_vm(id(0)) && token.remove_vm(id(500)));
    // … and arrivals above every member, inside the room those left.
    assert!(token.add_vm(id(998)) && token.add_vm(id(999)));
    assert_eq!(alloc_calls() - before, 0, "membership changes allocated");
    assert_eq!(token.len(), 998);
    assert_eq!(token.next_after(id(999)), Some(id(1)));
}
