//! Equivalence suite for the single decision entry point.
//!
//! [`ScoreEngine::decide_reference`] is the oracle (ranked candidate
//! list + per-candidate `delta_for` sweep); [`ScoreEngine::decide`] must
//! produce **bit-identical** `MigrationDecision`s — same target, same
//! gain bits, same candidate accounting — on every topology shape, with
//! forecast views on or off, with hosts down, and under `max_candidates`
//! caps. Random workloads mostly stay below [`KERNEL_MIN_CANDIDATES`]
//! (the per-candidate scorer); the hub-VM cases put ≥ 24 candidates in
//! front of `decide` so the bucketed scorer is checked through the same
//! entry point, and assert which side of the cutoff each case landed
//! on. The scratch is reused across all cases, so the epoch-stamped
//! accumulators are exercised against stale state too.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use score_core::{
    Allocation, Cluster, KernelScratch, LocalView, MigrationDecision, ScoreConfig, ScoreEngine,
    ServerSpec, VmSpec, KERNEL_MIN_CANDIDATES,
};
use score_topology::{
    CanonicalTreeBuilder, FatTreeBuilder, ServerId, StarTopology, Topology, VmId,
};
use score_traffic::{PairTraffic, PairTrafficBuilder, WorkloadConfig};
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// Reused across every proptest case on purpose: a kernel that only
    /// works on a zeroed scratch would pass a per-case-fresh test but
    /// corrupt real rings, which thread one scratch through all holds.
    static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::new());
}

fn random_topo(kind: u8, size: u8) -> Arc<dyn Topology> {
    match kind % 3 {
        0 => {
            let racks = 2 + u32::from(size % 6) * 2; // 2..12, even
            Arc::new(
                CanonicalTreeBuilder::new()
                    .racks(racks)
                    .hosts_per_rack(2 + u32::from(size % 4))
                    .racks_per_agg(2)
                    .cores(2)
                    .build()
                    .expect("valid tree"),
            )
        }
        1 => {
            let k = if size.is_multiple_of(2) { 4 } else { 6 };
            Arc::new(FatTreeBuilder::new().k(k).build().expect("valid fat-tree"))
        }
        _ => Arc::new(StarTopology::new(4 + u32::from(size % 12), 1e9)),
    }
}

fn balanced_alloc(num_vms: u32, num_servers: u32, seed: u64) -> Allocation {
    // Balanced spread over a seeded server permutation: never overcommits
    // (≤ ceil(n/ns) per server) while still randomizing locality.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..num_servers).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    Allocation::from_fn(num_vms, num_servers, |vm| {
        ServerId::new(perm[vm.index() % perm.len()])
    })
}

fn assert_bit_identical(a: &MigrationDecision, b: &MigrationDecision, what: &str) {
    assert_eq!(a.vm, b.vm, "{what}: vm");
    assert_eq!(a.target, b.target, "{what}: target");
    assert_eq!(a.gain.to_bits(), b.gain.to_bits(), "{what}: gain bits");
    assert_eq!(
        a.predicted_gain.to_bits(),
        b.predicted_gain.to_bits(),
        "{what}: predicted_gain bits"
    );
    assert_eq!(a.preemptive, b.preemptive, "{what}: preemptive");
    assert_eq!(a.evaluated, b.evaluated, "{what}: evaluated");
    assert_eq!(
        a.rejected_capacity, b.rejected_capacity,
        "{what}: rejected_capacity"
    );
}

/// Knocks out up to `hosts_down` servers (never `vm`'s own) so
/// `can_host` rejections flow through both paths identically, then
/// compares `decide` with the oracle for `vm`. Returns the oracle's
/// decision.
fn compare_for(
    mut cluster: Cluster,
    traffic: &PairTraffic,
    vm: VmId,
    seed: u64,
    forecast: bool,
    hosts_down: u8,
    cap: u8,
) -> MigrationDecision {
    let num_servers = cluster.topo().num_servers() as u32;
    let own = cluster.allocation().server_of(vm);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd0d0);
    for _ in 0..hosts_down {
        let s = ServerId::new(rng.gen_range(0..num_servers));
        if s != own {
            cluster.fail_host(s);
        }
    }

    let config = ScoreConfig {
        max_candidates: match cap % 4 {
            0 => None,
            c => Some(c as usize * 2 - 1), // 1, 3, 5
        },
        ..ScoreConfig::paper_default()
    };
    let engine = ScoreEngine::new(Default::default(), config);

    let observed = LocalView::observe(vm, cluster.allocation(), traffic, cluster.topo());
    // Forecast decisions score a predicted view against the landed one;
    // emulate the outlook by scaling peer rates (some up, some down).
    let (decision_view, current) = if forecast {
        let mut predicted = observed.clone();
        for (i, p) in predicted.peers.iter_mut().enumerate() {
            p.rate *= if i % 2 == 0 { 1.75 } else { 0.4 };
        }
        (predicted, Some(&observed))
    } else {
        (observed.clone(), None)
    };

    let reference = engine.decide_reference(&decision_view, current, &cluster, traffic);
    SCRATCH.with(|s| {
        let hot = engine.decide(
            &decision_view,
            current,
            &cluster,
            traffic,
            &mut s.borrow_mut(),
        );
        assert_bit_identical(&reference, &hot, "decide");
    });
    reference
}

fn check_case(
    kind: u8,
    size: u8,
    seed: u64,
    vm_pick: u32,
    forecast: bool,
    hosts_down: u8,
    cap: u8,
) {
    let topo = random_topo(kind, size);
    let num_servers = topo.num_servers() as u32;
    let num_vms = (num_servers * 2).clamp(4, 96);
    let traffic: PairTraffic = WorkloadConfig::new(num_vms, seed).generate();
    let alloc = balanced_alloc(num_vms, num_servers, seed ^ 0x5eed);
    let cluster = Cluster::new(
        Arc::clone(&topo),
        ServerSpec::paper_default(),
        VmSpec::paper_default(),
        &traffic,
        alloc,
    )
    .expect("balanced allocation is feasible");
    let vm = VmId::new(vm_pick % num_vms);
    compare_for(cluster, &traffic, vm, seed, forecast, hosts_down, cap);
}

/// A hub VM with `24 + extra` peers, every VM on a server of its own
/// (32-host tree or 54-host fat-tree), plus a ring of peer-to-peer pairs
/// so the NIC ledger is not trivial. Rates repeat (`% 7`) so the rank
/// tiebreak is exercised. Uncapped, the hub's decision has ≥ 24
/// candidates — the bucketed side of the cutoff; under a
/// `max_candidates` cap (1, 3, 5) the *same* view lands on the
/// per-candidate side.
fn check_hub_case(fat_tree: bool, extra: u8, seed: u64, forecast: bool, hosts_down: u8, cap: u8) {
    let topo: Arc<dyn Topology> = if fat_tree {
        Arc::new(FatTreeBuilder::new().k(6).build().expect("valid fat-tree"))
    } else {
        Arc::new(
            CanonicalTreeBuilder::new()
                .racks(8)
                .hosts_per_rack(4)
                .racks_per_agg(2)
                .cores(2)
                .build()
                .expect("valid tree"),
        )
    };
    let num_servers = topo.num_servers() as u32;
    let peers = (24 + u32::from(extra)).min(num_servers - 1);
    let num_vms = peers + 1;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = PairTrafficBuilder::new(num_vms);
    for z in 1..=peers {
        b.add(
            VmId::new(0),
            VmId::new(z),
            1e6 * f64::from(1 + rng.gen_range(0..7u32)),
        );
        let next = 1 + z % peers;
        if next != z {
            b.add(VmId::new(z), VmId::new(next), 1e5 * f64::from(1 + z % 7));
        }
    }
    let traffic = b.build();
    let cluster = Cluster::new(
        Arc::clone(&topo),
        ServerSpec::paper_default(),
        VmSpec::paper_default(),
        &traffic,
        balanced_alloc(num_vms, num_servers, seed ^ 0x5eed),
    )
    .expect("one VM per server is feasible");
    let reference = compare_for(
        cluster,
        &traffic,
        VmId::new(0),
        seed,
        forecast,
        hosts_down,
        cap,
    );
    if cap.is_multiple_of(4) {
        assert!(reference.evaluated >= KERNEL_MIN_CANDIDATES, "uncapped hub");
    } else {
        assert!(reference.evaluated < KERNEL_MIN_CANDIDATES, "capped hub");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Reactive decisions: kernel == reference on every topology family.
    #[test]
    fn kernel_matches_reference_reactive(
        kind in 0u8..3, size in 0u8..12, seed in 0u64..10_000, vm in 0u32..96,
        hosts_down in 0u8..3, cap in 0u8..4,
    ) {
        check_case(kind, size, seed, vm, false, hosts_down, cap);
    }

    /// Forecast-envelope decisions (predicted view scored against the
    /// landed one, pre-emptive accounting active): still bit-identical.
    #[test]
    fn kernel_matches_reference_forecast(
        kind in 0u8..3, size in 0u8..12, seed in 0u64..10_000, vm in 0u32..96,
        hosts_down in 0u8..3, cap in 0u8..4,
    ) {
        check_case(kind, size, seed, vm, true, hosts_down, cap);
    }

    /// The hub VM, on both fabrics, with and without a forecast, above
    /// (uncapped) and below (capped) the kernel cutoff.
    #[test]
    fn hub_vm_matches_reference_on_both_sides_of_the_cutoff(
        fat_tree in 0u8..2, extra in 0u8..16, seed in 0u64..10_000,
        forecast in 0u8..2, hosts_down in 0u8..3, cap in 0u8..4,
    ) {
        check_hub_case(fat_tree == 1, extra, seed, forecast == 1, hosts_down, cap);
    }
}

/// The scratch must be reusable across *different* topologies without a
/// reset call in between — the session layer swaps probe clusters under
/// one ring during fault drills.
#[test]
fn scratch_survives_topology_swaps() {
    for (kind, size, seed) in [
        (0u8, 3u8, 7u64),
        (1, 1, 8),
        (2, 9, 9),
        (0, 11, 10),
        (1, 0, 11),
    ] {
        check_case(kind, size, seed, 5, false, 1, 0);
        check_case(kind, size, seed, 5, true, 0, 2);
        // Alternate the bucketed scorer in, so its accumulators carry
        // stale epochs from one topology into the next.
        check_hub_case(kind == 1, size, seed, false, 1, 0);
    }
}
