//! Cross-crate integration tests driven through the `s-core` facade.

use rand::rngs::StdRng;
use rand::SeedableRng;
use s_core::baselines::{exhaustive_optimal, random_placement, GaConfig, GeneticOptimizer};
use s_core::core::{
    Allocation, CapacityReport, Cluster, CostModel, HighestLevelFirst, RoundRobin, ScoreEngine,
    ServerSpec, Token, TokenRing, VmSpec,
};
use s_core::topology::{
    AddressPlan, CanonicalTree, CanonicalTreeBuilder, ServerId, Topology, VmId,
};
use s_core::traffic::{PairTrafficBuilder, WorkloadConfig};
use s_core::xen::ControlPlane;
use std::sync::Arc;

fn small_cluster(seed: u64) -> (Cluster, s_core::traffic::PairTraffic) {
    let topo: Arc<dyn Topology> = Arc::new(CanonicalTree::small());
    let traffic = WorkloadConfig::new(48, seed).generate();
    let alloc = random_placement(48, 16, 16, &mut StdRng::seed_from_u64(seed));
    let cluster = Cluster::new(
        topo,
        ServerSpec::paper_default(),
        VmSpec::paper_default(),
        &traffic,
        alloc,
    )
    .unwrap();
    (cluster, traffic)
}

#[test]
fn facade_pipeline_reduces_cost_and_respects_invariants() {
    let (mut cluster, traffic) = small_cluster(1);
    let model = CostModel::paper_default();
    let initial = model.total_cost(cluster.allocation(), &traffic, cluster.topo());

    let mut ring = TokenRing::new(ScoreEngine::paper_default(), HighestLevelFirst::new(), 48);
    let stats = ring.run_iterations(6, &mut cluster, &traffic);
    let final_cost = model.total_cost(cluster.allocation(), &traffic, cluster.topo());

    assert!(
        final_cost < initial,
        "S-CORE must improve a random placement"
    );
    assert_eq!(stats.last().unwrap().migrations, 0, "must converge");
    assert!(cluster.allocation().is_consistent());
    for s in cluster.topo().servers() {
        assert!(cluster.allocation().occupancy(s) <= 16);
    }
}

#[test]
fn ga_bound_dominates_distributed_result_on_average() {
    // The GA sees the whole instance; S-CORE only local info. Averaged
    // over seeds, the GA must be at least as good.
    let model = CostModel::paper_default();
    let mut ga_total = 0.0;
    let mut score_total = 0.0;
    for seed in 0..6 {
        let (mut cluster, traffic) = small_cluster(seed);
        let ga = GeneticOptimizer::new(
            cluster.topo(),
            &traffic,
            model.clone(),
            16,
            GaConfig::fast(),
        )
        .run();
        let mut ring = TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), 48);
        ring.run_iterations(6, &mut cluster, &traffic);
        ga_total += ga.best_cost;
        score_total += model.total_cost(cluster.allocation(), &traffic, cluster.topo());
    }
    assert!(
        ga_total <= score_total * 1.1,
        "GA mean {ga_total} should not lose badly to S-CORE mean {score_total}"
    );
}

#[test]
fn exhaustive_bounds_ga_and_score_on_tiny_instance() {
    let topo = CanonicalTreeBuilder::new()
        .racks(2)
        .hosts_per_rack(2)
        .racks_per_agg(2)
        .cores(1)
        .build()
        .unwrap();
    let mut b = PairTrafficBuilder::new(6);
    b.add(VmId::new(0), VmId::new(3), 100.0);
    b.add(VmId::new(1), VmId::new(4), 80.0);
    b.add(VmId::new(2), VmId::new(5), 60.0);
    b.add(VmId::new(0), VmId::new(1), 5.0);
    let traffic = b.build();
    let model = CostModel::paper_default();

    let exact = exhaustive_optimal(&topo, &traffic, &model, 3);
    let ga = GeneticOptimizer::new(&topo, &traffic, model.clone(), 3, GaConfig::fast()).run();
    assert!(
        ga.best_cost + 1e-9 >= exact.best_cost,
        "exhaustive is a lower bound"
    );

    let alloc = Allocation::from_fn(6, 4, |vm| ServerId::new(vm.get() % 4));
    let topo_arc: Arc<dyn Topology> = Arc::new(topo);
    let spec = ServerSpec {
        vm_slots: 3,
        ..ServerSpec::paper_default()
    };
    let mut cluster =
        Cluster::new(topo_arc, spec, VmSpec::paper_default(), &traffic, alloc).unwrap();
    let mut ring = TokenRing::new(ScoreEngine::paper_default(), RoundRobin::new(), 6);
    ring.run_iterations(8, &mut cluster, &traffic);
    let score_cost = model.total_cost(cluster.allocation(), &traffic, cluster.topo());
    assert!(
        score_cost + 1e-9 >= exact.best_cost,
        "S-CORE cannot beat the true optimum"
    );
}

#[test]
fn token_travels_the_control_plane() {
    // Wire a token through the dom0 NAT machinery end to end.
    let topo = CanonicalTree::small();
    let plan = AddressPlan::new(&topo);
    let mut cp = ControlPlane::new();
    for s in 0..topo.num_servers() as u32 {
        cp.add_host(
            plan.server_ip(ServerId::new(s)),
            CapacityReport {
                free_slots: 16,
                free_ram_mb: 4096,
            },
        );
    }
    // VM addresses from a disjoint space, routed to their hosts.
    let vm_ip = |v: u32| s_core::topology::Ip4::from_octets(172, 16, (v >> 8) as u8, v as u8);
    for v in 0..32u32 {
        cp.place_vm(vm_ip(v), (v % 16) as usize);
    }

    let mut token = Token::for_vms((0..32).map(VmId::new));
    token.set_level(VmId::new(3), s_core::topology::Level::CORE);
    let wire = token.encode();

    // Pass the token around the full ring.
    let mut holder = VmId::new(0);
    for _ in 0..32 {
        let host = cp.send_token(vm_ip(holder.get()), &wire).unwrap();
        assert_eq!(host, (holder.get() % 16) as usize);
        holder = token.next_after(holder).unwrap();
    }
    assert_eq!(holder, VmId::new(0), "round robin wraps to the start");
    assert_eq!(cp.stats().tokens, 32);
    assert_eq!(cp.stats().bytes, 32 * 32 * 5); // 32 passes x 32 entries x 5 B

    // Location and capacity probes resolve correctly.
    let dom0 = cp.location_probe(vm_ip(5)).unwrap();
    assert_eq!(dom0, plan.server_ip(ServerId::new(5)));
    let report = cp.capacity_probe(dom0).unwrap();
    assert!(report.can_host(&VmSpec::paper_default()));

    // The decoded token matches what was sent.
    let decoded = Token::decode(&wire).unwrap();
    assert_eq!(decoded, token);
}

#[test]
fn a_token_document_with_a_huge_id_sizes_no_table() {
    // Five bytes on the wire, or this one JSON entry, used to ask the
    // allocator for a 16 GiB position map and abort the process.
    let max = VmId::new(u32::MAX);
    let from_json: Token =
        serde_json::from_str(r#"{"entries":[{"id":4294967295,"level":0}]}"#).unwrap();
    let from_wire = Token::decode(&[0xff, 0xff, 0xff, 0xff, 0x00]).unwrap();
    assert_eq!(from_json, from_wire);
    for token in [from_json, from_wire] {
        assert!(token.contains(max) && !token.contains(VmId::new(0)));
        assert_eq!(token.level_of(max), Some(s_core::topology::Level::ZERO));
        assert_eq!(token.next_after(VmId::new(9)), Some(max));
        assert_eq!(serde_json::to_string(&token).unwrap().len(), 41);
    }
}

#[test]
fn runs_are_deterministic_across_invocations() {
    let run = |seed| {
        let (mut cluster, traffic) = small_cluster(seed);
        let mut ring = TokenRing::new(ScoreEngine::paper_default(), HighestLevelFirst::new(), 48);
        ring.run_iterations(5, &mut cluster, &traffic);
        CostModel::paper_default().total_cost(cluster.allocation(), &traffic, cluster.topo())
    };
    assert_eq!(run(3), run(3));
    assert_ne!(run(3), run(4));
}
