//! Full paper-scale smoke tests (2560-host canonical tree, k = 16
//! fat-tree). Ignored by default; run explicitly with
//!
//! ```sh
//! cargo test --release --test paper_scale -- --ignored
//! ```

use s_core::sim::Scenario;
use s_core::topology::{CanonicalTree, FatTree, Topology};
use s_core::traffic::TrafficIntensity;

#[test]
fn paper_topologies_have_the_published_dimensions() {
    // Cheap enough to always run.
    let tree = CanonicalTree::paper_default();
    assert_eq!(tree.num_servers(), 2560);
    assert_eq!(tree.num_racks(), 128);
    let fat = FatTree::paper_default();
    assert_eq!(fat.num_servers(), 1024);
    assert!(tree.graph().is_connected());
    assert!(fat.graph().is_connected());
}

#[test]
#[ignore = "paper-scale run: ~5120 VMs, minutes in debug builds"]
fn full_scale_canonical_tree_converges() {
    let mut scenario = Scenario::paper_canonical(TrafficIntensity::Sparse, 7);
    // Three iterations of 5,120 holds at 0.1 s a hold take 1,536 s; the
    // preset's 700 s horizon would stop `run(3)` inside the second.
    scenario.timing.t_end_s = 1600.0;
    let mut session = scenario
        .session()
        .expect("paper-scale scenario is feasible");
    let num_vms = session.traffic().num_vms();
    assert_eq!(num_vms, 5120);
    let initial = session.initial_cost();
    let stats = session.run(3);
    let final_cost = session.current_cost();
    assert!(
        final_cost < initial * 0.5,
        "{initial:.3e} -> {final_cost:.3e}"
    );
    assert!(stats[0].migration_ratio() > 0.3);
    assert!(stats[2].migration_ratio() < stats[0].migration_ratio() * 0.25);
}

#[test]
#[ignore = "paper-scale run: 1024-host fat-tree"]
fn full_scale_fattree_converges() {
    let scenario = Scenario::paper_fattree(TrafficIntensity::Sparse, 7);
    let mut session = scenario
        .session()
        .expect("paper-scale scenario is feasible");
    let num_vms = session.traffic().num_vms();
    assert_eq!(num_vms, 2048);
    let initial = session.initial_cost();
    session.run(3);
    let final_cost = session.current_cost();
    assert!(
        final_cost < initial * 0.6,
        "{initial:.3e} -> {final_cost:.3e}"
    );
}
