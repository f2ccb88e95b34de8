//! Quick mega-scale sanity probe: materializes the 27,648- and
//! 101,306-host fat-tree sessions (k = 48 and k = 74, the fabrics of the
//! `benchmark/` replay and converge workloads) and prints build time and
//! per-token-hold decision latency. Run with
//! `cargo run --release -p score-bench --example scale_probe`.

use score_sim::{Scenario, TopologySpec};
use std::time::Instant;

fn main() {
    for (label, k) in [("fat-tree-27648", 48u32), ("fat-tree-101306", 74u32)] {
        let t = Instant::now();
        let scenario = Scenario::builder()
            .topology(TopologySpec::FatTree {
                k,
                capacities: None,
            })
            .sparse_traffic(11)
            .build();
        let mut session = scenario.session().expect("feasible");
        let build_ms = t.elapsed().as_millis();
        let hosts = session.topo().num_servers();
        let vms = session.traffic().num_vms();
        let pairs = session.traffic().num_pairs();
        let t = Instant::now();
        let mut holds = 0u32;
        while holds < 200 {
            if session.step().is_none() {
                break;
            }
            holds += 1;
        }
        let per_step_us = t.elapsed().as_micros() as f64 / f64::from(holds.max(1));
        println!(
            "{label}: {hosts} hosts {vms} vms {pairs} pairs build {build_ms}ms step {per_step_us:.1}us"
        );
    }
}
