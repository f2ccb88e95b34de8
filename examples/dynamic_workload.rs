//! Always-on operation: the traffic matrix shifts mid-run and S-CORE
//! re-converges — the property that distinguishes it from initial-placement
//! schemes (paper §I: "deals with maintaining steady-state throughout the
//! system's evolution").
//!
//! ```sh
//! cargo run --example dynamic_workload
//! ```

use s_core::sim::{PolicyKind, Scenario, TraceSpec, WorkloadSpec};
use s_core::trace::Trace;
use s_core::traffic::{TrafficIntensity, WorkloadConfig};

fn main() {
    let mut scenario = Scenario::small_canonical(TrafficIntensity::Sparse, 31);
    scenario.policy = PolicyKind::HighestLevelFirst;
    let workload_a = scenario
        .session()
        .expect("preset scenario is feasible")
        .traffic()
        .clone();
    let num_vms = workload_a.num_vms();

    // Three epochs: the original workload, a completely re-clustered one
    // (services redeployed), then a denser variant of the second — one
    // piecewise-constant trace, replayed as one run.
    let workload_b = WorkloadConfig::new(num_vms, 777).generate();
    let workload_c = WorkloadConfig::new(num_vms, 777)
        .with_intensity(TrafficIntensity::Medium)
        .generate();
    let trace = Trace::piecewise(&[
        (250.0, workload_a),
        (250.0, workload_b),
        (250.0, workload_c),
    ])
    .expect("same population throughout");
    scenario.workload = WorkloadSpec::Trace {
        spec: TraceSpec::Literal {
            trace,
            seed: scenario.workload.seed(),
        },
    };

    let mut session = scenario.session().expect("trace scenario is feasible");
    session.run_to_horizon();
    let report = session.report();

    // One run, one clock: read the cost just before and just after each
    // shift off the sampled series (the shift's re-rates land before the
    // sample taken at the boundary).
    let series = &report.cost_series;
    println!("S-CORE across three traffic epochs (250 s each), one continuous run:\n");
    println!(
        "t =   0 s: cost {:.3e} (random placement)",
        report.initial_cost
    );
    for boundary_s in [250.0, 500.0] {
        let at = series.partition_point(|&(t, _)| t < boundary_s);
        let (before, after) = (series[at - 1], series[at]);
        println!(
            "t = {:>3.0} s: cost {:.3e} before the shift, {:.3e} just after it",
            boundary_s, before.1, after.1,
        );
    }
    println!(
        "t = 750 s: cost {:.3e} at the end | {} migrations, {:.1} MB moved",
        report.final_cost,
        report.migrations.len(),
        report.total_migration_bytes() / (1024.0 * 1024.0),
    );
    println!(
        "\nEach shift re-rates the traffic under the allocation the token has \
         reached; the cost jumps and the circulating token locks onto the new \
         pattern without any restart or central recomputation."
    );
}
