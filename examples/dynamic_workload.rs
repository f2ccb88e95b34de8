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
    // piecewise-constant trace, a marker at each shift.
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
    let reports = session.run_trace().expect("segments bind cleanly");

    println!("S-CORE across three traffic epochs (250 s each):\n");
    for (i, report) in reports.iter().enumerate() {
        println!(
            "epoch {}: cost {:.3e} -> {:.3e} ({:>5.1}% reduction), {:>3} migrations, {:>6.1} MB moved",
            i + 1,
            report.initial_cost,
            report.final_cost,
            (1.0 - report.final_cost / report.initial_cost) * 100.0,
            report.migrations.len(),
            report.total_migration_bytes() / (1024.0 * 1024.0),
        );
    }
    println!(
        "\nEach epoch starts with the *previous* epoch's allocation — the TM shift \
         re-raises the cost and the circulating token locks onto the new pattern \
         without any central recomputation."
    );
}
