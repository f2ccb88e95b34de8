//! Trace-driven time-varying workloads: the offered traffic drifts and
//! spikes *while the token circulates*, and every change lands on the
//! cluster in place — O(changed-pairs) cost-ledger re-pricing between
//! token holds, no cluster rebuild, no full Eq.-(2) pass.
//!
//! ```sh
//! cargo run --example trace_replay
//! ```

use s_core::sim::{PolicyKind, Scenario, TraceSpec};
use s_core::trace::{DiurnalShape, FlashCrowdShape, Trace};
use s_core::traffic::TrafficIntensity;

fn main() {
    // A day/night cycle: the whole TM swings ±60 % over a 300 s horizon,
    // re-rated every 2 seconds (149 mid-run deltas).
    let diurnal = TraceSpec::Diurnal {
        num_vms: 256,
        intensity: TrafficIntensity::Sparse,
        seed: 11,
        shape: DiurnalShape {
            period_s: 150.0,
            amplitude: 0.6,
            step_s: 2.0,
            horizon_s: 300.0,
        },
    };
    // Flash crowds: 12 spikes of 8-way 200 Mb/s surges that later subside.
    let flash = TraceSpec::FlashCrowd {
        num_vms: 256,
        intensity: TrafficIntensity::Sparse,
        seed: 11,
        shape: FlashCrowdShape {
            spikes: 12,
            fanout: 8,
            surge_bps: 2e8,
            hold_s: 40.0,
            horizon_s: 300.0,
        },
    };

    println!("S-CORE under time-varying traffic (HLF, 256 VMs):\n");
    for (name, spec) in [("diurnal drift", diurnal), ("flash crowds", flash.clone())] {
        let scenario = Scenario::builder()
            .trace(spec)
            .policy(PolicyKind::HighestLevelFirst)
            .seed(11)
            .build();
        let mut session = scenario.session().expect("trace scenario is feasible");
        session.run_to_horizon();
        let report = session.report();
        println!(
            "{name:>13}: cost {:.3e} -> {:.3e} | {:>3} migrations | {:>3} deltas \
             re-pricing {:>5} pairs in place ({:.0} µs each)",
            report.initial_cost,
            report.final_cost,
            report.migrations.len(),
            report.trace.events_applied,
            report.trace.pairs_repriced,
            report.trace.mean_apply_ns() / 1e3,
        );
    }

    // Traces are plain data: a scenario's trace serializes to JSONL and
    // reloads as a literal — the same schedule, replayable anywhere.
    let scenario = Scenario::builder().trace(flash).build();
    let trace = scenario.workload.build_trace().expect("trace workload");
    let jsonl = trace.to_jsonl();
    let reloaded = Trace::from_jsonl(&jsonl).expect("own output parses");
    assert_eq!(reloaded, trace);
    println!(
        "\nThe flash-crowd schedule round-trips through JSONL: {} lines, {} events, \
         identical after reload.",
        jsonl.lines().count(),
        reloaded.num_events()
    );
}
