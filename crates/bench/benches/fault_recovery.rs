//! Fault-recovery benchmark: what adversity costs at the
//! paper-canonical fabric (2560 hosts, §V scale).
//!
//! Two numbers are pinned and recorded in `BENCH_faults.json` at the
//! workspace root:
//!
//! * **evacuation decision latency** — one `HostCrash` applied at a
//!   drained boundary (mark host down, re-place every resident VM via
//!   `choose_server`, re-price each move through the Lemma-3 delta
//!   path), in µs per evacuated VM;
//! * **time-to-stable** — sim-seconds from the last fault of a default
//!   seeded storm to the last migration the re-planning pipeline needed
//!   (`RunReport.recovery.time_to_stable_s`).
//!
//! Both are gated with a **degeneration warning**: if the evacuation
//! path regresses past `EVAC_BUDGET_US` per VM, or the storm's
//! re-convergence past `STABLE_BUDGET_S`, the run prints a loud
//! `WARNING:` line (and the criterion group still reports the trend).
//!
//! Run with `cargo bench --bench fault_recovery`.

use criterion::{black_box, Criterion};
use score_sim::{Scenario, Session};
use score_topology::{ServerId, VmId};
use score_trace::{fault_storm_events, FaultSpec, TraceEvent};
use score_traffic::TrafficIntensity;
use std::fmt::Write as _;
use std::time::Instant;

/// Per-VM evacuation budget: past this, the O(degree) evacuation path
/// has degenerated (e.g. into a full-ledger rebuild).
const EVAC_BUDGET_US: f64 = 2_000.0;

/// Re-convergence budget for the default storm at paper scale: the
/// healthy pipeline stabilizes ~270 sim-seconds after the last fault
/// (cost-driven Theorem-1 migrations after a fault count too).
const STABLE_BUDGET_S: f64 = 400.0;

fn paper_session() -> Session {
    let mut s = Scenario::paper_canonical(TrafficIntensity::Sparse, 11);
    s.timing.t_end_s = 700.0;
    s.session().expect("paper scenario materializes")
}

struct FaultPoint {
    hosts: usize,
    vms: u32,
    evacuations: u64,
    evac_us_per_vm: f64,
    storm_faults: u64,
    time_to_stable_s: f64,
    slo_violating_s: f64,
}

/// Crashes a spread of populated hosts at drained boundaries, timing
/// only the `apply_fault` calls; then replays the default storm on a
/// fresh session for the recovery clock.
fn measure() -> FaultPoint {
    let mut session = paper_session();
    let hosts = session.topo().num_servers();
    let vms = session.traffic().num_vms();
    session.run(1);
    session.drain_to_boundary();

    // Evacuation latency: crash the hosts of a VM sample (guaranteed
    // populated), one at a time.
    let mut evacuations = 0u64;
    let mut timed_s = 0.0;
    for i in 0..32u32 {
        let vm = VmId::new(i * 61);
        if !session.cluster().is_active(vm) {
            continue; // retired by an earlier crash (unplaceable)
        }
        let server: ServerId = session.cluster().allocation().server_of(vm);
        session.drain_to_boundary();
        let start = Instant::now();
        let outcome = black_box(
            session
                .apply_fault(&TraceEvent::HostCrash {
                    server: server.get(),
                })
                .expect("crash applies"),
        );
        timed_s += start.elapsed().as_secs_f64();
        evacuations += outcome.evacuated.len() as u64 + outcome.unplaceable.len() as u64;
    }
    let evac_us_per_vm = timed_s * 1e6 / evacuations.max(1) as f64;

    // Time-to-stable: the default seeded storm on a fresh session.
    let mut session = paper_session();
    let racks = session.topo().num_racks() as u32;
    let spec = FaultSpec {
        horizon_s: 500.0,
        ..FaultSpec::default_storm(hosts as u32, racks)
    };
    let storm = fault_storm_events(&spec, 11).expect("default storm generates");
    session.run_storm(&storm).expect("storm applies");
    session.run_to_horizon();
    let report = session.report();

    FaultPoint {
        hosts,
        vms,
        evacuations,
        evac_us_per_vm,
        storm_faults: report.recovery.faults_injected,
        time_to_stable_s: report.recovery.time_to_stable_s,
        slo_violating_s: report.recovery.slo_violating_s,
    }
}

fn bench_faults(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_recovery");
    group.sample_size(10);
    let mut session = paper_session();
    session.run(1);
    session.drain_to_boundary();
    let num_vms = session.traffic().num_vms();
    let mut next_vm = 0u32;
    group.bench_function("host_crash_evacuation/canonical-2560", |b| {
        b.iter(|| {
            // Each rep crashes the host of a still-live VM, so the
            // evacuation fan-out stays representative.
            let mut vm = next_vm % num_vms;
            while !session.cluster().is_active(VmId::new(vm)) {
                vm = (vm + 1) % num_vms;
            }
            next_vm = vm.wrapping_add(127);
            let server = session.cluster().allocation().server_of(VmId::new(vm));
            session.drain_to_boundary();
            black_box(
                session
                    .apply_fault(&TraceEvent::HostCrash {
                        server: server.get(),
                    })
                    .unwrap(),
            )
        })
    });
    group.finish();
}

/// Writes `BENCH_faults.json` at the workspace root.
fn record(p: &FaultPoint, warnings: &[String]) {
    let mut json = String::from("{\n  \"bench\": \"fault_recovery\",\n");
    let _ = writeln!(
        json,
        "  \"point\": {{\"hosts\": {}, \"vms\": {}, \"evacuations\": {}, \
         \"evac_us_per_vm\": {:.2}, \"storm_faults\": {}, \
         \"time_to_stable_s\": {:.2}, \"slo_violating_s\": {:.2}}},",
        p.hosts,
        p.vms,
        p.evacuations,
        p.evac_us_per_vm,
        p.storm_faults,
        p.time_to_stable_s,
        p.slo_violating_s,
    );
    let _ = writeln!(
        json,
        "  \"budgets\": {{\"evac_us_per_vm\": {EVAC_BUDGET_US:.0}, \
         \"time_to_stable_s\": {STABLE_BUDGET_S:.0}}},"
    );
    let _ = writeln!(json, "  \"degenerated\": {}", !warnings.is_empty());
    json.push_str("}\n");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find(|p| p.join("Cargo.toml").exists() && p.join("crates").exists())
        .map(|p| p.join("BENCH_faults.json"))
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_faults.json"));
    std::fs::write(&path, json).expect("write bench record");
    println!("bench record written to {}", path.display());
}

fn main() {
    let mut criterion = Criterion::default();
    bench_faults(&mut criterion);
    let p = measure();
    println!(
        "fault_recovery: {} hosts {} vms  {} evacuations at {:.2} µs/vm  \
         storm of {} faults stable after {:.1} s ({:.1} s degraded)",
        p.hosts,
        p.vms,
        p.evacuations,
        p.evac_us_per_vm,
        p.storm_faults,
        p.time_to_stable_s,
        p.slo_violating_s,
    );
    let mut warnings = Vec::new();
    if p.evac_us_per_vm > EVAC_BUDGET_US {
        warnings.push(format!(
            "evacuation latency degenerated: {:.2} µs/vm > {EVAC_BUDGET_US:.0} µs budget",
            p.evac_us_per_vm
        ));
    }
    if p.time_to_stable_s > STABLE_BUDGET_S {
        warnings.push(format!(
            "re-convergence degenerated: {:.1} s to stable > {STABLE_BUDGET_S:.0} s budget",
            p.time_to_stable_s
        ));
    }
    for w in &warnings {
        println!("WARNING: {w}");
    }
    record(&p, &warnings);
}
