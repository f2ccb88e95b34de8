//! Decision-kernel latency bench: one full token-hold decision
//! (observation, single-pass level-bucketed Lemma-3 scoring, capacity
//! probes, migration, policy hand-off) measured through `Session::step`
//! at the paper's 2,560-host scale and on the mega-scale fat-trees
//! (k = 48: 27,648 hosts; k = 74: 101,306 hosts).
//!
//! Each point averages 500 fresh-session holds — the same methodology
//! that recorded the pre-kernel baselines — and keeps the **minimum**
//! of several repetitions, the standard latency treatment on shared
//! hardware (scheduler preemption only ever adds time, so the minimum
//! is the closest observable to the true cost).
//!
//! Writes `BENCH_decisions.json` at the workspace root with the
//! pre-kernel baselines and speedups alongside the fresh numbers, and
//! prints a `^WARNING:` line (the CI gate greps for it) if the
//! 2,560-host point regresses more than 25% past its post-kernel
//! reference.
//!
//! Run with `cargo bench --bench decision_kernel`.

use criterion::Criterion;
use score_sim::{Scenario, TopologySpec};
use std::fmt::Write as _;
use std::time::Instant;

/// Pre-kernel per-hold latency (ns) recorded before the single-pass
/// kernel landed — the denominator of the speedups.
const BASELINE_NS: [(&str, f64); 3] = [
    ("canonical-2560", 2653.9),
    ("fat-tree-27648", 5348.8),
    ("fat-tree-101306", 11118.0),
];

/// Post-kernel reference for the 2,560-host point; the gate fires when
/// a run lands more than 25% above it.
const GATE_2560_NS: f64 = 2000.0;
const GATE_SLACK: f64 = 1.25;

struct KernelPoint {
    label: &'static str,
    hosts: usize,
    vms: u32,
    decision_ns: f64,
    baseline_ns: f64,
}

fn record_sizes() -> [(&'static str, TopologySpec); 3] {
    [
        ("canonical-2560", TopologySpec::paper_canonical()),
        (
            "fat-tree-27648",
            TopologySpec::FatTree {
                k: 48,
                capacities: None,
            },
        ),
        (
            "fat-tree-101306",
            TopologySpec::FatTree {
                k: 74,
                capacities: None,
            },
        ),
    ]
}

fn scenario_for(topology: TopologySpec) -> Scenario {
    Scenario::builder()
        .topology(topology)
        .sparse_traffic(11)
        .build()
}

/// Average per-hold latency over 500 steps of a fresh session.
fn holds_500(scenario: &Scenario) -> f64 {
    let mut session = scenario
        .clone()
        .session()
        .expect("bench scenario is feasible");
    let reps = 500u32;
    let mut holds = 0u32;
    let start = Instant::now();
    while holds < reps {
        if session.step().is_none() {
            break;
        }
        holds += 1;
    }
    start.elapsed().as_nanos() as f64 / f64::from(holds.max(1))
}

fn measure(label: &'static str, topology: TopologySpec) -> KernelPoint {
    let scenario = scenario_for(topology);
    let session = scenario
        .clone()
        .session()
        .expect("bench scenario is feasible");
    let hosts = session.topo().num_servers();
    let vms = session.traffic().num_vms();
    drop(session);
    let decision_ns = (0..5)
        .map(|_| holds_500(&scenario))
        .fold(f64::INFINITY, f64::min);
    let baseline_ns = BASELINE_NS
        .iter()
        .find(|(l, _)| *l == label)
        .map_or(f64::NAN, |&(_, b)| b);
    KernelPoint {
        label,
        hosts,
        vms,
        decision_ns,
        baseline_ns,
    }
}

fn bench_decision_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("decision_kernel");
    group.sample_size(10);
    let scenario = scenario_for(TopologySpec::paper_canonical());
    group.bench_function("session_hold/canonical-2560", |b| {
        let mut session = scenario
            .clone()
            .session()
            .expect("bench scenario is feasible");
        b.iter(|| {
            if session.step().is_none() {
                session = scenario
                    .clone()
                    .session()
                    .expect("bench scenario is feasible");
            }
        })
    });
    group.finish();
}

/// Writes `BENCH_decisions.json` at the workspace root.
fn record(points: &[KernelPoint], warnings: &[String]) {
    let mut json = String::from(
        "{\n  \"bench\": \"decision_kernel\",\n  \"unit\": \"ns\",\n  \"points\": [\n",
    );
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"label\": \"{}\", \"hosts\": {}, \"vms\": {}, \"decision_ns\": {:.1}, \
             \"baseline_ns\": {:.1}, \"speedup\": {:.2}}}",
            p.label,
            p.hosts,
            p.vms,
            p.decision_ns,
            p.baseline_ns,
            p.baseline_ns / p.decision_ns.max(f64::MIN_POSITIVE),
        );
        json.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"warnings\": [");
    for (i, w) in warnings.iter().enumerate() {
        let _ = write!(json, "{}\"{}\"", if i == 0 { "" } else { ", " }, w);
    }
    json.push_str("]\n}\n");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find(|p| p.join("Cargo.toml").exists() && p.join("crates").exists())
        .map(|p| p.join("BENCH_decisions.json"))
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_decisions.json"));
    std::fs::write(&path, json).expect("write bench record");
    println!("bench record written to {}", path.display());
}

fn main() {
    let mut criterion = Criterion::default();
    bench_decision_kernel(&mut criterion);
    let points: Vec<KernelPoint> = record_sizes()
        .into_iter()
        .map(|(label, topology)| measure(label, topology))
        .collect();
    let mut warnings = Vec::new();
    for p in &points {
        println!(
            "decision_kernel: {:<16} {:>6} hosts {:>7} vms  decision {:>9.1} ns  \
             (baseline {:>9.1} ns, {:.2}x)",
            p.label,
            p.hosts,
            p.vms,
            p.decision_ns,
            p.baseline_ns,
            p.baseline_ns / p.decision_ns.max(f64::MIN_POSITIVE),
        );
        if p.label == "canonical-2560" && p.decision_ns > GATE_2560_NS * GATE_SLACK {
            warnings.push(format!(
                "decision latency regressed: {:.1} ns at 2,560 hosts > {:.0} ns budget \
                 ({:.0} ns reference + 25%)",
                p.decision_ns,
                GATE_2560_NS * GATE_SLACK,
                GATE_2560_NS,
            ));
        }
    }
    for w in &warnings {
        println!("WARNING: {w}");
    }
    record(&points, &warnings);
}
