//! The names, units, directions and bounds of everything the benchmark
//! reports. `BENCHMARK.json` at the repository root repeats these
//! tables for the driver; the test below keeps the two in step.

/// The workloads, in the order `run` executes them. Names are final:
/// later issues cite them. Add new ones at the end.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "converge-101k",
        "101,306-host fat-tree to 3 iterations then report and JSON: core ring/kernel, sim report and serialization each hold a large share; working set far beyond cache",
    ),
    (
        "grid-2560",
        "the paper's 30-cell grid (2 fabrics x 3 intensities x 5 policies) in cache: hcf/fcf/random cells put the time in core::policy, where converge-101k puts almost none",
    ),
    (
        "replay-diurnal-27k",
        "139 dense ScaleAll batches (12.6 M pair re-prices) on 27,648 hosts: traffic, core::ledger and core::cluster re-pricing do the work, decisions little",
    ),
    (
        "replay-churn-27k",
        "1.3 M single-pair batches on the same fabric: the same layers used sparsely, so the event queue and per-batch overhead dominate; a dense-path gain that taxes sparse writes shows here",
    ),
    (
        "daemon-mix-2560",
        "closed loop, 1 client, 400,000 mixed request lines per rep against a fresh TenantEngine: scored proto + engine + serde_json, no token holds and no trace compile",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Absolute change below which `compare` never reports a
    /// regression, in the metric's unit.
    pub floor: f64,
}

/// Every workload reports every one of these with tracing off.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        floor: 0.010,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.20,
        floor: 0.0,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.05,
        floor: 0.0,
    },
];

/// `(name, unit, higher_is_better)` of every per-layer metric of the
/// traced run. A layer that is not on a workload's path reports 0.
pub const PER_LAYER: [(&str, &str, bool); 60] = [
    ("topology.build_s", "s", false),
    ("traffic.generate_s", "s", false),
    ("traffic.pairs", "count", false),
    ("traffic.forecast_overhead_pct", "%", false),
    ("trace.generate_s", "s", false),
    ("trace.compile_s", "s", false),
    ("trace.events", "count", false),
    ("trace.batches", "count", false),
    ("sim.materialize_s", "s", false),
    ("sim.run_s", "s", false),
    ("sim.report_s", "s", false),
    ("sim.report_json_s", "s", false),
    ("sim.report_bytes", "bytes", false),
    ("sim.unattributed_s", "s", false),
    ("sim.cold_wall_s", "s", false),
    ("sim.loop_overhead_ns", "ns", false),
    ("sim.apply_delta_ns", "ns", false),
    ("sim.apply_scale_ns", "ns", false),
    ("sim.apply_scale_expanded_ns", "ns", false),
    ("sim.matrix_wall_2t_s", "s", false),
    ("sim.matrix_speedup_2t", "ratio", true),
    ("core.ring_step_ns", "ns", false),
    ("core.ring_share", "ratio", false),
    ("core.ring_step_ns.hlf", "ns", false),
    ("core.ring_step_ns.rr", "ns", false),
    ("core.ring_step_ns.hcf", "ns", false),
    ("core.ring_step_ns.fcf", "ns", false),
    ("core.ring_step_ns.random", "ns", false),
    ("core.holds", "count", true),
    ("core.migrations", "count", false),
    ("core.migration_ratio_iter1", "ratio", false),
    ("core.full_cost_s", "s", false),
    ("core.ledger_drift", "ratio", false),
    ("xen.precopy_sample_ns", "ns", false),
    ("obs.attach_overhead_pct", "%", false),
    ("scored.parse_us", "us", false),
    ("scored.serialize_us", "us", false),
    ("scored.apply_us.traffic", "us", false),
    ("scored.apply_us.place", "us", false),
    ("scored.apply_us.remove", "us", false),
    ("scored.apply_us.report", "us", false),
    ("scored.flush_trace_us", "us", false),
    ("scored.socket_rtt_p50_us", "us", false),
    ("scored.socket_rtt_p99_us", "us", false),
    ("scored.socket_overhead_us", "us", false),
    ("scored.socket_pinned", "count", true),
    ("scored.replay_s", "s", false),
    // The issue's other end-to-end names. The driver wants every
    // end-to-end metric from every workload, never 0, and steady across
    // seeds within its bound; these cannot be all three, so they are
    // reported here, where a workload they do not apply to says 0 (see
    // "What became of the issue's eleven" in the README).
    ("holds_per_s", "1/s", true),
    ("events_per_s", "1/s", true),
    ("realtime_factor", "ratio", true),
    ("requests_per_s", "1/s", true),
    ("svc_p50_us", "us", false),
    ("svc_p99_us", "us", false),
    ("svc_p999_us", "us", false),
    ("failed_ratio", "ratio", false),
    ("cost_ratio", "ratio", false),
    ("peak_rss_mb", "MB", false),
    ("wall_traced_s", "s", false),
    ("tracing_overhead_pct", "%", false),
    ("reps", "count", true),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry.get(key).and_then(Value::as_str).unwrap_or("")
    }

    fn direction(higher_is_better: bool) -> &'static str {
        if higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }

    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = serde_json::parse_value_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| file.get(key).and_then(Value::as_array).unwrap().to_vec();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!((text(entry, "name"), text(entry, "why")), (name, why));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }

        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, m) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(text(entry, "name"), m.name);
            assert_eq!(text(entry, "unit"), m.unit);
            assert_eq!(text(entry, "better"), direction(m.higher_is_better));
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }

        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, (name, unit, higher)) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(text(entry, "name"), name);
            assert_eq!(text(entry, "unit"), unit);
            assert_eq!(text(entry, "better"), direction(higher));
        }

        let seconds = file.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert_eq!(seconds, crate::DEFAULT_SECONDS);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
