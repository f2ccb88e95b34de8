//! Runs the whole benchmark in `--quick` mode, end to end and traced,
//! and checks the shape of what it reports: every metric
//! `BENCHMARK.json` names is present with its unit, the span log is a
//! well-formed forest, and the traced time is attributed.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_score-benchmark");

fn load(path: &Path) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    serde_json::parse_value_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("no `{key}` array"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

fn number(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no number `{key}`"))
}

/// Runs `score-benchmark <mode> --quick` into a directory of its own and
/// returns the parsed result file.
fn run_set(mode: &str, out: &Path) -> Value {
    let result = out.join("result.json");
    let output = Command::new(BIN)
        .args([mode, "--quick", "--seconds", "0", "--seed", "7", "--out"])
        .arg(out)
        .arg("--result")
        .arg(&result)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{mode} --quick failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    load(&result)
}

fn contract() -> Value {
    load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every workload and every metric of `table` is in `result`, with the
/// contract's unit, and every workload passed its output checks.
fn assert_reports(result: &Value, contract: &Value, table: &str) {
    for key in ["host_cores", "rustc", "commit", "seed"] {
        assert!(result.get(key).is_some(), "result file lacks `{key}`");
    }
    let workloads = list(result, "workloads");
    assert_eq!(workloads.len(), list(contract, "workloads").len());
    for (got, want) in workloads.iter().zip(list(contract, "workloads")) {
        let name = text(want, "name");
        assert_eq!(text(got, "name"), name);
        assert_eq!(
            got.get("correct").and_then(Value::as_bool),
            Some(true),
            "{name}"
        );
        assert_eq!(number(got, "failed"), 0.0, "{name}");
        assert!(number(got, "attempted") >= 1.0, "{name}");
        assert!(number(got, "reps") >= 2.0, "{name}");
        let metrics = got.get("metrics").expect("metrics");
        for metric in list(contract, table) {
            let metric_name = text(metric, "name");
            let entry = metrics
                .get(metric_name)
                .unwrap_or_else(|| panic!("{name} lacks {metric_name}"));
            assert_eq!(
                text(entry, "unit"),
                text(metric, "unit"),
                "{name} {metric_name}"
            );
            assert!(number(entry, "value").is_finite(), "{name} {metric_name}");
        }
    }
}

#[test]
fn quick_run_reports_every_end_to_end_metric() {
    let result = run_set("run", &out_dir("quick-run"));
    let contract = contract();
    assert_reports(&result, &contract, "end_to_end");
    for workload in list(&result, "workloads") {
        for metric in list(&contract, "end_to_end") {
            let metric_name = text(metric, "name");
            let entry = workload.get("metrics").unwrap().get(metric_name).unwrap();
            let value = number(entry, "value");
            assert!(
                value > 0.0,
                "{} {metric_name} must never be 0",
                text(workload, "name")
            );
        }
    }
}

struct Span {
    rep: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

#[test]
fn quick_trace_attributes_the_time_it_measures() {
    let out = out_dir("quick-trace");
    let result = run_set("trace", &out);
    assert_reports(&result, &contract(), "per_layer");

    for workload in list(&result, "workloads") {
        let name = text(workload, "name");
        let log = std::fs::read_to_string(out.join(format!("{name}-spans.jsonl"))).unwrap();
        let mut spans: BTreeMap<u64, Span> = BTreeMap::new();
        for line in log.lines() {
            let v = serde_json::parse_value_str(line).unwrap();
            assert_eq!(text(&v, "workload"), name);
            let id = number(&v, "id") as u64;
            let span = Span {
                rep: number(&v, "rep") as u64,
                parent: number(&v, "parent") as u64,
                name: text(&v, "name").to_string(),
                start_ns: number(&v, "start_ns") as u64,
                end_ns: number(&v, "end_ns") as u64,
            };
            assert!(
                span.start_ns <= span.end_ns,
                "{name}: span {id} ends before it starts"
            );
            assert!(
                spans.insert(id, span).is_none(),
                "{name}: span id {id} repeats"
            );
        }
        assert!(!spans.is_empty(), "{name}: empty span log");

        // Parents resolve, children fit inside them, and self times
        // (duration minus direct children) are never negative.
        let mut self_ns: BTreeMap<u64, u64> = spans
            .iter()
            .map(|(&id, s)| (id, s.end_ns - s.start_ns))
            .collect();
        for (id, s) in &spans {
            if s.parent == 0 {
                continue;
            }
            let parent = spans
                .get(&s.parent)
                .unwrap_or_else(|| panic!("{name}: span {id} has no parent {}", s.parent));
            assert_eq!(parent.rep, s.rep, "{name}: span {id} crosses reps");
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "{name}: span {id} ({}) does not fit inside {}",
                s.name,
                parent.name
            );
            let left = self_ns.get_mut(&s.parent).unwrap();
            *left = left
                .checked_sub(s.end_ns - s.start_ns)
                .unwrap_or_else(|| panic!("{name}: children of {} overlap", parent.name));
        }

        // The timed body is the `request` spans on the daemon and the
        // `body` span elsewhere. Per rep, the self times of the body and
        // everything under it add up to the body; the median body is the
        // `wall_traced_s` the run reported.
        let root_name = if spans.values().any(|s| s.name == "request") {
            "request"
        } else {
            "body"
        };
        let under_body = |mut id: u64| loop {
            let s = &spans[&id];
            if s.name == root_name {
                return true;
            }
            if s.parent == 0 {
                return false;
            }
            id = s.parent;
        };
        let mut wall_ns: BTreeMap<u64, u64> = BTreeMap::new();
        let mut attributed_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for (&id, s) in &spans {
            if s.name == root_name {
                *wall_ns.entry(s.rep).or_default() += s.end_ns - s.start_ns;
            }
            if under_body(id) {
                *attributed_ns.entry(s.rep).or_default() += self_ns[&id];
            }
        }
        assert_eq!(
            wall_ns, attributed_ns,
            "{name}: self times do not sum to the body"
        );
        let mut walls: Vec<f64> = wall_ns.values().map(|&ns| ns as f64 / 1e9).collect();
        walls.sort_by(f64::total_cmp);
        let median = (walls[(walls.len() - 1) / 2] + walls[walls.len() / 2]) / 2.0;
        let metrics = workload.get("metrics").unwrap();
        let reported = number(metrics.get("wall_traced_s").unwrap(), "value");
        assert!(
            (median - reported).abs() <= 0.02 * reported,
            "{name}: spans say {median} s, the run reported {reported} s"
        );
        let unattributed = number(metrics.get("sim.unattributed_s").unwrap(), "value");
        assert!(
            unattributed < 0.05 * reported,
            "{name}: {unattributed} s of {reported} s unattributed"
        );
    }
}
