//! The repository's benchmark: five end-to-end workloads measured one
//! way, with a traced form that attributes their time to layers.
//!
//! ```text
//! score-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! score-benchmark run     [--seed <n>] [--seconds <s>] [--quick] [--result <file>]
//! score-benchmark trace   [--seed <n>] [--seconds <s>] [--quick] [--result <file>]
//! score-benchmark compare <A.json> <B.json>
//! ```
//!
//! The first form runs one workload in this process and prints its
//! metrics, the last line being one JSON object; it is what the driver
//! named in `BENCHMARK.json` calls. `run` and `trace` run every
//! workload that way, each in a child of its own, and write a result
//! file `compare` reads. See `README.md`.

mod compare;
mod daemon;
mod harness;
mod heap;
mod metrics;
mod sim_workloads;
mod spans;
mod stats;

use harness::{peak_rss_mb, HostInfo, Layers, Rep, Workload};
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use sim_workloads::{Converge, Grid, Replay, TraceShape};
use spans::Tracer;
use stats::{median, percentile_sorted};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: heap::CountingAllocator = heap::CountingAllocator;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures when
/// `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 12.0;
const DEFAULT_SEED: u64 = 11;

/// Timed reps an end-to-end run makes at least, however short
/// `--seconds` is; a traced run needs fewer of each form.
const MIN_REPS: usize = 3;
const MIN_REPS_TRACED: usize = 2;

/// Spans whose only job is to group other spans: their self time is
/// what the traced run could not attribute to a layer.
const WRAPPER_SPANS: [&str; 3] = ["body", "sim.matrix", "sim.run_trace"];

/// Leaf spans and the per-layer metric their summed duration feeds.
const SPAN_METRICS: [(&str, &str); 6] = [
    ("topology.build", "topology.build_s"),
    ("traffic.generate", "traffic.generate_s"),
    ("sim.materialize", "sim.materialize_s"),
    ("sim.run", "sim.run_s"),
    ("sim.report", "sim.report_s"),
    ("sim.report_json", "sim.report_json_s"),
];

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
    result: Option<PathBuf>,
    lines: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/results"),
        result: None,
        lines: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = parse(&value("--seed")?)?,
            "--seconds" => args.seconds = parse(&value("--seconds")?)?,
            "--trace" => args.trace = parse::<u8>(&value("--trace")?)? != 0,
            "--lines" => args.lines = parse(&value("--lines")?)?,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--result" => args.result = Some(PathBuf::from(value("--result")?)),
            "--quick" => args.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("cannot parse `{text}`"))
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let command = args.positional.first().map(String::as_str);
        match (command, &args.workload) {
            (None, Some(name)) => run_workload(name, &args),
            (Some("run"), _) => run_set(&args, false),
            (Some("trace"), _) => run_set(&args, true),
            (Some("compare"), _) => match &args.positional[1..] {
                [a, b] => compare::compare_files(Path::new(a), Path::new(b)),
                _ => Err("compare takes two result files".into()),
            },
            (Some("socket-probe"), _) => {
                daemon::socket_probe(args.seed, args.quick, args.lines, &args.out).map(|()| true)
            }
            _ => Err(
                "usage: score-benchmark (--workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 | run | trace | compare <A.json> <B.json>) [--quick]"
                    .into(),
            ),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn build_workload(name: &str, args: &Args) -> Result<Box<dyn Workload>, String> {
    let (seed, quick) = (args.seed, args.quick);
    Ok(match name {
        "converge-101k" => Box::new(Converge::new(seed, quick)),
        "grid-2560" => Box::new(Grid::new(seed, quick)),
        "replay-diurnal-27k" => Box::new(Replay::new(TraceShape::Diurnal, seed, quick)?),
        "replay-churn-27k" => Box::new(Replay::new(TraceShape::Churn, seed, quick)?),
        "daemon-mix-2560" => Box::new(daemon::DaemonMix::new(seed, quick, &args.out)),
        _ => {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload `{name}`; known: {}",
                known.join(", ")
            ));
        }
    })
}

/// Runs reps until `budget_s` has passed and at least `min_reps` ran.
/// Also returns the peak live heap of the first rep alone: later reps
/// run on top of the samples the harness keeps of earlier ones, so only
/// the first is independent of how many reps fit the budget.
fn timed_reps(
    workload: &mut dyn Workload,
    tr: &mut Tracer,
    decomposed: bool,
    budget_s: f64,
    min_reps: usize,
) -> Result<(Vec<Rep>, f64), String> {
    let started = Instant::now();
    let mut reps = Vec::new();
    heap::reset_peak();
    let mut first_peak_mb = 0.0;
    while reps.len() < min_reps || started.elapsed().as_secs_f64() < budget_s {
        tr.next_rep();
        reps.push(workload.rep(tr, decomposed)?);
        if reps.len() == 1 {
            first_peak_mb = heap::peak_mb();
        }
    }
    Ok((reps, first_peak_mb))
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// One workload, in this process. Prints every metric by name and, as
/// the last line, the JSON object the driver reads. Returns whether
/// every output check passed.
fn run_workload(name: &str, args: &Args) -> Result<bool, String> {
    let mut workload = build_workload(name, args)?;
    let mut tr = Tracer::disabled();

    // The discarded warm-up rep pays for page faults and allocator
    // growth. It runs in decomposed form so that, on the grid, every
    // cell's session is audited once per run; its digest must equal the
    // end-to-end reps'.
    let cold = workload.rep(&mut tr, true)?;
    let (budget_s, min_reps) = if args.trace {
        (args.seconds / 3.0, MIN_REPS_TRACED)
    } else {
        (args.seconds, MIN_REPS)
    };
    let (reps, peak_heap) = timed_reps(workload.as_mut(), &mut tr, false, budget_s, min_reps)?;
    let peak_rss = peak_rss_mb();

    let mut failures: Vec<String> = cold.failures.clone();
    for rep in &reps {
        failures.extend(rep.failures.iter().cloned());
        if rep.digest != cold.digest {
            failures.push(format!(
                "sim_digest differs between reps: {} vs {}",
                rep.digest.to_json(),
                cold.digest.to_json()
            ));
        }
    }
    failures.extend(workload.final_checks());

    let samples = [
        (
            "setup_s",
            reps.iter().map(|r| r.setup_s).collect::<Vec<_>>(),
        ),
        ("wall_s", reps.iter().map(|r| r.wall_s).collect()),
        (
            "ops_per_s",
            reps.iter().map(|r| r.ops as f64 / r.run_s).collect(),
        ),
    ];
    let mut values = Layers::new();
    for (metric, s) in &samples {
        values.insert(metric, median(s));
    }
    values.insert("peak_heap_mb", peak_heap);
    let mut attempted: u64 = reps.iter().map(|r| r.ops).sum();
    let mut failed: u64 = reps.iter().map(|r| r.failed).sum();

    let table: Vec<(&str, &str)> = if args.trace {
        tr.set_enabled(true);
        let (traced, _) = timed_reps(workload.as_mut(), &mut tr, true, budget_s, MIN_REPS_TRACED)?;
        tr.set_enabled(false);
        for rep in &traced {
            failures.extend(rep.failures.iter().cloned());
            if rep.digest != cold.digest {
                failures.push("sim_digest of a traced rep differs".into());
            }
        }
        attempted += traced.iter().map(|r| r.ops).sum::<u64>();
        failed += traced.iter().map(|r| r.failed).sum::<u64>();
        values = layer_metrics(workload.as_mut(), &mut tr, &cold, &reps, &traced)?;
        values.insert("peak_rss_mb", peak_rss);
        values.insert("failed_ratio", failed as f64 / attempted.max(1) as f64);
        std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
        tr.write_jsonl(&args.out.join(format!("{name}-spans.jsonl")), name)
            .map_err(|e| format!("writing spans: {e}"))?;
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };

    // Two renderings of the same metrics: the object the driver reads,
    // and the result-file entry that also carries the per-rep samples.
    let (mut for_driver, mut for_file) = (Vec::new(), Vec::new());
    for (metric, unit) in table {
        let value = values.get(metric).copied().unwrap_or(0.0);
        if !value.is_finite() {
            failures.push(format!("{metric} is not a finite number"));
        }
        println!("{metric:<32} {value:>18.6} {unit}");
        let body = format!("\"value\":{value:?},\"unit\":\"{unit}\"");
        let listed = samples
            .iter()
            .find(|(sampled, _)| *sampled == metric)
            .map(|(_, s)| format!(",\"samples\":{s:?}"))
            .unwrap_or_default();
        for_driver.push(format!("\"{metric}\":{{{body}}}"));
        for_file.push(format!("\"{metric}\":{{{body}{listed}}}"));
    }
    for failure in &failures {
        eprintln!("check failed [{name}]: {failure}");
    }
    let correct = failures.is_empty();
    let counts = format!("\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed}");
    println!(
        "detail {{\"name\":\"{name}\",{counts},\"reps\":{},\"digest\":{},\"metrics\":{{{}}}}}",
        reps.len(),
        cold.digest.to_json(),
        for_file.join(",")
    );
    println!("{{{counts},\"metrics\":{{{}}}}}", for_driver.join(","));
    Ok(correct)
}

/// Derives the per-layer metrics of a traced run: span totals, the
/// facts the reps gathered, and the workload's own layer probes.
fn layer_metrics(
    workload: &mut dyn Workload,
    tr: &mut Tracer,
    cold: &Rep,
    reps: &[Rep],
    traced: &[Rep],
) -> Result<Layers, String> {
    let mut out = traced[traced.len() - 1].facts.clone();
    let drift = traced
        .iter()
        .filter_map(|r| r.facts.get("core.ledger_drift"))
        .fold(0.0, |a, &b| f64::max(a, b));
    out.insert("core.ledger_drift", drift);
    for (span, metric) in SPAN_METRICS {
        let total = tr.median_total_s(span);
        if total > 0.0 {
            out.insert(metric, total);
        }
    }
    // The daemon reports what its request loop could not attribute
    // itself; everywhere else it is the self time of the wrappers.
    out.entry("sim.unattributed_s")
        .or_insert_with(|| WRAPPER_SPANS.iter().map(|s| tr.median_self_s(s)).sum());
    let wall_s = median_of(reps, |r| r.wall_s);
    let wall_traced_s = median_of(traced, |r| r.wall_s);
    out.insert("wall_traced_s", wall_traced_s);
    out.insert(
        "tracing_overhead_pct",
        (wall_traced_s - wall_s) / wall_s * 100.0,
    );
    out.insert("sim.cold_wall_s", cold.wall_s);
    out.insert("reps", reps.len() as f64);
    out.insert("cost_ratio", reps[reps.len() - 1].cost_ratio);

    let mut pool: Vec<u32> = reps
        .iter()
        .flat_map(|r| r.latencies_ns.iter().copied())
        .collect();
    if !pool.is_empty() {
        pool.sort_unstable();
        for (metric, p) in [
            ("svc_p50_us", 0.5),
            ("svc_p99_us", 0.99),
            ("svc_p999_us", 0.999),
        ] {
            out.insert(metric, percentile_sorted(&pool, p) / 1e3);
        }
    }
    workload.probes(tr, median_of(reps, |r| r.run_s), &mut out)?;
    Ok(out)
}

/// `run` / `trace`: every workload in a child process of its own (a
/// clean `VmHWM` each), the children's metrics echoed and collected
/// into one result file. Returns whether every workload was correct.
fn run_set(args: &Args, trace: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let host = HostInfo::collect();
    let mut entries = Vec::new();
    let mut all_correct = true;
    for (name, _) in WORKLOADS {
        println!(
            "== {name} (seed {}{})",
            args.seed,
            if args.quick { ", quick" } else { "" }
        );
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out);
        if args.quick {
            cmd.arg("--quick");
        }
        let output = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning the {name} child: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        // The child's last two lines: the result-file entry, then the
        // object the driver reads (the entry already holds all of it).
        lines.pop();
        let detail = lines.pop().and_then(|l| l.strip_prefix("detail "));
        for line in &lines {
            println!("{line}");
        }
        let Some(detail) = detail else {
            println!("{name}: the child printed no result ({})", output.status);
            all_correct = false;
            continue;
        };
        all_correct &= output.status.success();
        entries.push(detail.to_string());
    }
    let file = format!(
        "{{\"mode\":\"{}\",\"seed\":{},\"quick\":{},\"seconds\":{:?},\"host_cores\":{},\
         \"rustc\":\"{}\",\"commit\":\"{}\",\"workloads\":[\n{}\n]}}\n",
        if trace { "trace" } else { "run" },
        args.seed,
        args.quick,
        args.seconds,
        host.host_cores,
        host.rustc,
        host.commit,
        entries.join(",\n")
    );
    let path = args.result.clone().unwrap_or_else(|| {
        args.out.join(format!(
            "{}-seed{}{}.json",
            if trace { "trace" } else { "run" },
            args.seed,
            if args.quick { "-quick" } else { "" }
        ))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&path, file).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("result file: {}", path.display());
    Ok(all_correct)
}
