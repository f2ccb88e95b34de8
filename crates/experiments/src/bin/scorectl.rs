//! `scorectl` — run a custom S-CORE scenario from the command line.
//!
//! ```text
//! scorectl [--topology canonical|fattree|star] [--racks N] [--hosts-per-rack N]
//!          [--k N] [--hosts N] [--vms-per-host F] [--intensity sparse|medium|dense]
//!          [--policy rr|hlf|hcf|fcf|random|all|P1,P2,…] [--threads N]
//!          [--cm F] [--t-end SECONDS]
//!          [--horizon SECONDS] [--forecast none|ewma|oracle] [--alpha F]
//!          [--seed N] [--csv FILE] [--json FILE]
//!          [--scenario FILE] [--emit-scenario FILE]
//!          [--fault-crashes N] [--fault-rack-fails N] [--fault-degradations N]
//!          [--fault-degrade-factor F] [--fault-hold S] [--fault-seed N]
//!          [--fault-replay FILE.jsonl] [--record-trace FILE.jsonl]
//! scorectl trace [--shape diurnal|flash|churn | --trace FILE.jsonl]
//!          [--num-vms N] [--save-trace FILE.jsonl] [common flags above]
//! scorectl serve [--socket PATH] [--tcp ADDR] [--rate SIM_S_PER_WALL_S]
//!          [--record-dir DIR] [scenario flags above]
//! scorectl client (--socket PATH | --tcp ADDR) [-e REQUEST]... [--follow]
//! scorectl top (--socket PATH | --tcp ADDR) [--tenant NAME]
//!          [--interval SECONDS] [--once]
//! scorectl replay --dir DIR [--expect FILE]
//! ```
//!
//! Every flag edits one field of a [`Scenario`]; the run itself is
//! `scenario.session() → run_to_horizon() → report()`. With
//! `--scenario FILE` the whole spec is loaded from JSON instead (flags
//! still apply on top), `--emit-scenario` writes the effective spec back
//! out, and `--json` writes the full [`score_sim::RunReport`].
//!
//! `--policy` also accepts a comma-separated list (or `all`): the run
//! becomes a `ScenarioMatrix` policy sweep executed on the
//! [`score_sim::MatrixRunner`] — `--threads N` sets the worker
//! count (default: every core; results are bit-identical at any
//! width, trace workloads included) and `--json` then writes the
//! collected [`score_sim::MatrixReport`].
//!
//! The `--fault-*` flags inject a deterministic **failure storm** into a
//! batch run: a seeded [`FaultSpec`] generator (host crashes, correlated
//! rack failures, per-tier link degradations) sized to the scenario's
//! fabric, applied at drained event boundaries through the Lemma-3
//! evacuation path. `--record-trace` appends every fault to a JSONL
//! audit log whose replay (`--fault-replay`) re-derives the evacuations
//! and reproduces the `--json` report byte for byte — the CI
//! fault-replay job diffs exactly that pair.
//!
//! The `trace` subcommand runs a **time-varying** workload instead: a
//! synthetic trace shape (deterministic from `--seed`) or a JSONL trace
//! file replayed through the session event clock as one run (a marker in
//! the file is a label), printing one result line and the in-place
//! re-pricing statistics; `--csv` writes the run's `time_s,cost` series
//! and `--json` its one [`score_sim::RunReport`].
//!
//! The `serve` subcommand starts the [`score_scored::Daemon`] on a Unix
//! socket and/or TCP address, serving the scenario the usual flags
//! describe as a *live* cluster; `client` drives a running daemon with
//! protocol request lines (`-e` per request, or stdin); `replay`
//! re-executes a recorded tenant directory (`scenario.json` +
//! `trace.jsonl`) and prints the canonical report — with `--expect` it
//! diffs against the daemon's persisted `report.json` byte for byte and
//! fails on any mismatch.
//!
//! The `top` subcommand is a terminal dashboard over the daemon's
//! `Stats` verb: every `--interval` seconds it polls the live metrics
//! snapshot, derives per-second rates from successive counter readings,
//! and renders counters, gauges, latency-histogram percentiles, and the
//! tail of the decision journal. `--once` prints a single frame and
//! exits (useful in scripts and CI); `--tenant` attaches the polling
//! connection so tenant creation is on-demand, exactly like a client.

use score_sim::{
    series_to_csv, ForecastSpec, PolicyKind, Scenario, ScenarioMatrix, TopologySpec, TraceSpec,
    WorkloadSpec,
};
use score_trace::{
    fault_storm_events, ChurnShape, DiurnalShape, FaultSpec, FlashCrowdShape, TimedEvent, Trace,
};
use score_traffic::TrafficIntensity;
use std::process::ExitCode;

#[derive(Debug, Default)]
struct Args {
    trace_mode: bool,
    serve_mode: bool,
    client_mode: bool,
    replay_mode: bool,
    top_mode: bool,
    socket: Option<String>,
    tcp: Option<String>,
    rate: Option<f64>,
    record_dir: Option<String>,
    requests: Vec<String>,
    follow: bool,
    tenant: Option<String>,
    interval: Option<f64>,
    once: bool,
    dir: Option<String>,
    expect: Option<String>,
    shape: Option<String>,
    trace_file: Option<String>,
    save_trace: Option<String>,
    num_vms: Option<u32>,
    scenario_file: Option<String>,
    topology: Option<String>,
    racks: Option<u32>,
    hosts_per_rack: Option<u32>,
    k: Option<u32>,
    hosts: Option<u32>,
    vms_per_host: Option<f64>,
    intensity: Option<TrafficIntensity>,
    policies: Vec<PolicyKind>,
    threads: Option<usize>,
    cm: Option<f64>,
    horizon: Option<f64>,
    forecast: Option<String>,
    alpha: Option<f64>,
    t_end_s: Option<f64>,
    seed: Option<u64>,
    csv: Option<String>,
    json: Option<String>,
    emit_scenario: Option<String>,
    fault_crashes: Option<u32>,
    fault_rack_fails: Option<u32>,
    fault_degradations: Option<u32>,
    fault_degrade_factor: Option<f64>,
    fault_hold: Option<f64>,
    fault_seed: Option<u64>,
    fault_replay: Option<String>,
    record_trace: Option<String>,
}

impl Args {
    /// True when any adversity flag asks for a storm (generated or
    /// replayed from a recorded trace).
    fn fault_mode(&self) -> bool {
        self.fault_replay.is_some()
            || self.fault_crashes.is_some()
            || self.fault_rack_fails.is_some()
            || self.fault_degradations.is_some()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    match it.peek().map(String::as_str) {
        Some("trace") => {
            args.trace_mode = true;
            it.next();
        }
        Some("serve") => {
            args.serve_mode = true;
            it.next();
        }
        Some("client") => {
            args.client_mode = true;
            it.next();
        }
        Some("replay") => {
            args.replay_mode = true;
            it.next();
        }
        Some("top") => {
            args.top_mode = true;
            it.next();
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--scenario" => args.scenario_file = Some(value("--scenario")?),
            "--topology" => args.topology = Some(value("--topology")?),
            "--racks" => args.racks = Some(value("--racks")?.parse().map_err(|e| format!("{e}"))?),
            "--hosts-per-rack" => {
                args.hosts_per_rack = Some(
                    value("--hosts-per-rack")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--k" => args.k = Some(value("--k")?.parse().map_err(|e| format!("{e}"))?),
            "--hosts" => args.hosts = Some(value("--hosts")?.parse().map_err(|e| format!("{e}"))?),
            "--vms-per-host" => {
                args.vms_per_host = Some(
                    value("--vms-per-host")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--intensity" => {
                args.intensity = Some(match value("--intensity")?.as_str() {
                    "sparse" => TrafficIntensity::Sparse,
                    "medium" => TrafficIntensity::Medium,
                    "dense" => TrafficIntensity::Dense,
                    other => return Err(format!("unknown intensity {other:?}")),
                })
            }
            "--policy" => {
                // Last --policy wins (like every other flag); duplicate
                // names within one list are dropped, not run twice.
                let spec = value("--policy")?;
                let mut policies = Vec::new();
                if spec == "all" {
                    policies = PolicyKind::all().to_vec();
                } else {
                    for name in spec.split(',') {
                        let policy = match name {
                            "rr" => PolicyKind::RoundRobin,
                            "hlf" => PolicyKind::HighestLevelFirst,
                            "hcf" => PolicyKind::HighestCostFirst,
                            "fcf" => PolicyKind::ForecastCostFirst,
                            "random" => PolicyKind::Random,
                            other => return Err(format!("unknown policy {other:?}")),
                        };
                        if !policies.contains(&policy) {
                            policies.push(policy);
                        }
                    }
                }
                args.policies = policies;
            }
            "--threads" => {
                let n: usize = value("--threads")?.parse().map_err(|e| format!("{e}"))?;
                args.threads = Some(n.max(1));
            }
            "--shape" => args.shape = Some(value("--shape")?),
            "--trace" => args.trace_file = Some(value("--trace")?),
            "--save-trace" => args.save_trace = Some(value("--save-trace")?),
            "--num-vms" => {
                args.num_vms = Some(value("--num-vms")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--cm" => args.cm = Some(value("--cm")?.parse().map_err(|e| format!("{e}"))?),
            "--horizon" => {
                args.horizon = Some(value("--horizon")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--forecast" => args.forecast = Some(value("--forecast")?),
            "--alpha" => args.alpha = Some(value("--alpha")?.parse().map_err(|e| format!("{e}"))?),
            "--t-end" => {
                args.t_end_s = Some(value("--t-end")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--seed" => args.seed = Some(value("--seed")?.parse().map_err(|e| format!("{e}"))?),
            "--socket" => args.socket = Some(value("--socket")?),
            "--tcp" => args.tcp = Some(value("--tcp")?),
            "--rate" => args.rate = Some(value("--rate")?.parse().map_err(|e| format!("{e}"))?),
            "--record-dir" => args.record_dir = Some(value("--record-dir")?),
            "-e" | "--exec" => args.requests.push(value("-e")?),
            "--follow" => args.follow = true,
            "--tenant" => args.tenant = Some(value("--tenant")?),
            "--interval" => {
                args.interval = Some(value("--interval")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--once" => args.once = true,
            "--dir" => args.dir = Some(value("--dir")?),
            "--expect" => args.expect = Some(value("--expect")?),
            "--csv" => args.csv = Some(value("--csv")?),
            "--json" => args.json = Some(value("--json")?),
            "--emit-scenario" => args.emit_scenario = Some(value("--emit-scenario")?),
            "--fault-crashes" => {
                args.fault_crashes = Some(
                    value("--fault-crashes")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--fault-rack-fails" => {
                args.fault_rack_fails = Some(
                    value("--fault-rack-fails")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--fault-degradations" => {
                args.fault_degradations = Some(
                    value("--fault-degradations")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--fault-degrade-factor" => {
                args.fault_degrade_factor = Some(
                    value("--fault-degrade-factor")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--fault-hold" => {
                args.fault_hold = Some(value("--fault-hold")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--fault-seed" => {
                args.fault_seed = Some(value("--fault-seed")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--fault-replay" => args.fault_replay = Some(value("--fault-replay")?),
            "--record-trace" => args.record_trace = Some(value("--record-trace")?),
            "--help" | "-h" => {
                return Err(String::new()); // triggers usage
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(args.serve_mode || args.client_mode || args.top_mode)
        && (args.socket.is_some() || args.tcp.is_some())
    {
        return Err("--socket/--tcp need the `serve`, `client` or `top` subcommand".into());
    }
    if !args.top_mode && (args.tenant.is_some() || args.interval.is_some() || args.once) {
        return Err("--tenant/--interval/--once need the `top` subcommand".into());
    }
    if !args.serve_mode && (args.rate.is_some() || args.record_dir.is_some()) {
        return Err("--rate/--record-dir need the `serve` subcommand".into());
    }
    if !args.client_mode && (!args.requests.is_empty() || args.follow) {
        return Err("-e/--follow need the `client` subcommand".into());
    }
    if !args.replay_mode && (args.dir.is_some() || args.expect.is_some()) {
        return Err("--dir/--expect need the `replay` subcommand".into());
    }
    if (args.fault_mode() || args.record_trace.is_some())
        && (args.trace_mode
            || args.serve_mode
            || args.client_mode
            || args.replay_mode
            || args.top_mode)
    {
        return Err(
            "--fault-*/--record-trace drive a batch run (no subcommand); the daemon \
             takes faults over the socket (`Fault` request) instead"
                .into(),
        );
    }
    if args.fault_replay.is_some()
        && (args.fault_crashes.is_some()
            || args.fault_rack_fails.is_some()
            || args.fault_degradations.is_some()
            || args.fault_seed.is_some())
    {
        return Err(
            "--fault-replay replays a recorded storm; drop the storm-generator flags".into(),
        );
    }
    if !args.fault_mode()
        && (args.fault_degrade_factor.is_some()
            || args.fault_hold.is_some()
            || args.fault_seed.is_some())
    {
        return Err(
            "--fault-degrade-factor/--fault-hold/--fault-seed need a storm \
             (--fault-crashes/--fault-rack-fails/--fault-degradations)"
                .into(),
        );
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: scorectl [--topology canonical|fattree|star] [--racks N] \
         [--hosts-per-rack N] [--k N] [--hosts N] [--vms-per-host F] \
         [--intensity sparse|medium|dense] [--policy rr|hlf|hcf|fcf|random|all|P1,P2,...] \
         [--threads N (policy sweeps; default all cores)] \
         [--cm F] [--t-end SECONDS] [--seed N] [--csv FILE] [--json FILE] \
         [--horizon SECONDS] [--forecast none|ewma|oracle] [--alpha F] \
         [--scenario FILE] [--emit-scenario FILE]\n\
         \x20              [--fault-crashes N] [--fault-rack-fails N] \
         [--fault-degradations N] [--fault-degrade-factor F] [--fault-hold S] \
         [--fault-seed N] [--fault-replay FILE.jsonl] [--record-trace FILE.jsonl]\n\
         \x20      scorectl trace [--shape diurnal|flash|churn | --trace FILE.jsonl] \
         [--num-vms N] [--save-trace FILE.jsonl] [common flags]\n\
         \x20      scorectl serve [--socket PATH] [--tcp ADDR] [--rate SIM_S_PER_WALL_S] \
         [--record-dir DIR] [scenario flags]\n\
         \x20      scorectl client (--socket PATH | --tcp ADDR) [-e REQUEST]... [--follow]\n\
         \x20      scorectl top (--socket PATH | --tcp ADDR) [--tenant NAME] \
         [--interval SECONDS] [--once]\n\
         \x20      scorectl replay --dir DIR [--expect FILE]"
    );
}

/// Builds the trace workload for `scorectl trace` from the subcommand
/// flags: a JSONL file or a deterministic synthetic shape.
fn trace_workload(args: &Args) -> Result<WorkloadSpec, String> {
    let seed = args.seed.unwrap_or(42);
    if let Some(path) = &args.trace_file {
        if args.shape.is_some() {
            return Err("--shape and --trace are mutually exclusive".into());
        }
        if args.num_vms.is_some() {
            return Err("--num-vms comes from the trace file with --trace".into());
        }
        let trace =
            Trace::load(std::path::Path::new(path)).map_err(|e| format!("loading {path}: {e}"))?;
        return Ok(WorkloadSpec::Trace {
            spec: TraceSpec::Literal { trace, seed },
        });
    }
    let num_vms = args.num_vms.unwrap_or(256);
    let intensity = args.intensity.unwrap_or(TrafficIntensity::Sparse);
    let horizon_s = args.t_end_s.unwrap_or(300.0);
    let spec = match args.shape.as_deref().unwrap_or("diurnal") {
        "diurnal" => TraceSpec::Diurnal {
            num_vms,
            intensity,
            seed,
            shape: DiurnalShape {
                period_s: horizon_s / 2.0,
                amplitude: 0.5,
                step_s: (horizon_s / 150.0).max(0.5),
                horizon_s,
            },
        },
        "flash" => TraceSpec::FlashCrowd {
            num_vms,
            intensity,
            seed,
            shape: FlashCrowdShape {
                spikes: 18,
                fanout: 8,
                surge_bps: 2e8,
                hold_s: horizon_s / 8.0,
                horizon_s,
            },
        },
        "churn" => TraceSpec::Churn {
            num_vms,
            intensity,
            seed,
            shape: ChurnShape {
                window_s: horizon_s / 4.0,
                windows: 4,
            },
        },
        other => return Err(format!("unknown trace shape {other:?}")),
    };
    Ok(WorkloadSpec::Trace { spec })
}

/// Builds the [`ForecastSpec`] the `--horizon`/`--forecast`/`--alpha`
/// flags describe, *editing* the (possibly loaded) scenario's forecast:
/// each omitted flag inherits from the scenario, so `--alpha 0.5` alone
/// re-tunes an already-active EWMA and `--horizon 60` alone re-times the
/// active estimator. `--horizon 0` is the reactive pipeline; a fresh
/// estimator defaults to the exact trace oracle on trace workloads and
/// the online EWMA otherwise.
fn forecast_spec(scenario: &Scenario, args: &Args) -> Result<ForecastSpec, String> {
    let current = scenario.forecast;
    let horizon_s = args.horizon.unwrap_or_else(|| current.horizon_s());
    if !(horizon_s.is_finite() && horizon_s >= 0.0) {
        return Err(format!("--horizon must be non-negative, got {horizon_s}"));
    }
    if horizon_s == 0.0 {
        if args.forecast.is_some() || args.alpha.is_some() {
            return Err("--forecast/--alpha need --horizon SECONDS > 0                         (or a scenario with an active forecast)"
                .into());
        }
        return Ok(ForecastSpec::None);
    }
    let is_trace = matches!(scenario.workload, WorkloadSpec::Trace { .. });
    let kind = match args.forecast.as_deref() {
        Some(k) => k,
        None => match current {
            ForecastSpec::Ewma { .. } => "ewma",
            ForecastSpec::TraceOracle { .. } => "oracle",
            ForecastSpec::None if is_trace => "oracle",
            ForecastSpec::None => "ewma",
        },
    };
    match kind {
        "none" => {
            if args.alpha.is_some() {
                return Err("--alpha does not apply to --forecast none".into());
            }
            Ok(ForecastSpec::None)
        }
        "ewma" => {
            let inherited = match current {
                ForecastSpec::Ewma { alpha, .. } => alpha,
                _ => 0.3,
            };
            Ok(ForecastSpec::Ewma {
                alpha: args.alpha.unwrap_or(inherited),
                horizon_s,
            })
        }
        "oracle" => {
            if args.alpha.is_some() {
                return Err("--alpha does not apply to --forecast oracle".into());
            }
            if !is_trace {
                return Err(
                    "--forecast oracle needs a trace workload (use the trace subcommand)".into(),
                );
            }
            Ok(ForecastSpec::TraceOracle { horizon_s })
        }
        other => Err(format!("unknown forecast estimator {other:?}")),
    }
}

/// Applies the CLI flags on top of a base scenario. A dimension flag
/// that does not fit the (possibly loaded) scenario's topology or
/// workload variant is an error, never silently dropped.
fn apply_flags(mut scenario: Scenario, args: &Args) -> Result<Scenario, String> {
    if let Some(kind) = &args.topology {
        scenario.topology = match kind.as_str() {
            "canonical" => {
                TopologySpec::canonical(args.racks.unwrap_or(32), args.hosts_per_rack.unwrap_or(5))
            }
            "fattree" => TopologySpec::FatTree {
                k: args.k.unwrap_or(8),
                capacities: None,
            },
            "star" => TopologySpec::Star {
                hosts: args.hosts.unwrap_or(64),
                capacities: None,
            },
            other => return Err(format!("unknown topology {other:?}")),
        };
        let unused = match scenario.topology {
            TopologySpec::CanonicalTree { .. } => {
                [args.k.map(|_| "--k"), args.hosts.map(|_| "--hosts")]
            }
            TopologySpec::FatTree { .. } => [
                args.racks.map(|_| "--racks"),
                args.hosts_per_rack
                    .or(args.hosts)
                    .map(|_| "--hosts-per-rack/--hosts"),
            ],
            TopologySpec::Star { .. } => [
                args.racks.or(args.k).map(|_| "--racks/--k"),
                args.hosts_per_rack.map(|_| "--hosts-per-rack"),
            ],
        };
        if let Some(flag) = unused.into_iter().flatten().next() {
            return Err(format!("{flag} does not apply to --topology {kind}"));
        }
    } else {
        match &mut scenario.topology {
            TopologySpec::CanonicalTree {
                racks,
                hosts_per_rack,
                ..
            } => {
                if let Some(r) = args.racks {
                    *racks = r;
                }
                if let Some(h) = args.hosts_per_rack {
                    *hosts_per_rack = h;
                }
            }
            TopologySpec::FatTree { k, .. } => {
                if let Some(new_k) = args.k {
                    *k = new_k;
                }
            }
            TopologySpec::Star { hosts, .. } => {
                if let Some(h) = args.hosts {
                    *hosts = h;
                }
            }
        }
        let mismatched = match scenario.topology {
            TopologySpec::CanonicalTree { .. } => {
                [args.k.map(|_| "--k"), args.hosts.map(|_| "--hosts")]
            }
            TopologySpec::FatTree { .. } => [
                args.racks.map(|_| "--racks"),
                args.hosts_per_rack
                    .or(args.hosts)
                    .map(|_| "--hosts-per-rack/--hosts"),
            ],
            TopologySpec::Star { .. } => [
                args.racks.or(args.k).map(|_| "--racks/--k"),
                args.hosts_per_rack.map(|_| "--hosts-per-rack"),
            ],
        };
        if let Some(flag) = mismatched.into_iter().flatten().next() {
            return Err(format!(
                "{flag} does not apply to the scenario's {} topology (pass --topology to replace it)",
                scenario.topology.name()
            ));
        }
    }
    match &mut scenario.workload {
        score_sim::WorkloadSpec::Synthetic {
            intensity,
            vms_per_host,
            seed,
        } => {
            if let Some(i) = args.intensity {
                *intensity = i;
            }
            if let Some(v) = args.vms_per_host {
                *vms_per_host = v;
            }
            if let Some(s) = args.seed {
                *seed = s;
            }
        }
        score_sim::WorkloadSpec::FixedVms {
            intensity, seed, ..
        } => {
            if args.vms_per_host.is_some() {
                return Err(
                    "--vms-per-host does not apply to a fixed-population workload spec".into(),
                );
            }
            if let Some(i) = args.intensity {
                *intensity = i;
            }
            if let Some(s) = args.seed {
                *seed = s;
            }
        }
        score_sim::WorkloadSpec::ExplicitPairs { seed, .. } => {
            if args.vms_per_host.is_some() || args.intensity.is_some() {
                return Err(
                    "--vms-per-host/--intensity do not apply to an explicit-pairs workload spec"
                        .into(),
                );
            }
            if let Some(s) = args.seed {
                *seed = s;
            }
        }
        workload @ score_sim::WorkloadSpec::Trace { .. } => {
            if args.vms_per_host.is_some() {
                return Err("--vms-per-host does not apply to a trace workload spec".into());
            }
            if args.intensity.is_some() && workload.intensity().is_none() {
                return Err("--intensity does not apply to a literal trace workload spec".into());
            }
            if let Some(i) = args.intensity {
                *workload = workload.clone().with_intensity(i);
            }
            if let Some(s) = args.seed {
                *workload = workload.clone().with_seed(s);
            }
        }
    }
    // A single --policy edits the scenario; a multi-policy list becomes
    // a sweep axis in `main` instead (the base policy is irrelevant
    // there — every cell overrides it).
    if let [policy] = args.policies[..] {
        scenario.policy = policy;
    }
    if let Some(cm) = args.cm {
        scenario.engine = scenario.engine.with_migration_cost(cm);
    }
    if args.horizon.is_some() || args.forecast.is_some() || args.alpha.is_some() {
        scenario.forecast = forecast_spec(&scenario, args)?;
    }
    if let Some(t) = args.t_end_s {
        scenario.timing.t_end_s = t;
    }
    if let Some(s) = args.seed {
        scenario.seed = s;
    }
    Ok(scenario)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };

    if args.client_mode {
        return run_client(&args);
    }
    if args.top_mode {
        return run_top(&args);
    }
    if args.replay_mode {
        return run_replay(&args);
    }

    let base = match &args.scenario_file {
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Scenario::from_json(&text).map_err(|e| e.to_string()))
        {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot load scenario {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let mut s = Scenario::builder().build();
            s.timing.t_end_s = 500.0;
            s
        }
    };
    let base = if args.trace_mode {
        let mut s = base;
        // A loaded scenario that already declares a trace workload is
        // kept unless --shape/--trace explicitly replaces it.
        let keep_loaded = args.shape.is_none()
            && args.trace_file.is_none()
            && matches!(s.workload, WorkloadSpec::Trace { .. });
        if keep_loaded {
            if args.num_vms.is_some() {
                eprintln!("error: --num-vms does not apply to the scenario file's trace workload");
                usage();
                return ExitCode::FAILURE;
            }
        } else {
            s.workload = match trace_workload(&args) {
                Ok(w) => w,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    usage();
                    return ExitCode::FAILURE;
                }
            };
        }
        s
    } else if args.shape.is_some()
        || args.trace_file.is_some()
        || args.save_trace.is_some()
        || args.num_vms.is_some()
    {
        eprintln!("error: --shape/--trace/--save-trace/--num-vms need the `trace` subcommand");
        usage();
        return ExitCode::FAILURE;
    } else {
        base
    };
    let scenario = match apply_flags(base, &args) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("error: {msg}");
            usage();
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &args.save_trace {
        let Some(trace) = scenario.workload.build_trace() else {
            eprintln!("error: --save-trace needs a trace workload");
            return ExitCode::FAILURE;
        };
        if let Err(e) = trace.save(std::path::Path::new(path)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "trace written to {path} ({} events over {:.0} s)",
            trace.num_events(),
            trace.end_s()
        );
    }

    if let Some(path) = &args.emit_scenario {
        if let Err(e) = std::fs::write(path, scenario.to_json_pretty()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("scenario spec written to {path}");
    }

    if args.serve_mode {
        if args.policies.len() > 1 {
            eprintln!("error: `serve` takes a single --policy (the live cluster's)");
            return ExitCode::FAILURE;
        }
        return run_serve(scenario, &args);
    }

    if args.policies.len() > 1 {
        if args.fault_mode() || args.record_trace.is_some() {
            eprintln!("error: --fault-*/--record-trace need a single --policy run");
            return ExitCode::FAILURE;
        }
        return run_policy_sweep(scenario, &args);
    }

    let mut session = match scenario.session() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "scenario: {} | servers {} | VMs {} | {} workload | policy {} | cm {:.3e} | forecast {}",
        session.topo().name(),
        session.topo().num_servers(),
        session.traffic().num_vms(),
        scenario
            .workload
            .intensity()
            .map_or("explicit", |i| i.name()),
        scenario.policy.name(),
        scenario.engine.score().migration_cost,
        if scenario.forecast.is_active() {
            format!(
                "{} @ {:.0} s",
                scenario.forecast.name(),
                scenario.forecast.horizon_s()
            )
        } else {
            "off".to_string()
        },
    );
    if matches!(scenario.workload, WorkloadSpec::Trace { .. }) {
        return run_trace_session(session, &args);
    }
    if args.record_trace.is_some() {
        session.start_trace_recording();
    }
    if args.fault_mode() {
        let storm = match build_storm(&session, &args) {
            Ok(s) => s,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "storm: {} fault event(s) over {:.0} s ({})",
            storm.len(),
            scenario.timing.t_end_s,
            if args.fault_replay.is_some() {
                "replayed from recorded trace"
            } else {
                "seeded generator"
            },
        );
        if let Err(e) = session.run_storm(&storm) {
            eprintln!("error: applying storm: {e}");
            return ExitCode::FAILURE;
        }
    }
    session.run_to_horizon();
    let report = session.report();
    println!(
        "cost: {:.4e} -> {:.4e} ({:.1}% reduction)",
        report.initial_cost,
        report.final_cost,
        report.cost_reduction() * 100.0
    );
    println!(
        "migrations: {} | bytes moved {:.1} MB | cumulative downtime {:.0} ms | token holds {}",
        report.migrations.len(),
        report.total_migration_bytes() / (1024.0 * 1024.0),
        report.total_downtime_s() * 1e3,
        report.token_holds,
    );
    for (i, ratio) in report.migration_ratios.iter().take(5).enumerate() {
        println!("iteration {}: {:.1}% of VMs migrated", i + 1, ratio * 100.0);
    }
    if !report.recovery.is_clean() {
        let r = &report.recovery;
        println!(
            "recovery: {} fault(s) | {} host(s) down | {} evacuation(s) \
             ({} unplaceable) | stable {:.1} s after last fault | {:.1} s degraded",
            r.faults_injected,
            r.hosts_down,
            r.evacuations,
            r.unplaceable_vms,
            r.time_to_stable_s,
            r.slo_violating_s,
        );
    }
    if let Some(path) = &args.record_trace {
        let saved = session
            .recorded_trace()
            .map_err(|e| e.to_string())
            .and_then(|t| {
                t.save(std::path::Path::new(path))
                    .map_err(|e| e.to_string())
            });
        match saved {
            Ok(()) => println!("recorded trace written to {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = args.csv {
        let csv = series_to_csv(&report.cost_series, "time_s", "cost");
        if let Err(e) = std::fs::write(&path, csv) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("cost series written to {path}");
    }
    if let Some(path) = args.json {
        if let Err(e) = std::fs::write(&path, report.to_json_pretty()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("run report written to {path}");
    }
    ExitCode::SUCCESS
}

/// Builds the timed fault stream the `--fault-*` flags describe: a
/// recorded trace's raw events (`--fault-replay`), or a seeded
/// [`FaultSpec`] storm sized to the live session's fabric with the
/// scenario horizon as the storm window.
fn build_storm(session: &score_sim::Session, args: &Args) -> Result<Vec<TimedEvent>, String> {
    if let Some(path) = &args.fault_replay {
        let trace =
            Trace::load(std::path::Path::new(path)).map_err(|e| format!("loading {path}: {e}"))?;
        return Ok(trace.events().to_vec());
    }
    let t_end_s = session.scenario().timing.t_end_s;
    let spec = FaultSpec {
        num_servers: session.topo().num_servers() as u32,
        num_racks: session.topo().num_racks() as u32,
        host_crashes: args.fault_crashes.unwrap_or(0),
        rack_fails: args.fault_rack_fails.unwrap_or(0),
        degradations: args.fault_degradations.unwrap_or(0),
        degrade_factor: args.fault_degrade_factor.unwrap_or(0.4),
        degrade_hold_s: args.fault_hold.unwrap_or(t_end_s / 8.0),
        max_tier: 0,
        horizon_s: t_end_s,
    };
    fault_storm_events(&spec, args.fault_seed.unwrap_or(session.scenario().seed))
        .map_err(|e| format!("{e}"))
}

/// Runs a multi-policy sweep on the `MatrixRunner`: every `--policy`
/// entry becomes one cell over the same scenario, `--threads` sets the
/// worker count (default: every core), and `--json`
/// writes the collected `MatrixReport`. Results are bit-identical at
/// any width.
fn run_policy_sweep(scenario: Scenario, args: &Args) -> ExitCode {
    if args.csv.is_some() {
        eprintln!("error: --csv needs a single --policy (use --json for sweep output)");
        return ExitCode::FAILURE;
    }
    // Same default chain as every other sweep binary: explicit flag,
    // then SCORE_THREADS, then all cores.
    let threads = args
        .threads
        .unwrap_or_else(score_experiments::sweep_threads);
    let runner = ScenarioMatrix::new(scenario)
        .policies(args.policies.iter().copied())
        .runner()
        .threads(threads);
    println!(
        "policy sweep: {} cells on {} thread(s)",
        runner.matrix().scenarios().len(),
        runner.thread_count()
    );
    let results = match runner.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for cell in &results.cells {
        println!(
            "  {:<7} cost {:.4e} -> {:.4e} ({:>5.1}% reduction) | {:>4} migrations | {:>6} token holds",
            cell.policy.name(),
            cell.report.initial_cost,
            cell.report.final_cost,
            cell.report.cost_reduction() * 100.0,
            cell.report.migrations.len(),
            cell.report.token_holds,
        );
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, results.to_json_pretty()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("matrix report written to {path}");
    }
    ExitCode::SUCCESS
}

/// Replays a trace session as one run and prints its result plus the
/// in-place re-pricing statistics. The session reads no clock; the
/// replay's wall time is taken here, around the whole run.
fn run_trace_session(mut session: score_sim::Session, args: &Args) -> ExitCode {
    let sw = score_experiments::Stopwatch::start();
    session.run_to_horizon();
    let wall_s = sw.elapsed_s();
    let report = session.report();
    println!(
        "cost: {:.4e} -> {:.4e} ({:>5.1}%) | {:>4} migrations ({} pre-empted)",
        report.initial_cost,
        report.final_cost,
        report.cost_reduction() * 100.0,
        report.migrations.len(),
        report.forecast.preempted,
    );
    if report.forecast.preempted + report.forecast.reactive > 0 {
        println!(
            "migrations: {} pre-empted (decided on forecasted rates) vs {} reactive",
            report.forecast.preempted, report.forecast.reactive,
        );
    }
    println!(
        "trace replay: {} traffic deltas applied in place ({} pairs re-priced) in {:.1} ms",
        report.trace.events_applied,
        report.trace.pairs_repriced,
        wall_s * 1e3,
    );
    if let Some(path) = &args.csv {
        let csv = series_to_csv(&report.cost_series, "time_s", "cost");
        if let Err(e) = std::fs::write(path, csv) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("cost series written to {path}");
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report.to_json_pretty()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("run report written to {path}");
    }
    ExitCode::SUCCESS
}

/// Starts the `scored` daemon serving the flag-built scenario as a live
/// cluster; blocks until a client sends `Shutdown`.
fn run_serve(scenario: Scenario, args: &Args) -> ExitCode {
    let config = score_scored::DaemonConfig {
        scenario,
        unix_socket: args.socket.as_ref().map(std::path::PathBuf::from),
        tcp_addr: args.tcp.clone(),
        rate: args.rate.unwrap_or(60.0),
        record_dir: args.record_dir.as_ref().map(std::path::PathBuf::from),
    };
    let daemon = match score_scored::Daemon::bind(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.socket {
        println!("scored: listening on unix socket {path}");
    }
    if let Some(addr) = daemon.tcp_addr() {
        println!("scored: listening on tcp {addr}");
    }
    if let Some(dir) = &args.record_dir {
        println!("scored: recording replayable sessions under {dir}/<tenant>/");
    }
    daemon.run();
    println!("scored: drained and stopped");
    ExitCode::SUCCESS
}

/// Sends request lines to a running daemon and prints its responses:
/// one `-e REQUEST` per line (or stdin when none are given); with
/// `--follow` the connection then streams (e.g. after `Subscribe`)
/// until the daemon closes it.
fn run_client(args: &Args) -> ExitCode {
    use std::io::{BufRead, BufReader, Read, Write};
    let (reader, mut writer): (Box<dyn Read>, Box<dyn Write>) = match (&args.socket, &args.tcp) {
        (Some(path), None) => match std::os::unix::net::UnixStream::connect(path) {
            Ok(s) => match s.try_clone() {
                Ok(w) => (Box::new(s), Box::new(w)),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("error: connecting to {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, Some(addr)) => match std::net::TcpStream::connect(addr) {
            Ok(s) => match s.try_clone() {
                Ok(w) => (Box::new(s), Box::new(w)),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("error: connecting to {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => {
            eprintln!("error: `client` needs exactly one of --socket PATH or --tcp ADDR");
            return ExitCode::FAILURE;
        }
    };
    let mut reader = BufReader::new(reader);
    let send_one = |writer: &mut dyn Write, reader: &mut BufReader<Box<dyn Read>>, req: &str| {
        writer
            .write_all(req.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .map_err(|e| format!("sending request: {e}"))?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("reading response: {e}"))?;
        if line.is_empty() {
            return Err("daemon closed the connection".into());
        }
        print!("{line}");
        Ok::<(), String>(())
    };
    if args.requests.is_empty() {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            if let Err(e) = send_one(&mut writer, &mut reader, &line) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        for req in &args.requests {
            if let Err(e) = send_one(&mut writer, &mut reader, req) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.follow {
        for line in reader.lines() {
            let Ok(line) = line else { break };
            println!("{line}");
        }
    }
    ExitCode::SUCCESS
}

/// Buffered read half of a daemon connection (Unix socket or TCP).
type DaemonReader = std::io::BufReader<Box<dyn std::io::Read>>;

/// Connects to a running daemon (Unix socket or TCP), returning a
/// buffered reader over the read half and the write half.
fn connect_daemon(args: &Args) -> Result<(DaemonReader, Box<dyn std::io::Write>), String> {
    use std::io::{BufReader, Read, Write};
    let (reader, writer): (Box<dyn Read>, Box<dyn Write>) = match (&args.socket, &args.tcp) {
        (Some(path), None) => {
            let s = std::os::unix::net::UnixStream::connect(path)
                .map_err(|e| format!("connecting to {path}: {e}"))?;
            let w = s.try_clone().map_err(|e| e.to_string())?;
            (Box::new(s), Box::new(w))
        }
        (None, Some(addr)) => {
            let s = std::net::TcpStream::connect(addr)
                .map_err(|e| format!("connecting to {addr}: {e}"))?;
            let w = s.try_clone().map_err(|e| e.to_string())?;
            (Box::new(s), Box::new(w))
        }
        _ => return Err("need exactly one of --socket PATH or --tcp ADDR".into()),
    };
    Ok((BufReader::new(reader), writer))
}

/// One request → one [`score_scored::proto::Response`] over an open
/// daemon connection.
fn request_response(
    reader: &mut DaemonReader,
    writer: &mut dyn std::io::Write,
    req: &str,
) -> Result<score_scored::proto::Response, String> {
    use std::io::BufRead;
    writer
        .write_all(req.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .map_err(|e| format!("sending request: {e}"))?;
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("reading response: {e}"))?;
    if line.is_empty() {
        return Err("daemon closed the connection".into());
    }
    serde_json::from_str(&line).map_err(|e| format!("bad response line: {e}"))
}

/// Formats a nanosecond reading for the dashboard (`1.2µs`, `3.4ms`).
fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "-".to_string()
    } else if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

/// Formats a gauge/counter reading compactly (integers plain, large or
/// tiny magnitudes in scientific notation).
fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        "-".to_string()
    } else if v == v.trunc() && v.abs() < 1e12 {
        format!("{v:.0}")
    } else if v.abs() >= 1e6 || (v != 0.0 && v.abs() < 1e-3) {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

/// Renders one `top` frame from a parsed `Stats` snapshot. `prev`
/// holds the previous frame's counter readings for rate derivation.
fn render_top_frame(
    stats: &serde_json::Value,
    prev: &mut std::collections::HashMap<String, f64>,
    elapsed_s: f64,
    frame: u64,
) {
    let empty = Vec::new();
    let section = |name: &str| -> &[(String, serde_json::Value)] {
        stats
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|v| v.as_object())
            .unwrap_or(&empty)
    };
    println!("scored top — frame {frame}");
    let counters = section("counters");
    if !counters.is_empty() {
        println!("\n  {:<58} {:>12} {:>10}", "counter", "total", "per-s");
        for (name, v) in counters {
            let total = v.as_f64().unwrap_or(0.0);
            let rate = match prev.insert(name.clone(), total) {
                Some(last) if elapsed_s > 0.0 => format!("{:.1}", (total - last) / elapsed_s),
                _ => "-".to_string(),
            };
            println!("  {:<58} {:>12} {:>10}", name, fmt_value(total), rate);
        }
    }
    let gauges = section("gauges");
    if !gauges.is_empty() {
        println!("\n  {:<58} {:>12}", "gauge", "value");
        for (name, v) in gauges {
            println!(
                "  {:<58} {:>12}",
                name,
                fmt_value(v.as_f64().unwrap_or(f64::NAN))
            );
        }
    }
    let hists = section("histograms");
    if !hists.is_empty() {
        println!(
            "\n  {:<50} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "histogram (ns)", "count", "mean", "p50", "p95", "p99"
        );
        for (name, v) in hists {
            let field = |k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
            println!(
                "  {:<50} {:>8} {:>8} {:>8} {:>8} {:>8}",
                name,
                fmt_value(field("count")),
                fmt_ns(field("mean")),
                fmt_ns(field("p50")),
                fmt_ns(field("p95")),
                fmt_ns(field("p99")),
            );
        }
    }
    let journal = stats
        .get("journal")
        .and_then(|j| j.as_array())
        .unwrap_or(&[]);
    if !journal.is_empty() {
        println!("\n  recent decisions");
        for entry in journal.iter().rev().take(8) {
            let kind = entry.get("kind").and_then(|k| k.as_str()).unwrap_or("?");
            let at_s = entry.get("at_s").and_then(|t| t.as_f64()).unwrap_or(0.0);
            match kind {
                "decision" => {
                    let f = |k: &str| entry.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
                    let accepted = entry
                        .get("accepted")
                        .and_then(|a| a.as_bool())
                        .unwrap_or(false);
                    let preemptive = entry
                        .get("preemptive")
                        .and_then(|p| p.as_bool())
                        .unwrap_or(false);
                    println!(
                        "    t={at_s:>8.1}s  vm{:<5} scored {:>3} candidates → {}{}",
                        f("holder"),
                        f("candidates"),
                        if accepted {
                            format!("migrate (gain {})", fmt_value(f("gain")))
                        } else {
                            "hold".to_string()
                        },
                        if preemptive { " [preemptive]" } else { "" },
                    );
                }
                other => println!("    t={at_s:>8.1}s  {other}"),
            }
        }
    }
}

/// The `top` dashboard: polls `Stats` at `--interval`, rendering live
/// counters (with derived rates), gauges, histogram percentiles, and
/// the decision-journal tail. `--once` prints one frame and exits.
fn run_top(args: &Args) -> ExitCode {
    let interval = args.interval.unwrap_or(2.0);
    if !(interval.is_finite() && interval > 0.0) {
        eprintln!("error: --interval must be positive, got {interval}");
        return ExitCode::FAILURE;
    }
    let (mut reader, mut writer) = match connect_daemon(args) {
        Ok(conn) => conn,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(tenant) = &args.tenant {
        let attach = format!("{{\"Attach\": {{\"tenant\": \"{tenant}\"}}}}");
        match request_response(&mut reader, &mut writer, &attach) {
            Ok(score_scored::proto::Response::Attached { .. }) => {}
            Ok(score_scored::proto::Response::Error { code, message }) => {
                eprintln!("error: attach failed ({code}): {message}");
                return ExitCode::FAILURE;
            }
            Ok(other) => {
                eprintln!("error: unexpected attach response: {other:?}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut prev = std::collections::HashMap::new();
    let mut last_poll: Option<std::time::Instant> = None;
    let mut frame = 0u64;
    loop {
        let stats = match request_response(&mut reader, &mut writer, "\"Stats\"") {
            Ok(score_scored::proto::Response::Stats { json }) => json,
            Ok(other) => {
                eprintln!("error: unexpected Stats response: {other:?}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let parsed = match serde_json::parse_value_str(&stats) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: malformed Stats snapshot: {e}");
                return ExitCode::FAILURE;
            }
        };
        let elapsed_s = last_poll.map_or(0.0, |t| t.elapsed().as_secs_f64());
        last_poll = Some(std::time::Instant::now());
        frame += 1;
        if !args.once {
            // Clear the screen between frames, like top(1).
            print!("\x1b[2J\x1b[H");
        }
        render_top_frame(&parsed, &mut prev, elapsed_s, frame);
        if args.once {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

/// Replays a recorded daemon tenant directory and prints the canonical
/// report; `--expect FILE` diffs it byte for byte against the live
/// run's persisted report and fails on any divergence.
fn run_replay(args: &Args) -> ExitCode {
    let Some(dir) = &args.dir else {
        eprintln!("error: `replay` needs --dir DIR (a recorded tenant directory)");
        return ExitCode::FAILURE;
    };
    let replayed = match score_scored::replay_dir(std::path::Path::new(dir)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{replayed}");
    if let Some(expect) = &args.expect {
        let live = match std::fs::read_to_string(expect) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: reading {expect}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if live.trim_end() != replayed.trim_end() {
            eprintln!("error: replayed report diverges from {expect}");
            return ExitCode::FAILURE;
        }
        eprintln!("replay matches {expect} byte for byte");
    }
    ExitCode::SUCCESS
}
