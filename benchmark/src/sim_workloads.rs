//! The four simulator workloads: `converge-101k`, `grid-2560`,
//! `replay-diurnal-27k` and `replay-churn-27k`.

use crate::harness::{fnv1a64, Digest, Layers, Rep, Workload};
use crate::spans::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use score_core::{OutlookContext, ScoreEngine, TokenRing};
use score_obs::ObsHandle;
use score_scored::canonical_report_json;
use score_sim::{
    ForecastSpec, MatrixCell, MatrixReport, PolicyKind, RunReport, Scenario, ScenarioMatrix,
    Session, TopologySpec, TraceSpec, WorkloadSpec,
};
use score_topology::VmId;
use score_trace::{ChurnShape, DiurnalShape};
use score_traffic::TrafficIntensity;
use score_xen::PreCopyModel;
use std::hint::black_box;
use std::time::Instant;

/// Full iterations every token-ring workload runs.
const ITERATIONS: usize = 3;

/// The incremental ledger may drift from a full Eq.-(2) pass by this
/// much, relative to the largest cost the run saw.
const MAX_LEDGER_DRIFT: f64 = 1e-9;

fn fat_tree(k: u32) -> TopologySpec {
    TopologySpec::FatTree {
        k,
        capacities: None,
    }
}

/// Hash of the report JSON with the wall-clock `apply_ns_*` fields
/// zeroed. Static workloads never set them, so their timed JSON is
/// hashed as it is.
fn report_hash(report: &RunReport, json: &str) -> u64 {
    if report.trace.apply_ns_total == 0 && report.trace.apply_ns_max == 0 {
        fnv1a64(json.as_bytes())
    } else {
        fnv1a64(canonical_report_json(report).as_bytes())
    }
}

/// The checks every finished session gets: no full-pass resync, and the
/// incremental ledger agrees with a full `CostModel::total_cost`.
fn audit(session: &Session, report: &RunReport, facts: &mut Layers, failures: &mut Vec<String>) {
    let start = Instant::now();
    let full = session.cost_model().total_cost(
        session.cluster().allocation(),
        session.traffic(),
        session.cluster().topo(),
    );
    facts.insert("core.full_cost_s", start.elapsed().as_secs_f64());
    // Drift is float error accumulated over the run, so it is judged
    // against the largest cost the ledger carried, not the final one
    // (a churn trace ends on a nearly empty TM).
    let peak = report
        .cost_series
        .iter()
        .map(|&(_, c)| c)
        .fold(report.initial_cost.max(full.abs()), f64::max);
    let drift = if peak > 0.0 {
        (session.current_cost() - full).abs() / peak
    } else {
        0.0
    };
    let worst = facts.entry("core.ledger_drift").or_insert(0.0);
    *worst = worst.max(drift);
    if drift > MAX_LEDGER_DRIFT {
        failures.push(format!(
            "ledger drift {drift:e} exceeds {MAX_LEDGER_DRIFT:e}"
        ));
    }
    if session.ledger_resyncs() != 0 {
        failures.push(format!("{} ledger resyncs", session.ledger_resyncs()));
    }
}

/// Theorem 1 only admits migrations that lower C_A, so a static
/// workload that ends dearer than it began has decided wrongly.
fn check_cost_fell(report: &RunReport, failures: &mut Vec<String>) {
    if report.final_cost >= report.initial_cost {
        failures.push(format!(
            "{}/{}: final cost {} is not below the initial {}",
            report.topology, report.policy, report.final_cost, report.initial_cost
        ));
    }
}

fn iteration_facts(report: &RunReport, facts: &mut Layers) {
    facts.insert("core.holds", report.token_holds as f64);
    facts.insert("core.migrations", report.migrations.len() as f64);
    facts.insert(
        "core.migration_ratio_iter1",
        report.migration_ratios.first().copied().unwrap_or(0.0),
    );
}

/// Replays a scenario's hold sequence outside `Session`: the same
/// cluster, traffic, ledger and ring, stepped directly. Returns
/// `(holds, migrations, seconds)`.
fn ring_replay(scenario: &Scenario) -> Result<(u64, u64, f64), String> {
    let session = scenario.session().map_err(|e| e.to_string())?;
    let mut cluster = session.cluster().clone();
    let traffic = session.traffic().clone();
    let model = session.cost_model().clone();
    let mut ledger = model.ledger(cluster.allocation(), &traffic, cluster.topo());
    ledger.enable_sharding(cluster.allocation(), &traffic, cluster.topo());
    let mut ring = TokenRing::with_boxed(
        ScoreEngine::new(model, scenario.engine.score()),
        scenario.policy.build(scenario.seed),
        traffic.num_vms(),
    );
    drop(session);
    let ctx = OutlookContext::reactive();
    let target = ITERATIONS as u64 * u64::from(traffic.num_vms());
    let (mut holds, mut migrations) = (0u64, 0u64);
    let start = Instant::now();
    while holds < target {
        let Some(outcome) = ring.step_ledgered_outlook(&mut cluster, &traffic, &mut ledger, &ctx)
        else {
            break;
        };
        holds += 1;
        migrations += u64::from(outcome.decision.migrates());
    }
    let secs = start.elapsed().as_secs_f64();
    black_box(ledger.current());
    Ok((holds, migrations, secs))
}

/// Nanoseconds per `PreCopyModel::migrate` sample, the call `Session`
/// makes once per accepted migration.
fn precopy_sample_ns(scenario: &Scenario, samples: u64) -> f64 {
    let model = PreCopyModel::new(scenario.engine.precopy());
    let background = scenario.engine.background();
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let start = Instant::now();
    for _ in 0..samples {
        black_box(model.migrate(background, &mut rng));
    }
    start.elapsed().as_nanos() as f64 / samples.max(1) as f64
}

// ───────────────────────────── converge ─────────────────────────────

pub struct Converge {
    scenario: Scenario,
    attach_obs: bool,
    /// Migrations of the last rep, which the ring replay must match.
    migrations: u64,
    /// Events the last rep's session popped: holds, migration
    /// completions and cost samples.
    events_popped: f64,
}

impl Converge {
    pub fn new(seed: u64, quick: bool) -> Self {
        let topology = if quick {
            TopologySpec::small_canonical()
        } else {
            fat_tree(74)
        };
        Converge {
            scenario: Scenario::builder()
                .topology(topology)
                .sparse_traffic(seed)
                .policy(PolicyKind::HighestLevelFirst)
                .seed(seed)
                .horizon(1e9)
                .build(),
            attach_obs: false,
            migrations: 0,
            events_popped: 0.0,
        }
    }
}

impl Workload for Converge {
    fn rep(&mut self, tr: &mut Tracer, decomposed: bool) -> Result<Rep, String> {
        let sc = &self.scenario;
        let (session, setup_s) = tr.time("setup", |tr| {
            if !decomposed {
                return sc.session();
            }
            let topo = tr.time("topology.build", |_| sc.topology.build()).0?;
            let tm = tr
                .time("traffic.generate", |_| sc.workload.generate(topo.as_ref()))
                .0;
            tr.time("sim.materialize", |_| sc.session_with(topo, tm)).0
        });
        let mut session = session.map_err(|e| e.to_string())?;
        if self.attach_obs {
            session.attach_obs(&ObsHandle::new());
        }
        let ((run_s, report, json), wall_s) = tr.time("body", |tr| {
            let run_s = tr.time("sim.run", |_| session.run(ITERATIONS).len()).1;
            let report = tr.time("sim.report", |_| session.report()).0;
            let json = tr.time("sim.report_json", |_| report.to_json()).0;
            (run_s, report, json)
        });

        let mut facts = Layers::new();
        let mut failures = Vec::new();
        audit(&session, &report, &mut facts, &mut failures);
        check_cost_fell(&report, &mut failures);
        iteration_facts(&report, &mut facts);
        facts.insert("traffic.pairs", session.traffic().num_pairs() as f64);
        facts.insert("sim.report_bytes", json.len() as f64);
        self.events_popped =
            (report.token_holds + report.migrations.len() + report.cost_series.len()) as f64;
        let expected = ITERATIONS as u64 * u64::from(session.traffic().num_vms());
        let holds = report.token_holds as u64;
        self.migrations = report.migrations.len() as u64;
        Ok(Rep {
            setup_s,
            wall_s,
            run_s,
            ops: expected,
            failed: expected.saturating_sub(holds),
            cost_ratio: report.final_cost / report.initial_cost,
            digest: Digest {
                holds,
                migrations: self.migrations,
                final_cost_bits: report.final_cost.to_bits(),
                report_hash: report_hash(&report, &json),
            },
            failures,
            facts,
            latencies_ns: Vec::new(),
        })
    }

    fn probes(&mut self, tr: &mut Tracer, run_s: f64, out: &mut Layers) -> Result<(), String> {
        let (replay, _) = tr.time("probe.ring_replay", |_| ring_replay(&self.scenario));
        let (holds, migrations, ring_s) = replay?;
        if migrations != self.migrations {
            return Err(format!(
                "ring replay made {migrations} migrations, the session {}",
                self.migrations
            ));
        }
        out.insert("holds_per_s", holds as f64 / run_s);
        let step_ns = ring_s * 1e9 / holds.max(1) as f64;
        out.insert("core.ring_step_ns", step_ns);
        out.insert("core.ring_step_ns.hlf", step_ns);
        out.insert("core.ring_share", ring_s / run_s);
        let sample_ns = tr
            .time("probe.precopy", |_| {
                precopy_sample_ns(&self.scenario, migrations)
            })
            .0;
        out.insert("xen.precopy_sample_ns", sample_ns);
        let rest_s = run_s - ring_s - sample_ns * migrations as f64 / 1e9;
        out.insert(
            "sim.loop_overhead_ns",
            rest_s.max(0.0) * 1e9 / self.events_popped.max(1.0),
        );

        self.attach_obs = true;
        let attached = tr.time("probe.obs_attached", |_| {
            self.rep(&mut Tracer::disabled(), false)
        });
        self.attach_obs = false;
        out.insert(
            "obs.attach_overhead_pct",
            (attached.0?.run_s - run_s) / run_s * 100.0,
        );
        Ok(())
    }
}

// ─────────────────────────────── grid ───────────────────────────────

pub struct Grid {
    matrix: ScenarioMatrix,
    seed: u64,
    /// The canonical-tree fabric of the grid, which the per-policy ring
    /// probes reuse.
    canonical: TopologySpec,
    serial_hash: u64,
    serial_run_s: f64,
    wall_2t_s: f64,
}

impl Grid {
    pub fn new(seed: u64, quick: bool) -> Self {
        let (canonical, fattree) = if quick {
            (
                TopologySpec::small_canonical(),
                TopologySpec::small_fattree(),
            )
        } else {
            (TopologySpec::paper_canonical(), fat_tree(16))
        };
        let base = Scenario::builder()
            .topology(canonical)
            .sparse_traffic(seed)
            .seed(seed)
            .horizon(1e9)
            .build();
        Grid {
            matrix: ScenarioMatrix::new(base)
                .topologies([canonical, fattree])
                .intensities([
                    TrafficIntensity::Sparse,
                    TrafficIntensity::Medium,
                    TrafficIntensity::Dense,
                ])
                .policies(PolicyKind::all())
                .iterations(ITERATIONS),
            seed,
            canonical,
            serial_hash: 0,
            serial_run_s: 0.0,
            wall_2t_s: 0.0,
        }
    }

    /// `MatrixRunner::run` taken apart: the same three calls per cell,
    /// each under its own span. The sessions come back with the report
    /// so the caller can audit them outside the timed body.
    fn run_decomposed(&self, tr: &mut Tracer) -> Result<(MatrixReport, Vec<Session>), String> {
        let mut cells = Vec::new();
        let mut sessions = Vec::new();
        for (engine_label, scenario) in self.matrix.scenarios() {
            let session = tr.time("sim.session", |_| scenario.session()).0;
            let mut session = session.map_err(|e| e.to_string())?;
            tr.time("sim.run", |_| session.run(ITERATIONS).len());
            let report = tr.time("sim.report", |_| session.report()).0;
            sessions.push(session);
            cells.push(MatrixCell {
                policy: scenario.policy,
                topology: scenario.topology,
                intensity: scenario.workload.intensity(),
                engine_label,
                scenario,
                report,
            });
        }
        Ok((MatrixReport { cells }, sessions))
    }
}

impl Workload for Grid {
    fn rep(&mut self, tr: &mut Tracer, decomposed: bool) -> Result<Rep, String> {
        let scenarios = self.matrix.scenarios();
        // `MatrixRunner::run` materializes each cell itself, so set-up
        // is measured in a pass of its own: every cell's session built
        // and dropped.
        let (built, setup_s) = tr.time("setup", |tr| {
            let mut vms = 0u64;
            for (_, sc) in &scenarios {
                let session = if decomposed {
                    let topo = tr.time("topology.build", |_| sc.topology.build()).0?;
                    let tm = tr
                        .time("traffic.generate", |_| sc.workload.generate(topo.as_ref()))
                        .0;
                    tr.time("sim.materialize", |_| sc.session_with(topo, tm))
                        .0?
                } else {
                    sc.session()?
                };
                vms += u64::from(session.traffic().num_vms());
            }
            Ok::<u64, score_sim::ScenarioError>(vms)
        });
        let expected = ITERATIONS as u64 * built.map_err(|e| e.to_string())?;

        let ((outcome, run_s, json), wall_s) = tr.time("body", |tr| {
            let (outcome, run_s) = tr.time("sim.matrix", |tr| {
                if decomposed {
                    self.run_decomposed(tr)
                } else {
                    let runner = self.matrix.clone().runner().threads(1);
                    runner
                        .run()
                        .map(|report| (report, Vec::new()))
                        .map_err(|e| e.to_string())
                }
            });
            let json = tr.time("sim.report_json", |_| {
                outcome
                    .as_ref()
                    .map_or_else(|_| String::new(), |(report, _)| report.to_json())
            });
            (outcome, run_s, json.0)
        });
        let (report, sessions) = outcome?;
        let mut facts = Layers::new();
        let mut failures = Vec::new();
        for (session, cell) in sessions.iter().zip(&report.cells) {
            audit(session, &cell.report, &mut facts, &mut failures);
        }
        for cell in &report.cells {
            check_cost_fell(&cell.report, &mut failures);
        }
        drop(sessions);

        let holds: u64 = report
            .cells
            .iter()
            .map(|c| c.report.token_holds as u64)
            .sum();
        let migrations: u64 = report
            .cells
            .iter()
            .map(|c| c.report.migrations.len() as u64)
            .sum();
        let cost_ratio = report
            .cells
            .iter()
            .map(|c| c.report.final_cost / c.report.initial_cost)
            .sum::<f64>()
            / report.cells.len() as f64;
        let final_bits = report.cells.iter().fold(0u64, |h, c| {
            h.rotate_left(7) ^ c.report.final_cost.to_bits()
        });
        facts.insert("core.holds", holds as f64);
        facts.insert("core.migrations", migrations as f64);
        facts.insert(
            "core.migration_ratio_iter1",
            report
                .cells
                .iter()
                .map(|c| c.report.migration_ratios.first().copied().unwrap_or(0.0))
                .sum::<f64>()
                / report.cells.len() as f64,
        );
        facts.insert("sim.report_bytes", json.len() as f64);
        self.serial_hash = fnv1a64(json.as_bytes());
        if !decomposed {
            self.serial_run_s = run_s;
        }
        Ok(Rep {
            setup_s,
            wall_s,
            run_s,
            ops: expected,
            failed: expected.saturating_sub(holds),
            cost_ratio,
            digest: Digest {
                holds,
                migrations,
                final_cost_bits: final_bits,
                report_hash: self.serial_hash,
            },
            failures,
            facts,
            latencies_ns: Vec::new(),
        })
    }

    fn final_checks(&mut self) -> Vec<String> {
        let runner = self.matrix.clone().runner().threads(2);
        let start = Instant::now();
        let report = runner.run();
        self.wall_2t_s = start.elapsed().as_secs_f64();
        match report {
            Ok(r) if fnv1a64(r.to_json().as_bytes()) == self.serial_hash => Vec::new(),
            Ok(_) => vec!["2-thread matrix JSON differs from the serial JSON".into()],
            Err(e) => vec![format!("2-thread matrix run failed: {e}")],
        }
    }

    fn probes(&mut self, tr: &mut Tracer, run_s: f64, out: &mut Layers) -> Result<(), String> {
        let holds = out.get("core.holds").copied().unwrap_or(0.0);
        out.insert("holds_per_s", holds / run_s);
        out.insert("sim.matrix_wall_2t_s", self.wall_2t_s);
        out.insert("sim.matrix_speedup_2t", self.serial_run_s / self.wall_2t_s);
        for (policy, metric) in [
            (PolicyKind::HighestLevelFirst, "core.ring_step_ns.hlf"),
            (PolicyKind::RoundRobin, "core.ring_step_ns.rr"),
            (PolicyKind::HighestCostFirst, "core.ring_step_ns.hcf"),
            (PolicyKind::ForecastCostFirst, "core.ring_step_ns.fcf"),
            (PolicyKind::Random, "core.ring_step_ns.random"),
        ] {
            let scenario = Scenario::builder()
                .topology(self.canonical)
                .dense_traffic(self.seed)
                .policy(policy)
                .seed(self.seed)
                .horizon(1e9)
                .build();
            let (holds, _, secs) = tr.time("probe.ring_replay", |_| ring_replay(&scenario)).0?;
            out.insert(metric, secs * 1e9 / holds.max(1) as f64);
        }
        Ok(())
    }
}

// ────────────────────────────── replay ──────────────────────────────

#[derive(Clone, Copy, PartialEq)]
pub enum TraceShape {
    Diurnal,
    Churn,
}

pub struct Replay {
    scenario: Scenario,
    shape: TraceShape,
    quick: bool,
    /// Delta batches the compiled trace schedules inside its horizon.
    batches: u64,
    sim_seconds: f64,
    /// Counts taken from the compiled trace.
    setup_facts: Layers,
    apply_ns_total: f64,
    events_popped: f64,
}

impl Replay {
    pub fn new(shape: TraceShape, seed: u64, quick: bool) -> Result<Self, String> {
        let k = if quick { 8 } else { 48 };
        let num_vms = k * k * k / 4 * 2;
        let intensity = TrafficIntensity::Sparse;
        let spec = match shape {
            TraceShape::Diurnal => TraceSpec::Diurnal {
                num_vms,
                intensity,
                seed,
                shape: DiurnalShape {
                    period_s: 700.0,
                    amplitude: 0.5,
                    step_s: 5.0,
                    horizon_s: 700.0,
                },
            },
            TraceShape::Churn => TraceSpec::Churn {
                num_vms,
                intensity,
                seed,
                shape: ChurnShape {
                    window_s: 60.0,
                    windows: 2,
                },
            },
        };
        // `Scenario::session()` builds and compiles the trace itself
        // and hands neither back, so both are done once here to learn
        // how many batches a correct replay applies.
        let trace = spec.build_trace();
        let compiled = trace.compile();
        let batches = compiled
            .segments
            .iter()
            .flat_map(|s| s.shifts.iter().map(move |b| (b.at_s, s.duration_s)))
            .filter(|&(at_s, duration_s)| at_s < duration_s)
            .count() as u64;
        let mut setup_facts = Layers::new();
        setup_facts.insert("trace.events", trace.num_events() as f64);
        setup_facts.insert("trace.batches", batches as f64);
        let sim_seconds = compiled.segments.iter().map(|s| s.duration_s).sum();
        Ok(Replay {
            scenario: Scenario::builder()
                .topology(fat_tree(k))
                .trace(spec)
                .policy(PolicyKind::HighestLevelFirst)
                .seed(seed)
                .build(),
            shape,
            quick,
            batches,
            sim_seconds,
            setup_facts,
            apply_ns_total: 0.0,
            events_popped: 0.0,
        })
    }

    /// A static session on the same fabric and base TM, for the
    /// `apply_*` probes.
    fn static_session(&self, num_vms: u32) -> Result<Session, String> {
        Scenario::builder()
            .topology(self.scenario.topology)
            .num_vms(num_vms)
            .sparse_traffic(self.scenario.seed)
            .seed(self.scenario.seed)
            .build()
            .session()
            .map_err(|e| e.to_string())
    }
}

impl Workload for Replay {
    fn rep(&mut self, tr: &mut Tracer, decomposed: bool) -> Result<Rep, String> {
        let sc = &self.scenario;
        let (session, setup_s) = tr.time("setup", |tr| tr.time("sim.session", |_| sc.session()).0);
        let mut session = session.map_err(|e| e.to_string())?;
        let ((reports, run_s, json_bytes), wall_s) = tr.time("body", |tr| {
            let (reports, run_s) = tr.time("sim.run_trace", |tr| {
                if !decomposed {
                    return session.run_trace();
                }
                // `Session::run_trace` taken apart.
                let mut reports = Vec::new();
                loop {
                    tr.time("sim.run", |_| session.run_to_horizon());
                    reports.push(tr.time("sim.report", |_| session.report()).0);
                    if !tr.time("sim.run", |_| session.advance_trace_segment()).0? {
                        return Ok(reports);
                    }
                }
            });
            let json_bytes = tr.time("sim.report_json", |_| {
                reports.as_ref().map_or(0, |all| {
                    all.iter()
                        .map(|r| black_box(r.to_json()).len())
                        .sum::<usize>()
                })
            });
            (reports, run_s, json_bytes.0)
        });
        let reports = reports.map_err(|e| e.to_string())?;
        let last = reports.last().ok_or("run_trace returned no report")?;

        let mut facts = self.setup_facts.clone();
        let mut failures = Vec::new();
        audit(&session, last, &mut facts, &mut failures);
        iteration_facts(last, &mut facts);
        facts.insert("sim.report_bytes", json_bytes as f64);
        let applied: u64 = reports.iter().map(|r| r.trace.events_applied).sum();
        if applied != self.batches {
            failures.push(format!(
                "replay applied {applied} batches, the compiled trace holds {}",
                self.batches
            ));
        }
        self.apply_ns_total = reports.iter().map(|r| r.trace.apply_ns_total as f64).sum();
        self.events_popped = reports
            .iter()
            .map(|r| (r.token_holds + r.migrations.len() + r.cost_series.len()) as f64)
            .sum::<f64>()
            + applied as f64;
        let cost_ratio = match self.shape {
            TraceShape::Diurnal => last.final_cost / last.initial_cost,
            // A churn trace starts on an empty TM and ends on a nearly
            // empty one, so final ÷ initial is undefined; the mean
            // sampled C_A over the peak sampled C_A is its stand-in.
            TraceShape::Churn => {
                let series: Vec<f64> = last.cost_series.iter().map(|&(_, c)| c).collect();
                series.iter().sum::<f64>()
                    / series.len() as f64
                    / series.iter().copied().fold(f64::MIN_POSITIVE, f64::max)
            }
        };
        let mut hash = 0u64;
        for r in &reports {
            hash = hash.rotate_left(7) ^ fnv1a64(canonical_report_json(r).as_bytes());
        }
        Ok(Rep {
            setup_s,
            wall_s,
            run_s,
            ops: self.batches,
            failed: self.batches.saturating_sub(applied),
            cost_ratio,
            digest: Digest {
                holds: reports.iter().map(|r| r.token_holds as u64).sum(),
                migrations: reports.iter().map(|r| r.migrations.len() as u64).sum(),
                final_cost_bits: last.final_cost.to_bits(),
                report_hash: hash,
            },
            failures,
            facts,
            latencies_ns: Vec::new(),
        })
    }

    fn probes(&mut self, tr: &mut Tracer, run_s: f64, out: &mut Layers) -> Result<(), String> {
        out.insert("events_per_s", self.batches as f64 / run_s);
        out.insert("realtime_factor", self.sim_seconds / run_s);
        // What the run call spent outside the session's own delta
        // timer, per event popped.
        let rest_s = run_s - self.apply_ns_total / 1e9;
        out.insert(
            "sim.loop_overhead_ns",
            rest_s.max(0.0) * 1e9 / self.events_popped.max(1.0),
        );

        // What `Scenario::session()` does before it materializes, timed
        // call by call; the rest of its span is the materialization.
        let WorkloadSpec::Trace { spec } = &self.scenario.workload else {
            unreachable!("replay workloads are trace workloads");
        };
        let topo_s = tr
            .time("probe.topology", |_| {
                self.scenario.topology.build().map(|t| t.num_servers())
            })
            .1;
        let (trace, generate_s) = tr.time("probe.trace_generate", |_| spec.build_trace());
        let compile_s = tr
            .time("probe.trace_compile", |_| trace.compile().num_shifts())
            .1;
        drop(trace);
        out.insert("topology.build_s", topo_s);
        out.insert("trace.generate_s", generate_s);
        out.insert("trace.compile_s", compile_s);
        out.insert(
            "sim.materialize_s",
            (tr.median_total_s("sim.session") - topo_s - generate_s - compile_s).max(0.0),
        );

        let mut session = self.static_session(spec.num_vms())?;
        let pairs = session.traffic().pairs();
        out.insert("traffic.pairs", pairs.len() as f64);
        let singles = if self.quick { 2_000 } else { 200_000 };
        let (result, secs) = tr.time("probe.apply_delta", |_| {
            for i in 0..singles {
                let (u, v, rate) = pairs[i % pairs.len()];
                let bump = 1.0 + (i / pairs.len() + 1) as f64 * 0.01;
                session.apply_traffic_deltas(&[(u, v, rate * bump)])?;
            }
            Ok::<(), score_sim::ScenarioError>(())
        });
        result.map_err(|e| e.to_string())?;
        out.insert("sim.apply_delta_ns", secs * 1e9 / singles as f64);

        let sweeps = 10;
        let (result, secs) = tr.time("probe.apply_scale", |_| {
            for _ in 0..sweeps {
                session.apply_traffic_scale(1.01)?;
            }
            Ok::<(), score_sim::ScenarioError>(())
        });
        result.map_err(|e| e.to_string())?;
        out.insert("sim.apply_scale_ns", secs * 1e9 / f64::from(sweeps));

        // The path a compiled trace takes for the same shift: every
        // pair re-rated through the sparse entry point.
        let expanded: Vec<(VmId, VmId, f64)> = session
            .traffic()
            .pairs()
            .into_iter()
            .map(|(u, v, r)| (u, v, r * 1.01))
            .collect();
        let (result, secs) = tr.time("probe.apply_scale_expanded", |_| {
            session.apply_traffic_deltas(&expanded)
        });
        result.map_err(|e| e.to_string())?;
        out.insert("sim.apply_scale_expanded_ns", secs * 1e9);

        if self.shape == TraceShape::Diurnal {
            let reactive = std::mem::replace(
                &mut self.scenario.forecast,
                ForecastSpec::Ewma {
                    alpha: 0.3,
                    horizon_s: 30.0,
                },
            );
            let forecast = tr.time("probe.forecast", |_| {
                self.rep(&mut Tracer::disabled(), false)
            });
            self.scenario.forecast = reactive;
            out.insert(
                "traffic.forecast_overhead_pct",
                (forecast.0?.run_s - run_s) / run_s * 100.0,
            );
        }
        Ok(())
    }
}
