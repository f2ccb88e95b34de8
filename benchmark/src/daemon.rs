//! `daemon-mix-2560`: the `scored` serving path, one closed-loop client
//! driving a fresh `TenantEngine` in process, plus the socket probe that
//! puts the same mix over a real Unix socket.

use crate::harness::{fnv1a64, Digest, Layers, Rep, Workload};
use crate::spans::Tracer;
use crate::stats::percentile_sorted;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use score_scored::{
    canonical_report_json, parse_request, replay_trace, response_line, Daemon, DaemonConfig,
    Request, Response, TenantEngine,
};
use score_sim::{Scenario, TopologySpec};
use std::fmt::Write as _;
use std::io::{BufRead as _, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Requests whose spans the traced run keeps; the stage sums still
/// cover every request.
const SPAN_LOG_REQUESTS: usize = 10_000;

/// Lines the socket probe sends when pinned to one CPU; unpinned, the
/// round trip is several times slower and the probe sends a fifth.
const SOCKET_LINES_PINNED: usize = 100_000;

fn scenario(seed: u64, quick: bool) -> Scenario {
    let topology = if quick {
        TopologySpec::small_canonical()
    } else {
        TopologySpec::paper_canonical()
    };
    Scenario::builder()
        .topology(topology)
        .sparse_traffic(seed)
        .seed(seed)
        .horizon(1e9)
        .build()
}

fn request_count(quick: bool) -> usize {
    if quick {
        2_000
    } else {
        400_000
    }
}

/// What a correct daemon answers to a generated line.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    Applied,
    Placed(u32),
    Removed(u32),
    Report,
    Error(&'static str),
}

impl Expect {
    fn met_by(self, resp: &Response) -> bool {
        match (self, resp) {
            (Expect::Applied, Response::Applied { events: 4, .. }) => true,
            (Expect::Placed(want), Response::Placed { vm, .. }) => *vm == want,
            (Expect::Removed(want), Response::Removed { vm, .. }) => *vm == want,
            (Expect::Report, Response::Report { .. }) => true,
            (Expect::Error(want), Response::Error { code, .. }) => code == want,
            _ => false,
        }
    }

    /// Index into the per-verb apply-time sums.
    fn verb(self) -> usize {
        match self {
            Expect::Applied => 0,
            Expect::Placed(_) => 1,
            Expect::Removed(_) => 2,
            Expect::Report => 3,
            Expect::Error(_) => 4,
        }
    }
}

/// The seeded request mix: 58 `Traffic` (4 `SetRate` on existing pairs,
/// base rate × U(0.5, 1.5)) : 20 `Place{}` : 20 `Remove` of a VM placed
/// earlier : 1 invalid line, and every 2,000th line a `Report`. VM ids
/// are dense, so the generator knows every id the daemon will hand out
/// without reading a response.
struct Mix {
    rng: StdRng,
    pairs: Vec<(u32, u32, f64)>,
    next_vm: u32,
    live: Vec<u32>,
    dead: Vec<u32>,
    sent: usize,
    line: String,
}

impl Mix {
    fn new(seed: u64, engine: &TenantEngine) -> Self {
        let traffic = engine.session().traffic();
        Mix {
            rng: StdRng::seed_from_u64(seed ^ 0x6d69_7865_645f_7265),
            pairs: traffic
                .pairs()
                .into_iter()
                .map(|(u, v, r)| (u.get(), v.get(), r))
                .collect(),
            next_vm: traffic.num_vms(),
            live: Vec::new(),
            dead: Vec::new(),
            sent: 0,
            line: String::new(),
        }
    }

    /// Writes the next request into `self.line`.
    fn next(&mut self) -> Expect {
        self.sent += 1;
        self.line.clear();
        if self.sent.is_multiple_of(2_000) {
            self.line.push_str("\"Report\"");
            return Expect::Report;
        }
        match self.rng.gen_range(0..99u32) {
            0..=57 => {
                self.line.push_str("{\"Traffic\":{\"events\":[");
                for i in 0..4 {
                    let (u, v, base) = self.pairs[self.rng.gen_range(0..self.pairs.len())];
                    let rate = base * self.rng.gen_range(0.5..1.5);
                    let sep = if i == 0 { "" } else { "," };
                    let _ = write!(
                        self.line,
                        "{sep}{{\"SetRate\":{{\"u\":{u},\"v\":{v},\"rate\":{rate:?}}}}}"
                    );
                }
                self.line.push_str("]}}");
                Expect::Applied
            }
            78..=97 if !self.live.is_empty() => {
                let at = self.rng.gen_range(0..self.live.len());
                let vm = self.live.swap_remove(at);
                self.dead.push(vm);
                let _ = write!(self.line, "{{\"Remove\":{{\"vm\":{vm}}}}}");
                Expect::Removed(vm)
            }
            58..=97 => {
                self.line.push_str("{\"Place\":{}}");
                let vm = self.next_vm;
                self.next_vm += 1;
                self.live.push(vm);
                Expect::Placed(vm)
            }
            _ => match self.rng.gen_range(0..3u32) {
                0 if !self.dead.is_empty() => {
                    let vm = self.dead[self.rng.gen_range(0..self.dead.len())];
                    let _ = write!(self.line, "{{\"Remove\":{{\"vm\":{vm}}}}}");
                    Expect::Error("unknown-vm")
                }
                1 => {
                    self.line.push_str("{\"Frobnicate\":{}}");
                    Expect::Error("parse")
                }
                _ => {
                    self.line.push_str("{\"Place\":{");
                    Expect::Error("parse")
                }
            },
        }
    }
}

/// The verb dispatch of `scored::daemon` for the verbs the mix sends,
/// including the audit-log flush the daemon makes after every mutation
/// (a no-op without a record directory).
fn apply(engine: &mut TenantEngine, req: Request) -> Response {
    let resp = match req {
        Request::Place { server } => engine
            .place(server)
            .map(|(vm, server, at_s)| Response::Placed { vm, server, at_s })
            .map_err(|e| Response::error("placement", e)),
        Request::Remove { vm } => engine
            .remove(vm)
            .map(|at_s| Response::Removed { vm, at_s })
            .map_err(|e| Response::error("unknown-vm", e)),
        Request::Traffic { events } => engine
            .traffic(&events)
            .map(|a| Response::Applied {
                events: events.len() as u32,
                pairs_changed: a.pairs_changed,
                at_s: a.at_s,
            })
            .map_err(|e| Response::error("bad-event", e)),
        Request::Report => {
            return Response::Report {
                json: engine.report_json(),
            }
        }
        _ => return Response::error("bad-request", "the mix sends no such verb"),
    };
    match resp {
        Ok(resp) => match engine.flush_trace() {
            Ok(()) => resp,
            Err(e) => Response::error("internal", e),
        },
        Err(resp) => resp,
    }
}

pub struct DaemonMix {
    seed: u64,
    quick: bool,
    scenario: Scenario,
    out_dir: PathBuf,
    /// The last rep's engine, kept for the replay check.
    last: Option<TenantEngine>,
    replay_s: f64,
}

impl DaemonMix {
    pub fn new(seed: u64, quick: bool, out_dir: &Path) -> Self {
        DaemonMix {
            seed,
            quick,
            scenario: scenario(seed, quick),
            out_dir: out_dir.to_path_buf(),
            last: None,
            replay_s: 0.0,
        }
    }

    /// Mean `apply` time in µs of the mutations among the first 20,000
    /// requests of the mix, on a fresh engine that persists its audit
    /// log under `record_dir` when one is given.
    fn mutation_apply_us(&self, record_dir: Option<&Path>) -> Result<f64, String> {
        let mut engine = TenantEngine::new("bench", self.scenario.clone(), 1.0, record_dir)?;
        let mut mix = Mix::new(self.seed, &engine);
        let (mut apply_ns, mut mutations) = (0u128, 0u64);
        for _ in 0..request_count(self.quick).min(20_000) {
            mix.next();
            let Ok(req) = parse_request(&mix.line) else {
                continue;
            };
            if matches!(req, Request::Report) {
                continue;
            }
            let start = Instant::now();
            std::hint::black_box(apply(&mut engine, req));
            apply_ns += start.elapsed().as_nanos();
            mutations += 1;
        }
        Ok(apply_ns as f64 / 1e3 / mutations.max(1) as f64)
    }
}

impl Workload for DaemonMix {
    fn rep(&mut self, tr: &mut Tracer, decomposed: bool) -> Result<Rep, String> {
        self.last = None;
        let (engine, setup_s) = tr.time("setup", |_| {
            TenantEngine::new("bench", self.scenario.clone(), 1.0, None)
        });
        let mut engine = engine?;
        let initial_cost = engine.session().initial_cost();
        let mut mix = Mix::new(self.seed, &engine);
        let requests = request_count(self.quick);
        let mut latencies_ns = Vec::with_capacity(requests);
        let mut failed = 0u64;
        // Stage sums in nanoseconds: parse, serialize, and apply by verb
        // (traffic, place, remove, report, invalid) with their counts.
        let (mut parse_ns, mut serialize_ns) = (0u64, 0u64);
        let mut apply_ns = [0u64; 5];
        let mut verb_count = [0u64; 5];
        let was_enabled = tr.enabled();

        tr.time("body", |tr| {
            for i in 0..requests {
                if i == SPAN_LOG_REQUESTS {
                    tr.set_enabled(false);
                }
                let expect = mix.next();
                let verb = expect.verb();
                verb_count[verb] += 1;
                let (resp, service_s) = if decomposed {
                    // One clock read per stage boundary: at a few µs a
                    // request, nested timers would cost more than the
                    // stages they time.
                    let t0 = tr.now_ns();
                    let parsed = parse_request(&mix.line);
                    let t1 = tr.now_ns();
                    let resp = match parsed {
                        Ok(req) => apply(&mut engine, req),
                        Err(resp) => resp,
                    };
                    let t2 = tr.now_ns();
                    std::hint::black_box(response_line(&resp));
                    let t3 = tr.now_ns();
                    tr.record_tiled(
                        "request",
                        &["scored.parse", "scored.apply", "scored.serialize"],
                        &[t0, t1, t2, t3],
                    );
                    parse_ns += t1 - t0;
                    apply_ns[verb] += t2 - t1;
                    serialize_ns += t3 - t2;
                    (resp, (t3 - t0) as f64 / 1e9)
                } else {
                    let start = Instant::now();
                    let resp = match parse_request(&mix.line) {
                        Ok(req) => apply(&mut engine, req),
                        Err(resp) => resp,
                    };
                    std::hint::black_box(response_line(&resp));
                    (resp, start.elapsed().as_secs_f64())
                };
                latencies_ns.push((service_s * 1e9).min(f64::from(u32::MAX)) as u32);
                failed += u64::from(!expect.met_by(&resp));
            }
        });
        tr.set_enabled(was_enabled);

        let wall_s = latencies_ns.iter().map(|&ns| f64::from(ns)).sum::<f64>() / 1e9;
        let mut facts = Layers::new();
        let mut failures = Vec::new();
        if failed > 0 {
            failures.push(format!(
                "{failed} requests got the wrong response kind or error code"
            ));
        }
        if engine.session().ledger_resyncs() != 0 {
            failures.push(format!(
                "{} ledger resyncs",
                engine.session().ledger_resyncs()
            ));
        }
        if decomposed {
            let per_request_us = |ns: u64, n: u64| ns as f64 / 1e3 / n.max(1) as f64;
            facts.insert("scored.parse_us", per_request_us(parse_ns, requests as u64));
            facts.insert(
                "scored.serialize_us",
                per_request_us(serialize_ns, requests as u64),
            );
            for (verb, name) in [
                "scored.apply_us.traffic",
                "scored.apply_us.place",
                "scored.apply_us.remove",
                "scored.apply_us.report",
            ]
            .into_iter()
            .enumerate()
            {
                facts.insert(name, per_request_us(apply_ns[verb], verb_count[verb]));
            }
            let staged_s = (parse_ns + serialize_ns + apply_ns.iter().sum::<u64>()) as f64 / 1e9;
            facts.insert("sim.unattributed_s", (wall_s - staged_s).max(0.0));
        }
        let report = engine.session().report();
        let report_json = canonical_report_json(&report);
        facts.insert("sim.report_bytes", report_json.len() as f64);
        facts.insert(
            "traffic.pairs",
            engine.session().traffic().num_pairs() as f64,
        );
        let rep = Rep {
            setup_s,
            wall_s,
            run_s: wall_s,
            ops: requests as u64,
            failed,
            cost_ratio: engine.session().current_cost() / initial_cost,
            digest: Digest {
                holds: report.token_holds as u64,
                migrations: report.migrations.len() as u64,
                final_cost_bits: report.final_cost.to_bits(),
                report_hash: fnv1a64(report_json.as_bytes()),
            },
            failures,
            facts,
            latencies_ns,
        };
        self.last = Some(engine);
        Ok(rep)
    }

    /// Replays the last rep's audit log against a fresh session: the
    /// canonical report must come out byte for byte.
    fn final_checks(&mut self) -> Vec<String> {
        let Some(engine) = self.last.take() else {
            return vec!["no rep ran".into()];
        };
        let live = engine.report_json();
        let start = Instant::now();
        let replayed = engine
            .session()
            .recorded_trace()
            .map_err(|e| e.to_string())
            .and_then(|trace| replay_trace(engine.scenario(), &trace));
        self.replay_s = start.elapsed().as_secs_f64();
        match replayed {
            Ok(report) if canonical_report_json(&report) == live => Vec::new(),
            Ok(_) => vec!["replayed report differs from the live report".into()],
            Err(e) => vec![format!("replay failed: {e}")],
        }
    }

    fn probes(&mut self, tr: &mut Tracer, run_s: f64, out: &mut Layers) -> Result<(), String> {
        out.insert("scored.replay_s", self.replay_s);
        // What persisting costs per mutation: the daemon's
        // `flush_trace` after each one is open + append + close.
        let dir = self
            .out_dir
            .join(format!("flush-probe-{}", std::process::id()));
        let recorded = tr
            .time("probe.flush_trace", |_| self.mutation_apply_us(Some(&dir)))
            .0;
        let _ = std::fs::remove_dir_all(&dir);
        out.insert(
            "scored.flush_trace_us",
            recorded? - self.mutation_apply_us(None)?,
        );
        out.insert("requests_per_s", request_count(self.quick) as f64 / run_s);
        let socket = tr.time("probe.socket", |_| {
            spawn_socket_probe(self.seed, self.quick, &self.out_dir)
        });
        let (p50_us, p99_us, pinned) = socket.0?;
        out.insert("scored.socket_rtt_p50_us", p50_us);
        let svc_p50_us = out.get("svc_p50_us").copied().unwrap_or(0.0);
        out.insert("scored.socket_overhead_us", p50_us - svc_p50_us);
        out.insert("scored.socket_rtt_p99_us", p99_us);
        out.insert("scored.socket_pinned", f64::from(u8::from(pinned)));
        Ok(())
    }
}

/// Runs the socket probe in a child of its own, pinned to CPU 0 with
/// `taskset` where that exists: unpinned, client and daemon threads
/// wake each other across cores and the round trip swings several-fold
/// between identical runs. Returns `(p50 µs, p99 µs, pinned)`.
fn spawn_socket_probe(seed: u64, quick: bool, out_dir: &Path) -> Result<(f64, f64, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let run = |pinned: bool| -> Option<(f64, f64)> {
        let lines = match (quick, pinned) {
            (true, _) => 2_000,
            (false, true) => SOCKET_LINES_PINNED,
            (false, false) => SOCKET_LINES_PINNED / 5,
        };
        let mut cmd = if pinned {
            let mut c = std::process::Command::new("taskset");
            c.args(["-c", "0"]).arg(&exe);
            c
        } else {
            std::process::Command::new(&exe)
        };
        cmd.arg("socket-probe")
            .args(["--seed", &seed.to_string()])
            .args(["--lines", &lines.to_string()])
            .arg("--out")
            .arg(out_dir);
        if quick {
            cmd.arg("--quick");
        }
        let output = cmd.output().ok().filter(|o| o.status.success())?;
        let text = String::from_utf8_lossy(&output.stdout);
        let mut fields = text.split_whitespace().map(str::parse::<f64>);
        Some((fields.next()?.ok()?, fields.next()?.ok()?))
    };
    if let Some((p50, p99)) = run(true) {
        return Ok((p50, p99, true));
    }
    run(false)
        .map(|(p50, p99)| (p50, p99, false))
        .ok_or_else(|| "the socket probe child failed".to_string())
}

/// The `socket-probe` subcommand: the same mix over a real Unix socket
/// to `Daemon::run`, one round trip at a time. Prints `p50_us p99_us`.
pub fn socket_probe(seed: u64, quick: bool, lines: usize, out_dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let socket = out_dir.join(format!("probe-{}.sock", std::process::id()));
    let scenario = scenario(seed, quick);
    // A throwaway engine gives the generator the pairs and the first
    // free VM id of the scenario the daemon is about to materialize.
    let mut mix = Mix::new(
        seed,
        &TenantEngine::new("mix", scenario.clone(), 1.0, None)?,
    );
    let daemon = Daemon::bind(DaemonConfig {
        scenario,
        unix_socket: Some(socket.clone()),
        tcp_addr: None,
        rate: 1.0,
        record_dir: None,
    })?;
    let server = std::thread::spawn(move || daemon.run());
    let stream = std::os::unix::net::UnixStream::connect(&socket).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut answer = String::new();
    let mut round_trip = |line: &str| -> std::io::Result<()> {
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        answer.clear();
        reader.read_line(&mut answer).map(|_| ())
    };
    let mut rtt_ns = Vec::with_capacity(lines);
    for _ in 0..lines {
        mix.next();
        let start = Instant::now();
        round_trip(&mix.line).map_err(|e| e.to_string())?;
        rtt_ns.push(start.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
    }
    round_trip("\"Shutdown\"").map_err(|e| e.to_string())?;
    server
        .join()
        .map_err(|_| "the daemon thread panicked".to_string())?;
    rtt_ns.sort_unstable();
    println!(
        "{} {}",
        percentile_sorted(&rtt_ns, 0.5) / 1e3,
        percentile_sorted(&rtt_ns, 0.99) / 1e3
    );
    Ok(())
}
