//! The `scored` daemon: an always-on event loop serving live clusters
//! over line-delimited JSON sockets (Unix and/or TCP).
//!
//! One [`crate::TenantEngine`] per tenant namespace, **owned** — with
//! that tenant's subscriber list — by a named worker thread of its own
//! (`scored-<tenant>`). Every request for a tenant is a job sent to that
//! worker over a channel, so tenant state is single-writer by
//! construction, needs no lock, and tenants never block each other. A
//! job that panics fails its tenant alone: the worker drops the state
//! the job may have left half-mutated, the tenant answers
//! `tenant-failed` from then on, and the daemon goes on serving the
//! others. Between requests a pacing thread keeps each tenant's token
//! ring circulating on the event clock at `rate` simulated seconds per
//! wall second.
//!
//! Connections are plain sockets carrying one request per line, each
//! served on a thread of its own, at most `MAX_CONNECTIONS` (256) at
//! once; one more is answered `busy` and closed. Any number may attach
//! to the same tenant. `Subscribe` turns a connection into an observer:
//! every later mutation response, audit trace line, and refreshed
//! canonical report for that tenant is streamed to it.

use crate::engine::TenantEngine;
use crate::proto::{parse_request, response_line, Request, Response};
use score_obs::{Counter, Gauge, ObsHandle};
use score_sim::Scenario;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Token holds one pacing slice may execute per tenant — keeps a
/// hot tenant from starving its own request queue.
const PUMP_SLICE_STEPS: usize = 512;

/// The longest request line the daemon reads, newline excluded. The
/// largest legitimate line is a `Traffic` batch re-rating every pair of a
/// tenant: at the paper's 2,560 hosts that is ~8,400 `SetRate` events of
/// at most 75 bytes each (`{"SetRate":{"u":4294967295,"v":4294967295,
/// "rate":1.7976931348623157e308}},`), about 630 KB. Anything longer is
/// discarded through its newline and answered `too-long` (a uniform
/// re-rate is one `ScaleAll`; a bigger batch goes as several requests),
/// so a connection costs the daemon at most this much buffer, whatever
/// it sends.
const MAX_LINE_BYTES: usize = 1 << 20;

/// The most connections served at once. Each holds three descriptors
/// (the stream plus two `try_clone` writers: one for responses, one kept
/// for `Subscribe`), so 256 of them take 768 of the common
/// 1,024-descriptor soft limit and leave the rest to the listeners, the
/// tenants' record files and the process itself. One connection more is
/// answered a single `busy` error line and closed, without a thread.
const MAX_CONNECTIONS: usize = 256;

/// How the daemon binds, paces, and persists.
pub struct DaemonConfig {
    /// The scenario every tenant materializes (trace workloads are
    /// rejected — see [`TenantEngine::new`]).
    pub scenario: Scenario,
    /// Unix socket path to serve on (removed and re-bound if stale).
    pub unix_socket: Option<PathBuf>,
    /// TCP address to serve on (e.g. `127.0.0.1:7045`).
    pub tcp_addr: Option<String>,
    /// Simulated seconds advanced per wall-clock second.
    pub rate: f64,
    /// When set, each tenant persists `scenario.json`, `trace.jsonl`,
    /// and `report.json` under `<dir>/<tenant>/` — a replayable audit
    /// trail (`scorectl replay`).
    pub record_dir: Option<PathBuf>,
}

/// A job for a tenant's worker, run on the state only that worker owns.
type Job = Box<dyn FnOnce(&mut TenantState) + Send>;

/// Everything a tenant's worker thread owns outright: the engine and the
/// observers streaming from it. No other thread ever sees it.
struct TenantState {
    engine: TenantEngine,
    subscribers: Vec<Box<dyn Write + Send>>,
    /// Live observer connections (`scored_subscribers{tenant=..}`).
    subscriber_gauge: Arc<Gauge>,
    /// Observers dropped because their socket hung up mid-stream
    /// (`scored_subscribers_dropped_total{tenant=..}`).
    subscribers_dropped: Arc<Counter>,
}

/// One live tenant as the rest of the daemon sees it: the queue into the
/// worker that owns its state. Dropping it closes the queue, which ends
/// the worker.
struct Tenant {
    name: String,
    jobs: Sender<Job>,
    /// Set once a job has panicked: the tenant's state is gone.
    failed: AtomicBool,
}

struct DaemonState {
    config: DaemonConfig,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    shutdown: AtomicBool,
    /// Connections being served, against [`MAX_CONNECTIONS`].
    connections: AtomicUsize,
    /// The daemon-wide registry + decision journal; tenants get
    /// label-scoped clones of this handle.
    obs: ObsHandle,
}

/// A bound-but-not-yet-serving daemon (see [`Daemon::bind`]).
pub struct Daemon {
    state: Arc<DaemonState>,
    unix: Option<UnixListener>,
    tcp: Option<TcpListener>,
}

/// Writes one response line, best-effort.
fn write_line(w: &mut dyn Write, resp: &Response) -> std::io::Result<()> {
    let mut line = response_line(resp);
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

impl Tenant {
    /// Starts the worker thread `scored-<name>`, which owns `state` and
    /// runs the tenant's jobs one at a time, in the order they were sent.
    /// It ends when the tenant is dropped, or at the first job that
    /// panics: the state that job may have left half-mutated is dropped
    /// unread, and so is every job still queued behind it.
    fn spawn(name: &str, mut state: TenantState) -> std::io::Result<Tenant> {
        let (jobs, queue) = mpsc::channel::<Job>();
        std::thread::Builder::new()
            .name(format!("scored-{name}"))
            .spawn(move || {
                while let Ok(job) = queue.recv() {
                    if catch_unwind(AssertUnwindSafe(|| job(&mut state))).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Tenant {
            name: name.to_string(),
            jobs,
            failed: AtomicBool::new(false),
        })
    }

    /// Runs `job` on the tenant's worker and waits for its result: `None`
    /// once the tenant has failed, this job's own panic included. The
    /// first caller to find it failed names it on stderr.
    fn run<R: Send + 'static>(
        &self,
        job: impl FnOnce(&mut TenantState) -> R + Send + 'static,
    ) -> Option<R> {
        if !self.failed.load(Ordering::SeqCst) {
            let (reply, answer) = mpsc::channel();
            let job: Job = Box::new(move |state| {
                let _ = reply.send(job(state));
            });
            // A panic drops `reply` unsent, and a dead worker drops the
            // job: either way `recv` errs instead of blocking.
            if self.jobs.send(job).is_ok() {
                if let Ok(result) = answer.recv() {
                    return Some(result);
                }
            }
        }
        if !self.failed.swap(true, Ordering::SeqCst) {
            eprintln!(
                "scored: tenant {} failed (a request panicked on its worker); it answers \
                 `tenant-failed` from now on, and the pacer and shutdown skip it",
                self.name
            );
        }
        None
    }

    /// [`Tenant::run`] for a request, answered `tenant-failed` once the
    /// tenant has failed.
    fn answer(&self, job: impl FnOnce(&mut TenantState) -> Response + Send + 'static) -> Response {
        self.run(job).unwrap_or_else(|| {
            let message = format!("tenant {} failed: a request panicked its worker", self.name);
            Response::error("tenant-failed", message)
        })
    }
}

impl TenantState {
    /// Applies one mutating request: mutate, flush the audit log, notify
    /// subscribers.
    fn mutate(
        &mut self,
        op: impl FnOnce(&mut TenantEngine) -> Result<Response, Response>,
    ) -> Response {
        let resp = match op(&mut self.engine) {
            Ok(resp) => resp,
            Err(resp) => return resp,
        };
        if let Err(e) = self.engine.flush_trace() {
            return Response::error("internal", e);
        }
        // Serializing the stream (and a fresh report, which is large at
        // scale) is only worth it when someone is listening; an observer
        // arriving later catches up from the cursor.
        if !self.subscribers.is_empty() {
            let lines = self.engine.fresh_trace_lines();
            let report = self.engine.report_json();
            self.broadcast(&resp, &lines, &report);
        }
        resp
    }

    /// Streams `lines` then `resp` (and a fresh report) to the
    /// subscribers. Any that hang up (closed socket, dead pipe) are
    /// dropped from the list — counted, gauged, and logged, never
    /// silently.
    fn broadcast(&mut self, resp: &Response, trace_lines: &[String], report: &str) {
        let before = self.subscribers.len();
        self.subscribers.retain_mut(|w| {
            for line in trace_lines {
                let t = Response::Trace { line: line.clone() };
                if write_line(w.as_mut(), &t).is_err() {
                    return false;
                }
            }
            if write_line(w.as_mut(), resp).is_err() {
                return false;
            }
            write_line(
                w.as_mut(),
                &Response::Report {
                    json: report.to_string(),
                },
            )
            .is_ok()
        });
        let left = self.subscribers.len();
        let dropped = before - left;
        if dropped > 0 {
            self.subscribers_dropped.add(dropped as u64);
            self.subscriber_gauge.set(left as f64);
            eprintln!(
                "scored: tenant {} dropped {dropped} hung-up subscriber{} ({left} left)",
                self.engine.name(),
                if dropped == 1 { "" } else { "s" },
            );
        }
    }
}

impl DaemonState {
    fn new(config: DaemonConfig) -> Self {
        DaemonState {
            config,
            tenants: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            obs: ObsHandle::new(),
        }
    }

    /// The tenant table. A panic while it is held (inside
    /// [`TenantEngine::new`]) cannot leave it half-written, because a
    /// tenant is inserted whole, after it is built.
    fn table(&self) -> MutexGuard<'_, HashMap<String, Arc<Tenant>>> {
        self.tenants.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The tenant for `name`, created (engine + worker) on first use.
    fn tenant(&self, name: &str) -> Result<Arc<Tenant>, String> {
        let mut table = self.table();
        if let Some(t) = table.get(name) {
            return Ok(Arc::clone(t));
        }
        let mut engine = TenantEngine::new(
            name,
            self.config.scenario.clone(),
            self.config.rate,
            self.config.record_dir.as_deref(),
        )?;
        let scoped = self.obs.with_label("tenant", name);
        engine.attach_obs(&scoped);
        // `ObsHandle::new` is enabled, so its instruments always resolve.
        let state = TenantState {
            engine,
            subscribers: Vec::new(),
            subscriber_gauge: scoped.gauge("scored_subscribers").expect("obs enabled"),
            subscribers_dropped: scoped
                .counter("scored_subscribers_dropped_total")
                .expect("obs enabled"),
        };
        let tenant = Tenant::spawn(name, state)
            .map_err(|e| format!("starting the worker of tenant {name}: {e}"))?;
        let tenant = Arc::new(tenant);
        table.insert(name.to_string(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Every tenant, in no particular order.
    fn all_tenants(&self) -> Vec<Arc<Tenant>> {
        self.table().values().cloned().collect()
    }

    /// Runs `job` on the worker of the connection's tenant (`default`
    /// until the connection attaches).
    fn on_tenant(
        &self,
        conn_tenant: &Option<String>,
        job: impl FnOnce(&mut TenantState) -> Response + Send + 'static,
    ) -> Response {
        match self.tenant(conn_tenant.as_deref().unwrap_or("default")) {
            Ok(t) => t.answer(job),
            Err(e) => Response::error("bad-request", e),
        }
    }

    /// One pacing tick: each tenant advances by at most
    /// [`PUMP_SLICE_STEPS`] token holds, on its own worker, so pacing
    /// never races a request. A failed tenant is skipped.
    fn pace(&self) {
        for t in self.all_tenants() {
            let _ = t.run(|s| s.engine.pump(PUMP_SLICE_STEPS));
        }
    }

    /// Drains and persists every tenant and tells its subscribers the
    /// daemon is going. A failed tenant has nothing left to finish and is
    /// skipped, by name.
    fn shut_down(&self) -> Response {
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.all_tenants() {
            let finished = t.run(|s| {
                let finished = s.engine.finish().map(drop);
                s.broadcast(&Response::ShuttingDown, &[], "");
                finished
            });
            match finished {
                Some(Ok(())) => {}
                Some(Err(e)) => return Response::error("internal", e),
                None => eprintln!("scored: shutdown skips failed tenant {}", t.name),
            }
        }
        Response::ShuttingDown
    }

    fn handle(
        &self,
        conn_tenant: &mut Option<String>,
        subscriber_writer: &mut Option<Box<dyn Write + Send>>,
        req: Request,
    ) -> Response {
        match req {
            Request::Attach { tenant } => {
                if tenant.is_empty()
                    || !tenant
                        .chars()
                        .all(|c| c.is_alphanumeric() || c == '-' || c == '_')
                {
                    return Response::error(
                        "bad-request",
                        "tenant names are non-empty [alphanumeric, '-', '_']",
                    );
                }
                let t = match self.tenant(&tenant) {
                    Ok(t) => t,
                    Err(e) => return Response::error("bad-request", e),
                };
                *conn_tenant = Some(tenant.clone());
                t.answer(move |s| Response::Attached {
                    tenant,
                    num_vms: s.engine.session().cluster().num_active(),
                    now_s: s.engine.session().now_s(),
                })
            }
            Request::Place { server } => self.on_tenant(conn_tenant, move |s| {
                s.mutate(|engine| {
                    engine
                        .place(server)
                        .map(|(vm, server, at_s)| Response::Placed { vm, server, at_s })
                        .map_err(|e| Response::error("placement", e))
                })
            }),
            Request::Remove { vm } => self.on_tenant(conn_tenant, move |s| {
                s.mutate(|engine| {
                    engine
                        .remove(vm)
                        .map(|at_s| Response::Removed { vm, at_s })
                        .map_err(|e| Response::error("unknown-vm", e))
                })
            }),
            Request::Traffic { events } => {
                let count = events.len() as u32;
                self.on_tenant(conn_tenant, move |s| {
                    s.mutate(|engine| {
                        engine
                            .traffic(&events)
                            .map(|a| Response::Applied {
                                events: count,
                                pairs_changed: a.pairs_changed,
                                at_s: a.at_s,
                            })
                            .map_err(|e| Response::error("bad-event", e))
                    })
                })
            }
            Request::Fault { events } => {
                let count = events.len() as u32;
                self.on_tenant(conn_tenant, move |s| {
                    s.mutate(|engine| {
                        engine
                            .fault(&events)
                            .map(|f| Response::Faulted {
                                events: count,
                                hosts_failed: f.hosts_failed,
                                evacuations: f.evacuations,
                                unplaceable: f.unplaceable,
                                at_s: f.at_s,
                            })
                            .map_err(|e| Response::error("bad-event", e))
                    })
                })
            }
            Request::Report => self.on_tenant(conn_tenant, |s| Response::Report {
                json: s.engine.report_json(),
            }),
            Request::Stats => {
                let metrics = self.obs.snapshot_json().unwrap_or_else(|| "{}".to_string());
                let journal = self
                    .obs
                    .journal()
                    .map(|j| j.recent_json(64))
                    .unwrap_or_else(|| "[]".to_string());
                Response::Stats {
                    json: format!("{{\"metrics\":{metrics},\"journal\":{journal}}}"),
                }
            }
            Request::Pause => self.on_tenant(conn_tenant, |s| Response::Paused {
                at_s: s.engine.pause(),
            }),
            Request::Resume => self.on_tenant(conn_tenant, |s| Response::Resumed {
                at_s: s.engine.resume(),
            }),
            Request::Subscribe => {
                let name = conn_tenant.as_deref().unwrap_or("default");
                let t = match self.tenant(name) {
                    Ok(t) => t,
                    Err(e) => return Response::error("bad-request", e),
                };
                match subscriber_writer.take() {
                    // A job like any other, so the subscription lands
                    // between two of the tenant's mutations, never inside
                    // one.
                    Some(w) => t.answer(move |s| {
                        s.subscribers.push(w);
                        s.subscriber_gauge.set(s.subscribers.len() as f64);
                        Response::Subscribed {
                            tenant: s.engine.name().to_string(),
                        }
                    }),
                    None => Response::error(
                        "bad-request",
                        "this connection cannot subscribe (already subscribed, or the \
                         stream cannot be cloned)",
                    ),
                }
            }
            Request::Shutdown => self.shut_down(),
        }
    }
}

/// The label value for a request's latency/count series.
fn verb_of(req: &Request) -> &'static str {
    match req {
        Request::Attach { .. } => "attach",
        Request::Place { .. } => "place",
        Request::Remove { .. } => "remove",
        Request::Traffic { .. } => "traffic",
        Request::Fault { .. } => "fault",
        Request::Report => "report",
        Request::Stats => "stats",
        Request::Pause => "pause",
        Request::Resume => "resume",
        Request::Subscribe => "subscribe",
        Request::Shutdown => "shutdown",
    }
}

/// What [`next_line`] found on a connection.
enum Line {
    /// A line of at most [`MAX_LINE_BYTES`], left in the buffer without
    /// its line ending.
    Fits,
    /// A longer line, read past and dropped through its newline.
    TooLong,
    /// End of stream, or a read error: the connection is done.
    End,
}

/// Reads the next line into `buf` (cleared first), never holding more
/// than [`MAX_LINE_BYTES`] + 1 bytes of it. A final line without a
/// newline is a line, as `BufRead::lines` has it.
fn next_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> Line {
    buf.clear();
    let limit = MAX_LINE_BYTES + 1;
    match reader.by_ref().take(limit as u64).read_until(b'\n', buf) {
        Ok(0) | Err(_) => return Line::End,
        Ok(_) => {}
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        return Line::Fits;
    }
    if buf.len() < limit {
        return Line::Fits;
    }
    buf.clear();
    match reader.skip_until(b'\n') {
        Ok(_) => Line::TooLong,
        Err(_) => Line::End,
    }
}

/// Serves `stream` on a thread of its own (`scored-conn`), or — with
/// [`MAX_CONNECTIONS`] already being served — answers it one `busy`
/// error line and closes it.
fn admit<S>(state: &Arc<DaemonState>, mut stream: S)
where
    S: Read + Write + Send + CloneWriter + 'static,
{
    // Only the accept loop adds connections, so the count can only fall
    // between this check and the increment.
    if state.connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
        let busy = Response::error(
            "busy",
            format!("the daemon is serving its limit of {MAX_CONNECTIONS} connections"),
        );
        let _ = write_line(&mut stream, &busy);
        return;
    }
    let slot = ConnectionSlot::new(state);
    // The closure owns the slot (a `Drop` type is captured whole), so the
    // count falls when the connection ends, or at once if the spawn fails.
    let _ = std::thread::Builder::new()
        .name("scored-conn".to_string())
        .spawn(move || serve_connection(&slot.0, stream));
}

/// One connection counted against [`MAX_CONNECTIONS`] until dropped.
struct ConnectionSlot(Arc<DaemonState>);

impl ConnectionSlot {
    fn new(state: &Arc<DaemonState>) -> Self {
        state.connections.fetch_add(1, Ordering::SeqCst);
        ConnectionSlot(Arc::clone(state))
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serves one accepted connection until EOF or shutdown. Malformed
/// lines produce `parse` errors (a line that is not UTF-8 included),
/// lines over [`MAX_LINE_BYTES`] a `too-long` error, and the loop
/// continues — a protocol guarantee, pinned by tests. One convenience
/// exception to the JSON framing: a line starting with `GET ` (an HTTP
/// request line, as sent by `curl http://addr/metrics` or a Prometheus
/// scraper pointed at the TCP listener) gets a one-shot HTTP response
/// carrying the registry in Prometheus text exposition format, then the
/// connection closes — plain sockets and scrapers share one port.
fn serve_connection<S>(state: &DaemonState, stream: S)
where
    S: Read + Write + Send + CloneWriter + 'static,
{
    let mut writer_for_subscribe = stream.clone_writer();
    let mut writer = match stream.clone_writer() {
        Some(w) => w,
        None => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    let mut conn_tenant: Option<String> = None;
    loop {
        let line = match next_line(&mut reader, &mut buf) {
            Line::End => break,
            Line::TooLong => Err(Response::error(
                "too-long",
                format!("request line longer than {MAX_LINE_BYTES} bytes"),
            )),
            Line::Fits => std::str::from_utf8(&buf)
                .map_err(|e| Response::error("parse", format!("bad request line: {e}"))),
        };
        if matches!(line, Ok(text) if text.trim().is_empty()) {
            continue;
        }
        if matches!(line, Ok(text) if text.starts_with("GET ")) {
            let body = state.obs.prometheus().unwrap_or_default();
            let head = format!(
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            );
            let _ = writer.write_all(head.as_bytes());
            let _ = writer.write_all(body.as_bytes());
            let _ = writer.flush();
            break;
        }
        let resp = match line.and_then(parse_request) {
            Ok(req) => {
                let verb = verb_of(&req);
                let sw = state.obs.stopwatch();
                let resp = state.handle(&mut conn_tenant, &mut writer_for_subscribe, req);
                sw.observe(
                    &state
                        .obs
                        .histogram(&format!("scored_request_latency_ns{{verb=\"{verb}\"}}")),
                );
                if let Some(c) = state
                    .obs
                    .counter(&format!("scored_requests_total{{verb=\"{verb}\"}}"))
                {
                    c.inc();
                }
                resp
            }
            Err(err_resp) => err_resp,
        };
        let done = matches!(resp, Response::ShuttingDown);
        if write_line(writer.as_mut(), &resp).is_err() {
            break;
        }
        if done {
            break;
        }
    }
}

/// Streams that can hand out an independent writer half (both socket
/// families can; `BufReader` then owns the read half).
trait CloneWriter {
    fn clone_writer(&self) -> Option<Box<dyn Write + Send>>;
}

impl CloneWriter for UnixStream {
    fn clone_writer(&self) -> Option<Box<dyn Write + Send>> {
        self.try_clone().ok().map(|s| Box::new(s) as _)
    }
}

impl CloneWriter for TcpStream {
    fn clone_writer(&self) -> Option<Box<dyn Write + Send>> {
        self.try_clone().ok().map(|s| Box::new(s) as _)
    }
}

impl Daemon {
    /// Binds the configured listeners (at least one must be given).
    /// A stale Unix socket file is removed first.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and an all-`None` listener config.
    pub fn bind(config: DaemonConfig) -> Result<Self, String> {
        if config.unix_socket.is_none() && config.tcp_addr.is_none() {
            return Err("scored needs a Unix socket path or a TCP address to serve on".into());
        }
        let unix = match &config.unix_socket {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)
                    .map_err(|e| format!("binding {}: {e}", path.display()))?;
                l.set_nonblocking(true)
                    .map_err(|e| format!("unix listener: {e}"))?;
                Some(l)
            }
            None => None,
        };
        let tcp = match &config.tcp_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
                l.set_nonblocking(true)
                    .map_err(|e| format!("tcp listener: {e}"))?;
                Some(l)
            }
            None => None,
        };
        Ok(Daemon {
            state: Arc::new(DaemonState::new(config)),
            unix,
            tcp,
        })
    }

    /// The TCP address actually bound (useful with port 0).
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Serves until a `Shutdown` request lands: accepts connections on
    /// every bound listener, paces every tenant's event clock, and
    /// returns once all tenants have drained and persisted their
    /// artifacts.
    pub fn run(self) {
        let state = Arc::clone(&self.state);
        let pacer = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                // How late each 5ms pacing tick actually fires — the
                // daemon's scheduling-health signal (a loaded box or a
                // slow tenant pump stretches the interval).
                let jitter = state.obs.histogram("scored_pump_pacing_jitter_ns");
                let period = Duration::from_millis(5);
                let mut last_tick: Option<score_obs::Stopwatch> = None;
                while !state.shutdown.load(Ordering::SeqCst) {
                    if let (Some(ns), Some(h)) =
                        (last_tick.and_then(|sw| sw.elapsed_ns()), jitter.as_ref())
                    {
                        h.record(ns.saturating_sub(period.as_nanos() as u64));
                    }
                    last_tick = Some(state.obs.stopwatch());
                    state.pace();
                    std::thread::sleep(period);
                }
            })
        };
        while !state.shutdown.load(Ordering::SeqCst) {
            let mut accepted = false;
            if let Some(l) = &self.unix {
                if let Ok((stream, _)) = l.accept() {
                    accepted = true;
                    admit(&state, stream);
                }
            }
            if let Some(l) = &self.tcp {
                if let Ok((stream, _)) = l.accept() {
                    accepted = true;
                    admit(&state, stream);
                }
            }
            if !accepted {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        let _ = pacer.join();
        if let Some(path) = &state.config.unix_socket {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn daemon_state() -> Arc<DaemonState> {
        let scenario = Scenario::builder()
            .canonical_tree(8, 4)
            .horizon(1e6)
            .build();
        Arc::new(DaemonState::new(DaemonConfig {
            scenario,
            unix_socket: None,
            tcp_addr: None,
            rate: 1000.0,
            record_dir: None,
        }))
    }

    fn on(tenant: &str) -> Option<String> {
        Some(tenant.to_string())
    }

    fn code(resp: &Response) -> &str {
        match resp {
            Response::Error { code, .. } => code,
            _ => "",
        }
    }

    #[test]
    fn jobs_on_one_tenant_run_in_submission_order() {
        let state = daemon_state();
        let t = state.tenant("fifo").unwrap();
        let (seen_tx, seen) = channel();
        for i in 0..32 {
            let seen_tx = seen_tx.clone();
            t.jobs
                .send(Box::new(move |_| seen_tx.send(i).unwrap()))
                .unwrap();
        }
        // `run` queues behind the jobs already sent.
        assert_eq!(t.run(|_| ()), Some(()));
        drop(seen_tx);
        assert_eq!(seen.iter().collect::<Vec<_>>(), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn distinct_tenants_run_concurrently() {
        let state = daemon_state();
        let a = state.tenant("a").unwrap();
        let (open_gate, gate) = channel::<()>();
        a.jobs
            .send(Box::new(move |_| {
                let _ = gate.recv();
            }))
            .unwrap();
        // With `a`'s worker blocked on the gate, `b` still answers.
        let (answered, answer) = channel();
        let server = Arc::clone(&state);
        let asker = std::thread::spawn(move || {
            let resp = server.handle(&mut on("b"), &mut None, Request::Place { server: None });
            let _ = answered.send(resp);
        });
        let resp = answer.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(matches!(resp, Response::Placed { .. }), "{resp:?}");
        asker.join().unwrap();
        open_gate.send(()).unwrap();
        assert_eq!(a.run(|_| ()), Some(()));
    }

    #[test]
    fn a_panicking_tenant_fails_alone() {
        let state = daemon_state();
        let now_s = |tenant: &str| match state.handle(
            &mut None,
            &mut None,
            Request::Attach {
                tenant: tenant.to_string(),
            },
        ) {
            Response::Attached { now_s, .. } => now_s,
            other => panic!("expected Attached, got {other:?}"),
        };
        let b_before = now_s("b");
        let a = state.tenant("a").unwrap();
        let panicked: Option<()> = a.run(|_| panic!("injected"));
        assert_eq!(panicked, None);
        for req in [
            Request::Place { server: None },
            Request::Report,
            Request::Pause,
            Request::Subscribe,
        ] {
            let resp = state.handle(&mut on("a"), &mut Some(Box::new(Vec::new())), req);
            assert_eq!(code(&resp), "tenant-failed", "{resp:?}");
        }
        let resp = state.handle(
            &mut None,
            &mut None,
            Request::Attach {
                tenant: "a".to_string(),
            },
        );
        assert_eq!(code(&resp), "tenant-failed", "{resp:?}");

        // `b` still places and, after one pacer tick, has advanced.
        let resp = state.handle(&mut on("b"), &mut None, Request::Place { server: None });
        assert!(matches!(resp, Response::Placed { .. }), "{resp:?}");
        std::thread::sleep(Duration::from_millis(20));
        state.pace();
        assert!(now_s("b") > b_before, "the pacer stopped advancing b");
        assert_eq!(
            state.handle(&mut on("b"), &mut None, Request::Shutdown),
            Response::ShuttingDown
        );
    }
}
