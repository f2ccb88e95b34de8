//! The `scored` daemon: an always-on event loop serving live clusters
//! over line-delimited JSON sockets (Unix and/or TCP).
//!
//! One [`crate::TenantEngine`] per tenant namespace, each pinned to a
//! named persistent worker thread from the `rayon` shim's
//! [`rayon::registry::WorkerRegistry`] — every request for a tenant
//! runs on that tenant's worker, so tenant state is single-writer by
//! construction and tenants never block each other. Between requests a
//! pacing thread keeps each tenant's token ring circulating on the
//! event clock at `rate` simulated seconds per wall second.
//!
//! Connections are plain sockets carrying one request per line; any
//! number may attach to the same tenant. `Subscribe` turns a
//! connection into an observer: every later mutation response, audit
//! trace line, and refreshed canonical report for that tenant is
//! streamed to it.

use crate::engine::TenantEngine;
use crate::proto::{parse_request, response_line, Request, Response};
use rayon::registry::{registry, WorkerHandle};
use score_obs::{Counter, Gauge, ObsHandle};
use score_sim::Scenario;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
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

/// One live tenant: its engine, its dedicated worker, its observers.
struct Tenant {
    name: String,
    engine: Arc<Mutex<TenantEngine>>,
    worker: WorkerHandle,
    subscribers: Arc<Mutex<Vec<Box<dyn Write + Send>>>>,
    /// Live observer connections (`scored_subscribers{tenant=..}`).
    subscriber_gauge: Arc<Gauge>,
    /// Observers dropped because their socket hung up mid-stream
    /// (`scored_subscribers_dropped_total{tenant=..}`).
    subscribers_dropped: Arc<Counter>,
}

struct DaemonState {
    config: DaemonConfig,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    shutdown: AtomicBool,
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

impl DaemonState {
    /// The tenant for `name`, created (engine + worker) on first use.
    fn tenant(self: &Arc<Self>, name: &str) -> Result<Arc<Tenant>, String> {
        let mut table = self.tenants.lock().expect("tenant table poisoned");
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
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            engine: Arc::new(Mutex::new(engine)),
            worker: registry().worker(&format!("scored-{name}")),
            subscribers: Arc::new(Mutex::new(Vec::new())),
            subscriber_gauge: scoped.gauge("scored_subscribers").expect("obs enabled"),
            subscribers_dropped: scoped
                .counter("scored_subscribers_dropped_total")
                .expect("obs enabled"),
        });
        table.insert(name.to_string(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Streams `lines` then `resp` (and a fresh report) to the
    /// tenant's subscribers. Any that hang up (closed socket, dead
    /// pipe) are dropped from the list — counted, gauged, and logged,
    /// never silently.
    fn broadcast(tenant: &Tenant, resp: &Response, trace_lines: &[String], report: &str) {
        let mut subs = tenant.subscribers.lock().expect("subscriber list poisoned");
        let before = subs.len();
        subs.retain_mut(|w| {
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
        let dropped = before - subs.len();
        if dropped > 0 {
            tenant.subscribers_dropped.add(dropped as u64);
            tenant.subscriber_gauge.set(subs.len() as f64);
            eprintln!(
                "scored: tenant {} dropped {dropped} hung-up subscriber{} ({} left)",
                tenant.name,
                if dropped == 1 { "" } else { "s" },
                subs.len()
            );
        }
    }

    /// Runs one mutating request on the tenant's worker: mutate, flush
    /// the audit log, notify subscribers.
    fn mutate<F>(self: &Arc<Self>, tenant: &Arc<Tenant>, op: F) -> Response
    where
        F: FnOnce(&mut TenantEngine) -> Result<Response, Response> + Send + 'static,
    {
        let t = Arc::clone(tenant);
        tenant.worker.run(move || {
            let mut engine = t.engine.lock().expect("engine poisoned");
            match op(&mut engine) {
                Ok(resp) => {
                    if let Err(e) = engine.flush_trace() {
                        return Response::error("internal", e);
                    }
                    // Serializing the stream (and a fresh report, which
                    // is large at scale) is only worth it when someone
                    // is listening; an observer arriving later catches
                    // up from the cursor.
                    let observed = !t
                        .subscribers
                        .lock()
                        .expect("subscriber list poisoned")
                        .is_empty();
                    if observed {
                        let lines = engine.fresh_trace_lines();
                        let report = engine.report_json();
                        drop(engine);
                        DaemonState::broadcast(&t, &resp, &lines, &report);
                    }
                    resp
                }
                Err(resp) => resp,
            }
        })
    }

    fn handle(
        self: &Arc<Self>,
        conn_tenant: &mut Option<String>,
        subscriber_writer: &mut Option<Box<dyn Write + Send>>,
        req: Request,
    ) -> Response {
        // Connections that never attach land in the "default" tenant.
        let tenant_name =
            |conn: &Option<String>| conn.clone().unwrap_or_else(|| "default".to_string());
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
                let engine = Arc::clone(&t.engine);
                t.worker.run(move || {
                    let engine = engine.lock().expect("engine poisoned");
                    Response::Attached {
                        tenant,
                        num_vms: engine.session().cluster().num_active(),
                        now_s: engine.session().now_s(),
                    }
                })
            }
            Request::Place { server } => {
                let t = match self.tenant(&tenant_name(conn_tenant)) {
                    Ok(t) => t,
                    Err(e) => return Response::error("bad-request", e),
                };
                self.mutate(&t, move |engine| {
                    engine
                        .place(server)
                        .map(|(vm, server, at_s)| Response::Placed { vm, server, at_s })
                        .map_err(|e| Response::error("placement", e))
                })
            }
            Request::Remove { vm } => {
                let t = match self.tenant(&tenant_name(conn_tenant)) {
                    Ok(t) => t,
                    Err(e) => return Response::error("bad-request", e),
                };
                self.mutate(&t, move |engine| {
                    engine
                        .remove(vm)
                        .map(|at_s| Response::Removed { vm, at_s })
                        .map_err(|e| Response::error("unknown-vm", e))
                })
            }
            Request::Traffic { events } => {
                let t = match self.tenant(&tenant_name(conn_tenant)) {
                    Ok(t) => t,
                    Err(e) => return Response::error("bad-request", e),
                };
                let count = events.len() as u32;
                self.mutate(&t, move |engine| {
                    engine
                        .traffic(&events)
                        .map(|a| Response::Applied {
                            events: count,
                            pairs_changed: a.pairs_changed,
                            at_s: a.at_s,
                        })
                        .map_err(|e| Response::error("bad-event", e))
                })
            }
            Request::Fault { events } => {
                let t = match self.tenant(&tenant_name(conn_tenant)) {
                    Ok(t) => t,
                    Err(e) => return Response::error("bad-request", e),
                };
                let count = events.len() as u32;
                self.mutate(&t, move |engine| {
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
            }
            Request::Report => {
                let t = match self.tenant(&tenant_name(conn_tenant)) {
                    Ok(t) => t,
                    Err(e) => return Response::error("bad-request", e),
                };
                let engine = Arc::clone(&t.engine);
                t.worker.run(move || {
                    let engine = engine.lock().expect("engine poisoned");
                    Response::Report {
                        json: engine.report_json(),
                    }
                })
            }
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
            Request::Pause => {
                let t = match self.tenant(&tenant_name(conn_tenant)) {
                    Ok(t) => t,
                    Err(e) => return Response::error("bad-request", e),
                };
                let engine = Arc::clone(&t.engine);
                t.worker.run(move || {
                    let mut engine = engine.lock().expect("engine poisoned");
                    Response::Paused {
                        at_s: engine.pause(),
                    }
                })
            }
            Request::Resume => {
                let t = match self.tenant(&tenant_name(conn_tenant)) {
                    Ok(t) => t,
                    Err(e) => return Response::error("bad-request", e),
                };
                let engine = Arc::clone(&t.engine);
                t.worker.run(move || {
                    let mut engine = engine.lock().expect("engine poisoned");
                    Response::Resumed {
                        at_s: engine.resume(),
                    }
                })
            }
            Request::Subscribe => {
                let name = tenant_name(conn_tenant);
                let t = match self.tenant(&name) {
                    Ok(t) => t,
                    Err(e) => return Response::error("bad-request", e),
                };
                match subscriber_writer.take() {
                    Some(w) => {
                        let mut subs = t.subscribers.lock().expect("subscriber list poisoned");
                        subs.push(w);
                        t.subscriber_gauge.set(subs.len() as f64);
                        Response::Subscribed { tenant: name }
                    }
                    None => Response::error(
                        "bad-request",
                        "this connection cannot subscribe (already subscribed, or the \
                         stream cannot be cloned)",
                    ),
                }
            }
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                let tenants: Vec<Arc<Tenant>> = self
                    .tenants
                    .lock()
                    .expect("tenant table poisoned")
                    .values()
                    .cloned()
                    .collect();
                for t in tenants {
                    let engine = Arc::clone(&t.engine);
                    let final_resp = t.worker.run(move || {
                        let mut engine = engine.lock().expect("engine poisoned");
                        match engine.finish() {
                            Ok(report) => Response::Report { json: report },
                            Err(e) => Response::error("internal", e),
                        }
                    });
                    DaemonState::broadcast(&t, &Response::ShuttingDown, &[], "");
                    if let Response::Error { message, .. } = final_resp {
                        return Response::error("internal", message);
                    }
                }
                Response::ShuttingDown
            }
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

/// Serves one accepted connection until EOF or shutdown. Malformed
/// lines produce `parse` errors (a line that is not UTF-8 included),
/// lines over [`MAX_LINE_BYTES`] a `too-long` error, and the loop
/// continues — a protocol guarantee, pinned by tests. One convenience
/// exception to the JSON framing: a line starting with `GET ` (an HTTP
/// request line, as sent by `curl http://addr/metrics` or a Prometheus
/// scraper pointed at the TCP listener) gets a one-shot HTTP response
/// carrying the registry in Prometheus text exposition format, then the
/// connection closes — plain sockets and scrapers share one port.
fn serve_connection<S>(state: Arc<DaemonState>, stream: S)
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
            state: Arc::new(DaemonState {
                config,
                tenants: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
                obs: ObsHandle::new(),
            }),
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
        // The pacing thread: round-robins tenants, advancing each on
        // its own worker so pacing never races a request.
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
                    let tenants: Vec<Arc<Tenant>> = state
                        .tenants
                        .lock()
                        .expect("tenant table poisoned")
                        .values()
                        .cloned()
                        .collect();
                    for t in tenants {
                        let engine = Arc::clone(&t.engine);
                        t.worker.run(move || {
                            engine
                                .lock()
                                .expect("engine poisoned")
                                .pump(PUMP_SLICE_STEPS);
                        });
                    }
                    std::thread::sleep(period);
                }
            })
        };
        while !state.shutdown.load(Ordering::SeqCst) {
            let mut accepted = false;
            if let Some(l) = &self.unix {
                if let Ok((stream, _)) = l.accept() {
                    accepted = true;
                    let state = Arc::clone(&state);
                    rayon::spawn(move || serve_connection(state, stream));
                }
            }
            if let Some(l) = &self.tcp {
                if let Ok((stream, _)) = l.accept() {
                    accepted = true;
                    let state = Arc::clone(&state);
                    rayon::spawn(move || serve_connection(state, stream));
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
