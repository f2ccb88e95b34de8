//! The per-tenant engine: one live [`Session`] advanced in wall-clock
//! pace, mutated only at drained event boundaries, and recorded into a
//! replayable audit log.
//!
//! # Replayability contract
//!
//! Every mutating request (placement, removal, traffic delta) is
//! applied at a **drained boundary** — an instant where every pending
//! event lies strictly in the future ([`Session::drain_to_boundary`])
//! — and appended to the session's [`score_trace::TraceRecorder`] at
//! that instant. Replaying the recorded raw event stream against a
//! fresh session of the same scenario ([`replay_trace`]) therefore
//! pops exactly the event prefix the live run popped before each
//! mutation, and the final [`RunReport`]s agree **byte for byte** once
//! serialized canonically ([`canonical_report_json`] zeroes the two
//! wall-clock-measurement fields, which are the only nondeterministic
//! ones).
//!
//! Call-count parity is part of the contract: the engine lowers every
//! `SetRate` / `ScalePair` to one [`Session::apply_traffic_deltas`] call
//! per pair whose rate actually changes and every `ScaleAll` to one
//! [`Session::apply_traffic_scale`] call (no-ops are skipped before the
//! call), so the live apply-call count, the recorded event count, and
//! the replay apply-call count are all the same number and the
//! `events_applied` statistic survives the round trip.

use crate::proto::compact_json;
use score_obs::{Counter, Gauge, ObsHandle};
use score_sim::{RunReport, Scenario, Session, WorkloadSpec};
use score_topology::{ServerId, VmId};
use score_trace::jsonl::{replace_file, write_event_lines};
use score_trace::{scaled_rate, Trace, TraceEvent};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Serializes a report canonically: the two wall-clock measurement
/// fields (`trace.apply_ns_total` / `trace.apply_ns_max`) are zeroed —
/// they measure *this host's* nanoseconds, not simulated state — and
/// everything else is byte-stable under record → replay.
pub fn canonical_report_json(report: &RunReport) -> String {
    canonical_json(report.clone())
}

/// [`canonical_report_json`] for a caller that owns the report: no
/// second copy of every migration just to zero two fields.
fn canonical_json(mut report: RunReport) -> String {
    report.trace.apply_ns_total = 0;
    report.trace.apply_ns_max = 0;
    compact_json(&report)
}

/// What one engine mutation changed, for responses and subscribers.
#[derive(Debug, Clone)]
pub struct Applied {
    /// Pairs whose rate actually changed.
    pub pairs_changed: u64,
    /// The drained-boundary time the mutation landed at.
    pub at_s: f64,
}

/// What one fault batch did to the tenant, for responses and
/// subscribers.
#[derive(Debug, Clone, Default)]
pub struct Faulted {
    /// Hosts newly marked down across the batch.
    pub hosts_failed: u32,
    /// VMs force-evacuated to surviving hosts.
    pub evacuations: u64,
    /// VMs retired because no live host could admit them.
    pub unplaceable: u64,
    /// The drained-boundary time the batch landed at.
    pub at_s: f64,
}

/// A named tenant's live cluster: a recording [`Session`] plus the
/// wall-clock pacing state that advances it between requests.
pub struct TenantEngine {
    name: String,
    scenario: Scenario,
    session: Session,
    paused: bool,
    /// Simulated seconds advanced per wall-clock second while running.
    rate: f64,
    /// Wall instant the current run-span started.
    anchor_wall: Instant,
    /// Event-clock time at that instant.
    anchor_virtual: f64,
    /// The persisted artifacts, when persistence is on.
    log: Option<AuditLog>,
    /// Recorder events already handed to subscribers.
    streamed: usize,
    /// Pre-resolved pacing instruments, when observability is attached.
    obs: Option<EngineObs>,
}

/// A persisting tenant's artifact directory (`scenario.json`,
/// `trace.jsonl`, `report.json`) and its one append handle on
/// `trace.jsonl`, open from the tenant's creation or recovery on.
/// [`TenantEngine::flush_trace`] appends through the handle; every write
/// of the whole file (the header at creation, the re-recorded log at
/// recovery, the true end time at [`TenantEngine::finish`]) is an atomic
/// replace, after which the handle is opened again on the new file.
struct AuditLog {
    dir: PathBuf,
    /// Opened in append mode on the file the last whole-file write left.
    file: File,
    /// Recorder events already in the file: the only file cursor.
    written: usize,
}

impl AuditLog {
    /// Writes `session`'s recording so far, closed at `end_s`, as the
    /// whole of `dir/trace.jsonl` in one atomic replace ([`Trace::save`]),
    /// and opens the append handle on the result.
    fn replace(dir: PathBuf, session: &mut Session, end_s: f64) -> Result<AuditLog, String> {
        let trace = session
            .trace_recorder_mut()
            .ok_or_else(|| "the tenant's session is not recording".to_string())?
            .finish(end_s)
            .map_err(|e| format!("closing the audit log: {e}"))?;
        let path = dir.join("trace.jsonl");
        trace
            .save(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| format!("opening {} to append: {e}", path.display()))?;
        Ok(AuditLog {
            dir,
            file,
            written: trace.num_events(),
        })
    }
}

/// The engine's own instruments (the session carries its own set).
struct EngineObs {
    /// How far the event clock trails its wall-pace target, in
    /// simulated seconds — the daemon's "is this tenant keeping up"
    /// signal.
    clock_lag: Arc<Gauge>,
    /// Token holds the pacer has executed for this tenant.
    pump_steps: Arc<Counter>,
}

impl TenantEngine {
    /// Materializes a tenant from `scenario` and starts its audit
    /// recording. With `record_dir`, the tenant persists under
    /// `<record_dir>/<name>/`: `scenario.json` and the header of
    /// `trace.jsonl` are written at once, so a crashed daemon still
    /// leaves a replayable pair behind, and a pair a previous incarnation
    /// left there rebuilds the tenant where it stopped (wall-clock pacing
    /// re-anchors there, so crashed wall time is never "caught up"). A
    /// pair that does not rebuild is set aside (the log as
    /// `trace.jsonl.stale`, for forensics) and the tenant starts fresh.
    ///
    /// # Errors
    ///
    /// Rejects trace-driven scenarios (their scheduled shifts would be
    /// recorded *and* replayed, double-applying every delta) and
    /// propagates materialization and I/O failures as strings.
    pub fn new(
        name: &str,
        scenario: Scenario,
        rate: f64,
        record_dir: Option<&Path>,
    ) -> Result<Self, String> {
        if matches!(scenario.workload, WorkloadSpec::Trace { .. }) {
            return Err(
                "scored serves live clusters; trace workloads already script their own \
                 deltas — replay them with `scorectl trace` instead"
                    .to_string(),
            );
        }
        if !(rate.is_finite() && rate > 0.0) {
            return Err(format!(
                "pacing rate must be positive and finite, got {rate}"
            ));
        }
        let dir = record_dir.map(|base| base.join(name));
        // Artifacts that do not rebuild are set aside, not deleted.
        let recovered = dir
            .as_deref()
            .filter(|dir| dir.join("trace.jsonl").is_file())
            .and_then(|dir| {
                rebuild(&scenario, dir)
                    .inspect_err(|e| {
                        eprintln!("scored: tenant {name}: trace.jsonl set aside as stale: {e}");
                        let _ =
                            std::fs::rename(dir.join("trace.jsonl"), dir.join("trace.jsonl.stale"));
                        let _ = std::fs::remove_file(dir.join("report.json"));
                    })
                    .ok()
            });
        let mut session = match recovered {
            Some(session) => session,
            None => {
                let mut session = scenario.session().map_err(|e| e.to_string())?;
                session.start_trace_recording();
                session
            }
        };
        let log = match dir {
            Some(dir) => {
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("creating record dir {}: {e}", dir.display()))?;
                replace_file(
                    &dir.join("scenario.json"),
                    scenario.to_json_pretty().as_bytes(),
                )
                .map_err(|e| format!("writing scenario.json: {e}"))?;
                // Stamped with the planned horizon until `finish` knows
                // the true end, so the log loads whenever it is cut off.
                Some(AuditLog::replace(
                    dir,
                    &mut session,
                    scenario.timing.t_end_s,
                )?)
            }
            None => None,
        };
        let streamed = session
            .trace_recorder_mut()
            .map_or(0, |rec| rec.num_events());
        let anchor_virtual = session.now_s();
        Ok(TenantEngine {
            name: name.to_string(),
            scenario,
            session,
            paused: false,
            rate,
            anchor_wall: Instant::now(),
            anchor_virtual,
            log,
            streamed,
            obs: None,
        })
    }

    /// Attaches observability: the session's decision/ledger/forecast
    /// instruments plus the engine's own pacing gauges. The handle is
    /// usually tenant-labeled (`with_label("tenant", ..)`), so every
    /// series this engine touches is scoped to it. The determinism
    /// contract holds here exactly as in the simulator: reports and
    /// audit logs are byte-identical with or without a handle attached.
    pub fn attach_obs(&mut self, handle: &ObsHandle) {
        // A disabled handle resolves no instruments.
        let (Some(clock_lag), Some(pump_steps)) = (
            handle.gauge("scored_clock_lag_s"),
            handle.counter("scored_pump_steps_total"),
        ) else {
            return;
        };
        self.session.attach_obs(handle);
        self.obs = Some(EngineObs {
            clock_lag,
            pump_steps,
        });
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scenario this tenant materialized.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The live session (for reports and inspection).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Advances the session toward wall-clock pace: steps until the
    /// event clock catches up with `rate ×` elapsed run time, but at
    /// most `max_steps` token holds per call so one tenant never
    /// monopolizes its worker. No-op while paused or past the horizon.
    pub fn pump(&mut self, max_steps: usize) {
        if self.paused || self.session.horizon_reached() {
            return;
        }
        let target = self.anchor_virtual + self.rate * self.anchor_wall.elapsed().as_secs_f64();
        let mut steps = 0;
        while steps < max_steps && self.session.now_s() < target {
            if self.session.step().is_none() {
                break;
            }
            steps += 1;
        }
        if let Some(obs) = &self.obs {
            obs.pump_steps.add(steps as u64);
            obs.clock_lag.set((target - self.session.now_s()).max(0.0));
        }
    }

    /// Freezes the event clock (mutations still apply, at the frozen
    /// boundary). Returns the freeze time.
    pub fn pause(&mut self) -> f64 {
        self.paused = true;
        self.session.now_s()
    }

    /// Unfreezes the event clock; pacing resumes from the current
    /// instant, so paused wall time never has to be caught up.
    pub fn resume(&mut self) -> f64 {
        self.paused = false;
        self.anchor_wall = Instant::now();
        self.anchor_virtual = self.session.now_s();
        self.session.now_s()
    }

    /// Admits a new VM at the next drained boundary. Returns
    /// `(vm, server, boundary time)`.
    ///
    /// # Errors
    ///
    /// Propagates the cluster's admission verdict.
    pub fn place(&mut self, server: Option<u32>) -> Result<(u32, u32, f64), String> {
        let at_s = self.session.drain_to_boundary();
        let (vm, host) = self
            .session
            .place_vm(server.map(ServerId::new))
            .map_err(|e| e.to_string())?;
        Ok((vm.get(), host.get(), at_s))
    }

    /// Retires a live VM at the next drained boundary. Returns the
    /// boundary time.
    ///
    /// # Errors
    ///
    /// Propagates `unknown VM` for dead or out-of-range ids.
    pub fn remove(&mut self, vm: u32) -> Result<f64, String> {
        let at_s = self.session.drain_to_boundary();
        self.session
            .remove_vm(VmId::new(vm))
            .map_err(|e| e.to_string())?;
        Ok(at_s)
    }

    /// Applies traffic events at the next drained boundary: a
    /// `ScaleAll` as one O(1) session call recorded as itself, the
    /// per-pair events as absolute re-rates applied one call per
    /// actually-changing pair (see the module docs for why).
    ///
    /// # Errors
    ///
    /// Rejects churn and marker events (`Place`/`Remove` requests are
    /// the churn path) and any payload [`TraceEvent::check_payload`]
    /// refuses before anything is applied; propagates delta validation
    /// failures, with events before the failing one staying applied,
    /// exactly as they were recorded.
    pub fn traffic(&mut self, events: &[TraceEvent]) -> Result<Applied, String> {
        for ev in events {
            ev.check_payload()?;
            match ev {
                TraceEvent::PlaceVm { .. } | TraceEvent::RemoveVm { .. } => {
                    return Err(
                        "churn events are not traffic; send Place / Remove requests".to_string()
                    )
                }
                TraceEvent::Marker { .. } => {
                    return Err("markers have no live meaning; send rate events".to_string())
                }
                TraceEvent::HostCrash { .. }
                | TraceEvent::RackFail { .. }
                | TraceEvent::LinkDegrade { .. }
                | TraceEvent::LinkRestore { .. } => {
                    return Err("fault events are not traffic; send a Fault request".to_string())
                }
                TraceEvent::SetRate { .. }
                | TraceEvent::ScalePair { .. }
                | TraceEvent::ScaleAll { .. } => {}
            }
        }
        let at_s = self.session.drain_to_boundary();
        let mut pairs_changed = 0u64;
        for ev in events {
            let (u, v, rate) = match *ev {
                TraceEvent::SetRate { u, v, rate } => (VmId::new(u), VmId::new(v), rate),
                TraceEvent::ScalePair { u, v, factor } => {
                    let (u, v) = (VmId::new(u), VmId::new(v));
                    if u.get() >= self.session.traffic().num_vms()
                        || v.get() >= self.session.traffic().num_vms()
                        || u == v
                    {
                        return Err(format!("ScalePair names an invalid pair ({u}, {v})"));
                    }
                    (u, v, scaled_rate(self.session.traffic().rate(u, v), factor))
                }
                TraceEvent::ScaleAll { factor } => {
                    if factor != 1.0 {
                        pairs_changed +=
                            self.session
                                .apply_traffic_scale(factor)
                                .map_err(|e| e.to_string())? as u64;
                    }
                    continue;
                }
                TraceEvent::PlaceVm { .. }
                | TraceEvent::RemoveVm { .. }
                | TraceEvent::Marker { .. }
                | TraceEvent::HostCrash { .. }
                | TraceEvent::RackFail { .. }
                | TraceEvent::LinkDegrade { .. }
                | TraceEvent::LinkRestore { .. } => unreachable!("rejected above"),
            };
            // Skip no-ops *before* the call: the recorded stream then
            // contains one event per apply call, and replay makes
            // exactly as many calls as the live run did.
            if u.get() < self.session.traffic().num_vms()
                && v.get() < self.session.traffic().num_vms()
                && u != v
                && self.session.traffic().rate(u, v) == rate
            {
                continue;
            }
            self.session
                .apply_traffic_deltas(&[(u, v, rate)])
                .map_err(|e| e.to_string())?;
            pairs_changed += 1;
        }
        Ok(Applied {
            pairs_changed,
            at_s,
        })
    }

    /// Injects fault events at the next drained boundary — the
    /// adversity path of the protocol. Each event goes through
    /// [`Session::apply_fault`]: crashed hosts are evacuated through
    /// the deterministic re-planning pipeline, and only the fault
    /// events land in the audit log (their consequences are re-derived
    /// on replay, which keeps crash recovery byte-stable).
    ///
    /// # Errors
    ///
    /// Rejects non-fault events up front (nothing is applied) and
    /// propagates fault validation failures; events before the failing
    /// one stay applied, exactly as they were recorded.
    pub fn fault(&mut self, events: &[TraceEvent]) -> Result<Faulted, String> {
        if let Some(bad) = events.iter().find(|ev| !ev.is_fault()) {
            return Err(format!(
                "only fault events may be injected here, got {bad:?}; \
                 send Traffic / Place / Remove for ordinary mutations"
            ));
        }
        let at_s = self.session.drain_to_boundary();
        let mut result = Faulted {
            at_s,
            ..Faulted::default()
        };
        for ev in events {
            let outcome = self.session.apply_fault(ev).map_err(|e| e.to_string())?;
            result.hosts_failed += outcome.hosts_failed.len() as u32;
            result.evacuations += outcome.evacuated.len() as u64;
            result.unplaceable += outcome.unplaceable.len() as u64;
        }
        Ok(result)
    }

    /// Audit-log lines recorded since the last call — the subscriber
    /// stream (each line is one serialized `TimedEvent`, identical to
    /// what `trace.jsonl` receives).
    pub fn fresh_trace_lines(&mut self) -> Vec<String> {
        let Some(recorder) = self.session.trace_recorder_mut() else {
            return Vec::new();
        };
        let events = recorder.events();
        let lines = events[self.streamed.min(events.len())..]
            .iter()
            .map(compact_json)
            .collect();
        self.streamed = events.len();
        lines
    }

    /// The tenant's canonical report JSON (see
    /// [`canonical_report_json`]).
    pub fn report_json(&self) -> String {
        canonical_json(self.session.report())
    }

    /// Appends the events recorded since the last flush to
    /// `trace.jsonl`, in one write through the tenant's append handle,
    /// when persisting; a no-op otherwise. Call after every mutation and
    /// before anyone hears of it: a log that refused the write is behind
    /// the tenant's memory (the daemon fails such a tenant).
    ///
    /// # Errors
    ///
    /// Propagates the write's I/O failure; the cursor then stays put.
    pub fn flush_trace(&mut self) -> Result<(), String> {
        let (Some(log), Some(rec)) = (&mut self.log, self.session.trace_recorder_mut()) else {
            return Ok(());
        };
        let fresh = &rec.events()[log.written..];
        let mut lines = String::new();
        write_event_lines(&mut lines, fresh);
        log.file
            .write_all(lines.as_bytes())
            .map_err(|e| format!("appending to {}/trace.jsonl: {e}", log.dir.display()))?;
        log.written += fresh.len();
        Ok(())
    }

    /// Drains to a final boundary, persists the full audit log (stamped
    /// with that boundary as its true end time) and `report.json`
    /// (canonical), each as an atomic replace, and returns the final
    /// canonical report JSON. The recorded `end_s` is that drained
    /// boundary, so [`replay_trace`] stops at exactly the same instant.
    ///
    /// # Errors
    ///
    /// Propagates artifact I/O failures.
    pub fn finish(&mut self) -> Result<String, String> {
        self.session.drain_to_boundary();
        let report = self.report_json();
        if let Some(log) = &mut self.log {
            let end_s = self.session.now_s().max(1e-6);
            *log = AuditLog::replace(log.dir.clone(), &mut self.session, end_s)?;
            replace_file(&log.dir.join("report.json"), report.as_bytes())
                .map_err(|e| format!("writing report.json: {e}"))?;
        }
        Ok(report)
    }

    /// Points the audit log's append handle at `file`: the way a test
    /// gives a live tenant a disk that refuses writes.
    #[cfg(test)]
    pub(crate) fn swap_log_file(&mut self, file: File) {
        if let Some(log) = &mut self.log {
            log.file = file;
        }
    }
}

/// Rebuilds the recording session a previous incarnation of a tenant
/// left in `dir`, reading but never writing its artifacts: the log
/// replays against a fresh session with recording active, so every
/// mutation is re-recorded at its original drained-boundary time, bit
/// for bit, and the event clock stands at the last recorded boundary.
///
/// # Errors
///
/// Fails when `scenario.json` does not match `scenario`, the log's whole
/// lines are not a daemon recording, an event fails to re-apply, or the
/// re-recorded stream diverges from the loaded one.
fn rebuild(scenario: &Scenario, dir: &Path) -> Result<Session, String> {
    let on_disk = std::fs::read_to_string(dir.join("scenario.json"))
        .map_err(|e| format!("reading scenario.json: {e}"))?;
    if on_disk != scenario.to_json_pretty() {
        return Err("scenario.json differs from the requested scenario".to_string());
    }
    let trace = Trace::load_log(&dir.join("trace.jsonl"))
        .map_err(|e| format!("loading trace.jsonl: {e}"))?;
    let mut session = replay_session(scenario, &trace)?;
    session.start_trace_recording();
    session
        .run_storm(trace.events())
        .map_err(|e| e.to_string())?;
    // The rebuilt recording must be the loaded stream, event for event —
    // the proof the tenant is exactly where it crashed.
    let rerecorded = session.trace_recorder_mut().map(|rec| rec.events());
    if rerecorded != Some(trace.events()) {
        return Err("re-recorded stream diverges from the loaded audit log".to_string());
    }
    Ok(session)
}

/// Replays a recorded daemon audit log against a fresh session of the
/// same scenario: [`Session::run_storm`] drains to each event's boundary
/// and applies it, then the session drains to the recorded end. Returns
/// the final report — canonically serialized, it is byte-identical to
/// the live run's (the module docs' contract).
///
/// # Errors
///
/// Fails when the trace does not look like a daemon recording (wrong
/// base population, `ScalePair` events) or an event fails to apply.
pub fn replay_trace(scenario: &Scenario, trace: &Trace) -> Result<RunReport, String> {
    let mut session = replay_session(scenario, trace)?;
    session
        .run_storm(trace.events())
        .map_err(|e| e.to_string())?;
    session.advance_to(trace.end_s());
    Ok(session.report())
}

/// A fresh session of `scenario` for `trace` to be replayed against
/// with [`Session::run_storm`], once the trace passes for a daemon
/// recording: same base population, and no `ScalePair` (the engine
/// lowers those to absolute re-rates before they are recorded; a
/// `ScaleAll` is recorded as itself, and recordings made before it was
/// hold only the `SetRate`s it used to be lowered to). A marker is a
/// replay no-op; crash recovery ([`TenantEngine::new`]) refuses one
/// anyway, because its re-recorded stream comes out an event short.
fn replay_session(scenario: &Scenario, trace: &Trace) -> Result<Session, String> {
    let session = scenario.session().map_err(|e| e.to_string())?;
    if trace.num_vms() != session.traffic().num_vms() {
        return Err(format!(
            "trace population {} does not match the scenario's {}",
            trace.num_vms(),
            session.traffic().num_vms()
        ));
    }
    if trace
        .events()
        .iter()
        .any(|ev| matches!(ev.event, TraceEvent::ScalePair { .. }))
    {
        return Err(
            "daemon recordings contain only absolute re-rates, uniform scales, churn and \
             faults; this trace does not look like one"
                .to_string(),
        );
    }
    Ok(session)
}

/// Replays the artifact pair a recorded daemon tenant leaves behind
/// (`scenario.json` + `trace.jsonl` in `dir`) and returns the
/// canonical report JSON, ready to diff against `report.json`.
///
/// # Errors
///
/// Propagates artifact loading and replay failures.
pub fn replay_dir(dir: &Path) -> Result<String, String> {
    let scenario_text = std::fs::read_to_string(dir.join("scenario.json"))
        .map_err(|e| format!("reading {}/scenario.json: {e}", dir.display()))?;
    let scenario =
        Scenario::from_json(&scenario_text).map_err(|e| format!("parsing scenario.json: {e}"))?;
    let trace = Trace::load(&dir.join("trace.jsonl"))
        .map_err(|e| format!("loading {}/trace.jsonl: {e}", dir.display()))?;
    let report = replay_trace(&scenario, &trace)?;
    Ok(canonical_json(report))
}
