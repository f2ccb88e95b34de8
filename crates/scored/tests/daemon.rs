//! Integration tests for the `scored` daemon stack.
//!
//! Three layers are pinned here:
//!
//! 1. **Replayability** — a live engine session with churn, traffic,
//!    and pacing noise leaves artifacts whose replay reproduces the
//!    final canonical report **byte for byte**.
//! 2. **Pause → mutate → resume determinism** (proptest) — arbitrary
//!    interleavings of pacing, pauses, and mutations stay equivalent to
//!    a batch replay of the recorded stream, with zero ledger resyncs.
//! 3. **The socket protocol** — a real daemon on a Unix socket serves
//!    place / traffic / report / subscribe / shutdown, survives
//!    malformed lines, and its recorded artifacts replay to the exact
//!    report the live daemon handed out.

use proptest::prelude::*;
use score_scored::proto::{response_line, Request, Response};
use score_scored::{
    canonical_report_json, replay_dir, replay_trace, Daemon, DaemonConfig, TenantEngine,
};
use score_sim::{PolicyKind, Scenario};
use score_trace::TraceEvent;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

fn quick_scenario(seed: u64) -> Scenario {
    let mut s = Scenario::builder()
        .canonical_tree(8, 4)
        .sparse_traffic(seed)
        .policy(PolicyKind::HighestLevelFirst)
        .build();
    s.seed = seed;
    s.timing.t_end_s = 60.0;
    s.timing.sample_interval_s = 5.0;
    s.timing.token_hold_s = 0.05;
    s.timing.token_pass_s = 0.01;
    s
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scored_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Live churn + traffic + wall pacing, then replay the artifacts: the
/// canonical reports must agree byte for byte (the tentpole contract).
#[test]
fn recorded_engine_session_replays_byte_for_byte() {
    let dir = temp_dir("engine_replay");
    let mut engine = TenantEngine::new("t0", quick_scenario(7), 2000.0, Some(&dir)).unwrap();

    // Let real wall time leak into the event clock between mutations —
    // replay must be immune to however far the ring got.
    for round in 0..4u32 {
        std::thread::sleep(std::time::Duration::from_millis(3));
        engine.pump(10_000);
        let (vm, _server, _at) = engine.place(None).unwrap();
        engine
            .traffic(&[
                TraceEvent::SetRate {
                    u: 0,
                    v: vm,
                    rate: 1e6 * f64::from(round + 1),
                },
                TraceEvent::ScaleAll { factor: 1.1 },
            ])
            .unwrap();
        engine.flush_trace().unwrap();
        if round % 2 == 1 {
            engine.remove(vm).unwrap();
        }
    }
    let live_report = engine.finish().unwrap();
    assert_eq!(engine.session().ledger_resyncs(), 0, "live run resynced");

    let replayed = replay_dir(&dir.join("t0")).unwrap();
    assert_eq!(replayed, live_report, "replay diverged from the live run");
    // Each of the four scales is in the log as itself — one line, not
    // one `SetRate` per pair.
    let log = std::fs::read_to_string(dir.join("t0").join("trace.jsonl")).unwrap();
    assert_eq!(log.matches("\"ScaleAll\"").count(), 4);
    assert_eq!(
        log.matches("\"SetRate\"").count(),
        4 + 2,
        "4 re-rates, 2 departures"
    );
    // The persisted report is the same bytes.
    let on_disk = std::fs::read_to_string(dir.join("t0").join("report.json")).unwrap();
    assert_eq!(on_disk, live_report);
    std::fs::remove_dir_all(&dir).ok();
}

/// A finite scale factor can still overflow `rate × factor`. The
/// daemon's lowering saturates at `f64::MAX` like the trace compiler's
/// and the session's, so the event applies whole (an `inf` re-rate would
/// be rejected mid-event, leaving the pairs before it applied and
/// recorded) and the recorded stream still replays byte for byte.
#[test]
fn overflowing_scale_saturates_instead_of_tearing_the_event() {
    let scenario = quick_scenario(17);
    let mut engine = TenantEngine::new("t0", scenario.clone(), 2000.0, None).unwrap();
    engine.pump(200);
    let pairs = engine.session().traffic().num_pairs() as u64;
    // Guarantee at least one product beyond f64::MAX, whatever the TM.
    engine
        .traffic(&[TraceEvent::SetRate {
            u: 0,
            v: 1,
            rate: 1e9,
        }])
        .unwrap();
    let applied = engine
        .traffic(&[TraceEvent::ScaleAll { factor: 1e300 }])
        .expect("a valid factor must answer Applied");
    assert!(applied.pairs_changed >= pairs);
    let hot = engine
        .session()
        .traffic()
        .rate(score_topology::VmId::new(0), score_topology::VmId::new(1));
    assert_eq!(hot, f64::MAX);
    let scaled = engine
        .traffic(&[TraceEvent::ScalePair {
            u: 0,
            v: 1,
            factor: 1e300,
        }])
        .expect("saturated rates are a fixpoint");
    assert_eq!(scaled.pairs_changed, 0);
    engine.pump(200);

    let live = engine.finish().unwrap();
    let trace = engine.session().recorded_trace().unwrap();
    let replayed = replay_trace(&scenario, &trace).unwrap();
    assert_eq!(canonical_report_json(&replayed), live);
}

/// One rule for a `ScaleAll` factor, everywhere: what `Trace::validate`
/// refuses, the session and the daemon refuse too — before anything is
/// applied or recorded. (Accepting `0` here once meant a live request
/// could write a `trace.jsonl` no loader would take back.)
#[test]
fn invalid_scale_factors_are_refused_identically_everywhere() {
    let scenario = quick_scenario(19);
    let mut engine = TenantEngine::new("t0", scenario.clone(), 2000.0, None).unwrap();
    engine.pump(200);
    engine
        .traffic(&[TraceEvent::ScaleAll { factor: 1.25 }])
        .unwrap();
    let before = engine.report_json();
    let recorded = engine.session().recorded_trace().unwrap();
    for bad in [0.0, -0.0, -2.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let event = TraceEvent::ScaleAll { factor: bad };
        // The trace layer …
        assert!(event.check_payload().is_err(), "{bad}");
        assert!(score_trace::Trace::builder(4, 10.0)
            .event(1.0, event.clone())
            .build()
            .is_err());
        // … the daemon, even when a valid event leads the request …
        let valid = TraceEvent::SetRate {
            u: 0,
            v: 1,
            rate: 3e6,
        };
        assert!(engine.traffic(&[valid, event.clone()]).is_err(), "{bad}");
        // … and a bare session.
        let mut session = scenario.session().unwrap();
        assert!(session.apply_trace_event(&event).is_err(), "{bad}");
        assert!(session.apply_traffic_scale(bad).is_err(), "{bad}");
        assert_eq!(session.trace_stats().events_applied, 0);
    }
    assert_eq!(
        engine.report_json(),
        before,
        "a refused request changed the tenant"
    );
    assert_eq!(engine.session().recorded_trace().unwrap(), recorded);
    let live = engine.finish().unwrap();
    let replayed = replay_trace(&scenario, &engine.session().recorded_trace().unwrap()).unwrap();
    assert_eq!(canonical_report_json(&replayed), live);
}

/// Recordings made before a `ScaleAll` was recorded as itself hold one
/// `SetRate` per pair in its place. Such a log still loads, replays byte
/// for byte, and revives a crashed tenant.
#[test]
fn set_rate_only_recordings_still_replay_and_recover() {
    let dir = temp_dir("legacy_recording");
    let scenario = quick_scenario(29);
    let mut engine = TenantEngine::new("t0", scenario.clone(), 2000.0, Some(&dir)).unwrap();
    for round in 0..3u32 {
        engine.pump(2_000);
        let (vm, _, _) = engine.place(None).unwrap();
        // What the engine used to make of `ScaleAll { factor: 1.1 }`.
        let lowered: Vec<TraceEvent> = engine
            .session()
            .traffic()
            .pairs()
            .iter()
            .map(|&(u, v, r)| TraceEvent::SetRate {
                u: u.get(),
                v: v.get(),
                rate: r * 1.1,
            })
            .chain([TraceEvent::SetRate {
                u: round,
                v: vm,
                rate: 2e6,
            }])
            .collect();
        engine.traffic(&lowered).unwrap();
        engine.flush_trace().unwrap();
    }
    let log = std::fs::read_to_string(dir.join("t0").join("trace.jsonl")).unwrap();
    assert!(!log.contains("Scale"), "this log is the old format");
    let pre_crash = engine.report_json();
    drop(engine); // crash: no finish()

    let mut revived = TenantEngine::new("t0", scenario, 2000.0, Some(&dir)).unwrap();
    assert_eq!(revived.report_json(), pre_crash, "recovery diverged");
    // From here on the tenant speaks the new format over the old log.
    revived
        .traffic(&[TraceEvent::ScaleAll { factor: 0.5 }])
        .unwrap();
    let live = revived.finish().unwrap();
    assert_eq!(replay_dir(&dir.join("t0")).unwrap(), live);
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash recovery: a tenant killed mid-run (artifacts flushed, no
/// `finish`) is rebuilt from its own `trace.jsonl` when re-created over
/// the same record dir, resumes live from the crash boundary, and the
/// continued run still replays byte for byte.
#[test]
fn crashed_tenant_recovers_from_its_own_trace() {
    let dir = temp_dir("crash_recovery");
    let scenario = quick_scenario(13);
    let mut engine = TenantEngine::new("t0", scenario.clone(), 2000.0, Some(&dir)).unwrap();
    let mut placed = Vec::new();
    for round in 0..3u32 {
        std::thread::sleep(std::time::Duration::from_millis(2));
        engine.pump(10_000);
        let (vm, _server, _at) = engine.place(None).unwrap();
        placed.push(vm);
        engine
            .traffic(&[TraceEvent::SetRate {
                u: 0,
                v: vm,
                rate: 5e5 * f64::from(round + 1),
            }])
            .unwrap();
        engine.flush_trace().unwrap();
    }
    let pre_crash_cost = engine.session().current_cost();
    let pre_crash_now = engine.session().now_s();
    // "Crash": drop the engine without finish(); artifacts stay behind.
    drop(engine);

    let mut revived = TenantEngine::new("t0", scenario.clone(), 2000.0, Some(&dir)).unwrap();
    assert_eq!(revived.session().now_s(), pre_crash_now, "clock re-anchors");
    assert_eq!(
        revived.session().current_cost(),
        pre_crash_cost,
        "recovered state must be the crashed state, bit for bit"
    );
    assert_eq!(revived.session().ledger_resyncs(), 0);
    // The tenant keeps running and its full (pre+post crash) audit log
    // still replays to the continued run's exact report.
    revived.pump(10_000);
    revived
        .traffic(&[TraceEvent::SetRate {
            u: 0,
            v: placed[0],
            rate: 9e6,
        }])
        .unwrap();
    revived.flush_trace().unwrap();
    let live_report = revived.finish().unwrap();
    let replayed = replay_dir(&dir.join("t0")).unwrap();
    assert_eq!(replayed, live_report, "post-recovery replay diverged");

    // A different scenario under the same name must NOT inherit the old
    // stream: the stale log is set aside and a fresh tenant starts.
    let fresh = TenantEngine::new("t0", quick_scenario(14), 2000.0, Some(&dir)).unwrap();
    assert_eq!(fresh.session().now_s(), 0.0);
    assert!(dir.join("t0").join("trace.jsonl.stale").is_file());
    std::fs::remove_dir_all(&dir).ok();
}

/// Drives one request line and returns the response line.
fn roundtrip(reader: &mut BufReader<UnixStream>, writer: &mut UnixStream, req: &str) -> Response {
    writer.write_all(req.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    serde_json::from_str(&line).unwrap()
}

/// End to end over a Unix socket: malformed lines get structured errors
/// without dropping the connection, mutations flow, a subscriber sees
/// the stream, shutdown drains, and the recorded artifacts replay to
/// the daemon's own final report.
#[test]
fn daemon_serves_mutations_and_replays_over_a_unix_socket() {
    let dir = temp_dir("daemon_e2e");
    let socket = dir.join("scored.sock");
    let record_dir = dir.join("records");
    let daemon = Daemon::bind(DaemonConfig {
        scenario: quick_scenario(11),
        unix_socket: Some(socket.clone()),
        tcp_addr: None,
        rate: 500.0,
        record_dir: Some(record_dir.clone()),
    })
    .unwrap();
    let server = std::thread::spawn(move || daemon.run());

    let stream = UnixStream::connect(&socket).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // A subscriber on its own connection, same (default) tenant.
    let sub_stream = UnixStream::connect(&socket).unwrap();
    let mut sub_writer = sub_stream.try_clone().unwrap();
    let mut sub_reader = BufReader::new(sub_stream);
    match roundtrip(&mut sub_reader, &mut sub_writer, "\"Subscribe\"") {
        Response::Subscribed { tenant } => assert_eq!(tenant, "default"),
        other => panic!("expected Subscribed, got {other:?}"),
    }

    // Malformed input: structured error, connection survives.
    match roundtrip(&mut reader, &mut writer, "this is not json") {
        Response::Error { code, .. } => assert_eq!(code, "parse"),
        other => panic!("expected a parse error, got {other:?}"),
    }

    let vm = match roundtrip(&mut reader, &mut writer, r#"{"Place": {}}"#) {
        Response::Placed { vm, .. } => vm,
        other => panic!("expected Placed, got {other:?}"),
    };
    let traffic = serde_json::to_string(&Request::Traffic {
        events: vec![TraceEvent::SetRate {
            u: 0,
            v: vm,
            rate: 5e6,
        }],
    })
    .unwrap();
    match roundtrip(&mut reader, &mut writer, &traffic) {
        Response::Applied { pairs_changed, .. } => assert_eq!(pairs_changed, 1),
        other => panic!("expected Applied, got {other:?}"),
    }
    // A traffic event naming a dead pair: structured error, connection
    // survives and keeps serving.
    let bad = serde_json::to_string(&Request::Traffic {
        events: vec![TraceEvent::ScalePair {
            u: 0,
            v: 0,
            factor: 2.0,
        }],
    })
    .unwrap();
    match roundtrip(&mut reader, &mut writer, &bad) {
        Response::Error { code, .. } => assert_eq!(code, "bad-event"),
        other => panic!("expected bad-event, got {other:?}"),
    }
    // So does a uniform scale by zero (it used to erase every pair); a
    // valid one applies to every pair and is logged as one event.
    for refused in [
        r#"{"ScaleAll": {"factor": 0}}"#,
        r#"{"ScaleAll": {"factor": -1.5}}"#,
    ] {
        let req = format!(r#"{{"Traffic": {{"events": [{refused}]}}}}"#);
        match roundtrip(&mut reader, &mut writer, &req) {
            Response::Error { code, .. } => assert_eq!(code, "bad-event"),
            other => panic!("expected bad-event, got {other:?}"),
        }
    }
    let scale = r#"{"Traffic": {"events": [{"ScaleAll": {"factor": 1.5}}]}}"#;
    match roundtrip(&mut reader, &mut writer, scale) {
        Response::Applied { pairs_changed, .. } => assert!(pairs_changed > 1),
        other => panic!("expected Applied, got {other:?}"),
    }
    match roundtrip(&mut reader, &mut writer, "\"Report\"") {
        Response::Report { json } => assert!(json.contains("\"final_cost\"") || !json.is_empty()),
        other => panic!("expected Report, got {other:?}"),
    }

    // The subscriber saw the placement: trace line(s), the mutation
    // response, then a refreshed report.
    let mut saw_trace = false;
    let mut saw_placed = false;
    for _ in 0..8 {
        let mut line = String::new();
        sub_reader.read_line(&mut line).unwrap();
        match serde_json::from_str::<Response>(&line).unwrap() {
            Response::Trace { .. } => saw_trace = true,
            Response::Placed { vm: v, .. } => {
                assert_eq!(v, vm);
                saw_placed = true;
                break;
            }
            Response::Report { .. } | Response::Applied { .. } => {}
            other => panic!("unexpected subscriber line: {other:?}"),
        }
    }
    assert!(
        saw_trace && saw_placed,
        "subscriber missed the mutation stream"
    );

    // An observer joining after those mutations is streamed every later
    // audit-log line exactly once: the engine resumes from its cursor,
    // it neither replays the history nor re-sends a line per broadcast.
    drop((sub_reader, sub_writer));
    let late_stream = UnixStream::connect(&socket).unwrap();
    let mut late_writer = late_stream.try_clone().unwrap();
    let mut late_reader = BufReader::new(late_stream);
    match roundtrip(&mut late_reader, &mut late_writer, "\"Subscribe\"") {
        Response::Subscribed { .. } => {}
        other => panic!("expected Subscribed, got {other:?}"),
    }
    let mut late_lines = Vec::new();
    for _ in 0..3 {
        match roundtrip(&mut reader, &mut writer, r#"{"Place": {}}"#) {
            Response::Placed { .. } => {}
            other => panic!("expected Placed, got {other:?}"),
        }
        // A broadcast is trace line(s), the response, then the report.
        loop {
            let mut line = String::new();
            late_reader.read_line(&mut line).unwrap();
            match serde_json::from_str::<Response>(&line).unwrap() {
                Response::Trace { line } => late_lines.push(line),
                Response::Placed { .. } => {}
                Response::Report { .. } => break,
                other => panic!("unexpected subscriber line: {other:?}"),
            }
        }
    }
    assert_eq!(late_lines.len(), 3, "one line per later mutation");

    let final_report = match roundtrip(&mut reader, &mut writer, "\"Shutdown\"") {
        Response::ShuttingDown => {
            // The daemon's persisted report is the authority.
            server.join().unwrap();
            std::fs::read_to_string(record_dir.join("default").join("report.json")).unwrap()
        }
        other => panic!("expected ShuttingDown, got {other:?}"),
    };
    let replayed = replay_dir(&record_dir.join("default")).unwrap();
    assert_eq!(
        replayed, final_report,
        "replaying the daemon's recorded session diverged from its own final report"
    );
    let log = std::fs::read_to_string(record_dir.join("default").join("trace.jsonl")).unwrap();
    assert_eq!(
        log.matches("\"ScaleAll\"").count(),
        1,
        "one scale, one line"
    );
    assert_eq!(log.matches("\"SetRate\"").count(), 1, "no per-pair flood");
    let logged: Vec<&str> = log.lines().collect();
    assert_eq!(
        logged[logged.len() - late_lines.len()..],
        late_lines,
        "the late subscriber's stream is the tail of the audit log"
    );
    assert!(!socket.exists(), "shutdown must remove the socket file");
    std::fs::remove_dir_all(&dir).ok();
}

/// A line nested a hundred thousand levels deep used to overflow the
/// worker's stack and abort the whole daemon; now it is one more `parse`
/// error, as is a `Place` whose payload is not an object (which used to
/// place a VM), and the connection goes on serving.
#[test]
fn hostile_lines_get_parse_errors_and_the_connection_lives() {
    let dir = temp_dir("daemon_hostile");
    let socket = dir.join("scored.sock");
    let daemon = Daemon::bind(DaemonConfig {
        scenario: quick_scenario(13),
        unix_socket: Some(socket.clone()),
        tcp_addr: None,
        rate: 500.0,
        record_dir: None,
    })
    .unwrap();
    let server = std::thread::spawn(move || daemon.run());
    let stream = UnixStream::connect(&socket).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let deep_array = "[".repeat(100_000);
    let deep_object = r#"{"Place":"#.repeat(100_000);
    let deep_payload = format!(r#"{{"Place":{{"note":{}}}}}"#, "[".repeat(100_000));
    for hostile in [
        deep_array.as_str(),
        deep_object.as_str(),
        deep_payload.as_str(),
        r#"{"Place": 7}"#,
        r#"{"Place": "rack-3"}"#,
        r#"{"Place": [1]}"#,
    ] {
        match roundtrip(&mut reader, &mut writer, hostile) {
            Response::Error { code, .. } => assert_eq!(code, "parse"),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
    // None of those placed anything: the next id is the first free one.
    let num_vms = quick_scenario(13).session().unwrap().traffic().num_vms();
    match roundtrip(&mut reader, &mut writer, r#"{"Place": {}}"#) {
        Response::Placed { vm, .. } => assert_eq!(vm, num_vms),
        other => panic!("expected Placed, got {other:?}"),
    }
    match roundtrip(&mut reader, &mut writer, "\"Shutdown\"") {
        Response::ShuttingDown => server.join().unwrap(),
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A line is read into a bounded buffer: 16 MiB without a newline is
/// dropped through its newline and answered `too-long` (the daemon used to
/// grow one string for as long as the client kept sending), a line that
/// is not UTF-8 is a `parse` error (it used to end the connection), and
/// the same connection then places a VM. The recording replays byte for
/// byte: neither refused line reached the audit log.
#[test]
fn oversized_and_non_utf8_lines_are_answered_on_the_same_connection() {
    let dir = temp_dir("daemon_bounded_lines");
    let socket = dir.join("scored.sock");
    let record_dir = dir.join("records");
    let daemon = Daemon::bind(DaemonConfig {
        scenario: quick_scenario(19),
        unix_socket: Some(socket.clone()),
        tcp_addr: None,
        rate: 500.0,
        record_dir: Some(record_dir.clone()),
    })
    .unwrap();
    let server = std::thread::spawn(move || daemon.run());
    let stream = UnixStream::connect(&socket).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let huge = "x".repeat(16 << 20);
    match roundtrip(&mut reader, &mut writer, &huge) {
        Response::Error { code, .. } => assert_eq!(code, "too-long"),
        other => panic!("expected too-long, got {other:?}"),
    }
    drop(huge);
    writer.write_all(b"{\"Place\": {\xff\xfe}}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match serde_json::from_str::<Response>(&line).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, "parse"),
        other => panic!("expected a parse error, got {other:?}"),
    }
    let num_vms = quick_scenario(19).session().unwrap().traffic().num_vms();
    match roundtrip(&mut reader, &mut writer, r#"{"Place": {}}"#) {
        Response::Placed { vm, .. } => assert_eq!(vm, num_vms),
        other => panic!("expected Placed, got {other:?}"),
    }
    match roundtrip(&mut reader, &mut writer, "\"Shutdown\"") {
        Response::ShuttingDown => server.join().unwrap(),
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    let tenant = record_dir.join("default");
    let final_report = std::fs::read_to_string(tenant.join("report.json")).unwrap();
    assert_eq!(replay_dir(&tenant).unwrap(), final_report);
    std::fs::remove_dir_all(&dir).ok();
}

/// Observability end to end: a paced daemon answers `Stats` with a
/// live registry snapshot (nonzero decision-latency histogram, journal
/// tail), exposes the same registry in Prometheus text format to an
/// HTTP `GET` line on the same listener, and a hung-up subscriber is
/// counted — not silently forgotten.
#[test]
fn daemon_serves_stats_and_prometheus_metrics() {
    let dir = temp_dir("daemon_obs");
    let socket = dir.join("scored.sock");
    let daemon = Daemon::bind(DaemonConfig {
        scenario: quick_scenario(23),
        unix_socket: Some(socket.clone()),
        tcp_addr: None,
        rate: 2000.0,
        record_dir: None,
    })
    .unwrap();
    let server = std::thread::spawn(move || daemon.run());

    let stream = UnixStream::connect(&socket).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // A subscriber that hangs up immediately: its next broadcast must
    // land in the dropped counter.
    {
        let sub = UnixStream::connect(&socket).unwrap();
        let mut sub_writer = sub.try_clone().unwrap();
        let mut sub_reader = BufReader::new(sub);
        match roundtrip(&mut sub_reader, &mut sub_writer, "\"Subscribe\"") {
            Response::Subscribed { .. } => {}
            other => panic!("expected Subscribed, got {other:?}"),
        }
        // Dropping both halves closes the socket.
    }

    match roundtrip(&mut reader, &mut writer, r#"{"Place": {}}"#) {
        Response::Placed { .. } => {}
        other => panic!("expected Placed, got {other:?}"),
    }
    // Let the pacer advance the ring so decisions accumulate.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let stats = match roundtrip(&mut reader, &mut writer, "\"Stats\"") {
        Response::Stats { json } => json,
        other => panic!("expected Stats, got {other:?}"),
    };
    let v = serde_json::parse_value_str(&stats).expect("stats is valid JSON");
    let metrics = serde::field(v.as_object().unwrap(), "metrics").unwrap();
    let hists = serde::field(metrics.as_object().unwrap(), "histograms").unwrap();
    let decision = hists
        .as_object()
        .unwrap()
        .iter()
        .find(|(k, _)| k.starts_with("score_decision_latency_ns"))
        .map(|(_, v)| v)
        .expect("decision-latency histogram in the snapshot");
    let count = serde::field(decision.as_object().unwrap(), "count")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(count > 0.0, "no decisions recorded: {stats}");
    let p50 = serde::field(decision.as_object().unwrap(), "p50")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(p50 > 0.0, "decision latency p50 must be nonzero: {stats}");
    assert!(
        serde::field(v.as_object().unwrap(), "journal")
            .unwrap()
            .as_array()
            .is_some_and(|j| !j.is_empty()),
        "journal tail missing from Stats"
    );
    // The dead subscriber was dropped and counted during the Place
    // broadcast (counters live in the same snapshot).
    let counters = serde::field(metrics.as_object().unwrap(), "counters").unwrap();
    let dropped: f64 = counters
        .as_object()
        .unwrap()
        .iter()
        .filter(|(k, _)| k.starts_with("scored_subscribers_dropped_total"))
        .filter_map(|(_, v)| v.as_f64())
        .sum();
    assert!(
        dropped >= 1.0,
        "hung-up subscriber was not counted: {stats}"
    );

    // Prometheus exposition: an HTTP GET line on the same listener.
    {
        let http = UnixStream::connect(&socket).unwrap();
        let mut http_writer = http.try_clone().unwrap();
        http_writer
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .unwrap();
        http_writer.flush().unwrap();
        let mut body = String::new();
        use std::io::Read as _;
        BufReader::new(http).read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.0 200 OK"), "bad status: {body}");
        assert!(body.contains("# TYPE"), "no TYPE lines: {body}");
        assert!(
            body.contains("score_decision_latency_ns_count"),
            "histogram family missing from exposition: {body}"
        );
        assert!(
            body.contains("scored_requests_total"),
            "request counters missing from exposition: {body}"
        );
    }

    match roundtrip(&mut reader, &mut writer, "\"Shutdown\"") {
        Response::ShuttingDown => server.join().unwrap(),
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Adversity at the engine level: a tenant that took a host crash and a
/// link degradation, then "crashed" itself (no `finish`), is rebuilt
/// from its own `trace.jsonl` bit for bit — the audit log holds only
/// the fault events, and recovery re-derives every evacuation.
#[test]
fn crashed_tenant_with_faults_recovers_byte_for_byte() {
    let dir = temp_dir("fault_crash_recovery");
    let scenario = quick_scenario(29);
    let mut engine = TenantEngine::new("t0", scenario.clone(), 2000.0, Some(&dir)).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(2));
    engine.pump(10_000);
    let (vm, _server, _at) = engine.place(None).unwrap();
    engine
        .traffic(&[TraceEvent::SetRate {
            u: 0,
            v: vm,
            rate: 4e6,
        }])
        .unwrap();
    // Crash the server hosting vm0 plus a tier-0 degradation.
    let victim = engine
        .session()
        .cluster()
        .allocation()
        .server_of(score_topology::VmId::new(0))
        .get();
    let faulted = engine
        .fault(&[
            TraceEvent::HostCrash { server: victim },
            TraceEvent::LinkDegrade {
                tier: 0,
                factor: 0.5,
            },
        ])
        .unwrap();
    assert_eq!(faulted.hosts_failed, 1);
    assert!(faulted.evacuations >= 1, "vm0's host held at least vm0");
    // Non-fault events on the fault path are rejected up front.
    assert!(engine
        .fault(&[TraceEvent::ScaleAll { factor: 2.0 }])
        .is_err());
    engine.flush_trace().unwrap();

    let pre_crash_cost = engine.session().current_cost();
    let pre_crash_now = engine.session().now_s();
    drop(engine); // "crash": artifacts flushed, no finish()

    let mut revived = TenantEngine::new("t0", scenario, 2000.0, Some(&dir)).unwrap();
    assert_eq!(revived.session().now_s(), pre_crash_now);
    assert_eq!(
        revived.session().current_cost(),
        pre_crash_cost,
        "recovered adversity state must be the crashed state, bit for bit"
    );
    assert_eq!(revived.session().ledger_resyncs(), 0);
    assert!(!revived
        .session()
        .cluster()
        .host_is_up(score_topology::ServerId::new(victim)));
    assert_eq!(revived.session().degraded_tiers(), vec![(0, 0.5)]);

    // The continued run (including the recovery stats) still replays
    // byte for byte from the combined audit log.
    let live_report = revived.finish().unwrap();
    assert!(live_report.contains("\"recovery\""));
    let replayed = replay_dir(&dir.join("t0")).unwrap();
    assert_eq!(replayed, live_report, "post-fault replay diverged");
    std::fs::remove_dir_all(&dir).ok();
}

/// Adversity over the socket: a `Fault` request crashes a rack at a
/// drained boundary, the subscriber sees the fault line and the
/// `Faulted` broadcast, `Stats` carries nonzero `score_recovery_*`
/// series, and the recorded artifacts (faults included) replay to the
/// daemon's own final report byte for byte.
#[test]
fn daemon_injects_faults_and_replays_them() {
    let dir = temp_dir("daemon_faults");
    let socket = dir.join("scored.sock");
    let record_dir = dir.join("records");
    let daemon = Daemon::bind(DaemonConfig {
        scenario: quick_scenario(31),
        unix_socket: Some(socket.clone()),
        tcp_addr: None,
        rate: 500.0,
        record_dir: Some(record_dir.clone()),
    })
    .unwrap();
    let server = std::thread::spawn(move || daemon.run());

    let stream = UnixStream::connect(&socket).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let sub_stream = UnixStream::connect(&socket).unwrap();
    let mut sub_writer = sub_stream.try_clone().unwrap();
    let mut sub_reader = BufReader::new(sub_stream);
    match roundtrip(&mut sub_reader, &mut sub_writer, "\"Subscribe\"") {
        Response::Subscribed { .. } => {}
        other => panic!("expected Subscribed, got {other:?}"),
    }

    // A whole-rack failure: with the initial placement spread over the
    // fabric, rack 0 is guaranteed to carry VMs to evacuate.
    let fault = serde_json::to_string(&Request::Fault {
        events: vec![TraceEvent::RackFail { rack: 0 }],
    })
    .unwrap();
    let (hosts_failed, evacuations) = match roundtrip(&mut reader, &mut writer, &fault) {
        Response::Faulted {
            events,
            hosts_failed,
            evacuations,
            unplaceable,
            ..
        } => {
            assert_eq!(events, 1);
            assert_eq!(
                evacuations + unplaceable,
                evacuations,
                "small rack never fills the fabric"
            );
            (hosts_failed, evacuations)
        }
        other => panic!("expected Faulted, got {other:?}"),
    };
    assert!(hosts_failed >= 1, "rack 0 has live hosts");
    assert!(evacuations >= 1, "rack 0 carried VMs");

    // Mixing fault and non-fault events is a structured error.
    let bad = serde_json::to_string(&Request::Fault {
        events: vec![TraceEvent::ScaleAll { factor: 2.0 }],
    })
    .unwrap();
    match roundtrip(&mut reader, &mut writer, &bad) {
        Response::Error { code, .. } => assert_eq!(code, "bad-event"),
        other => panic!("expected bad-event, got {other:?}"),
    }

    // The subscriber saw the fault's audit line and the broadcast.
    let mut saw_fault_line = false;
    let mut saw_faulted = false;
    for _ in 0..8 {
        let mut line = String::new();
        sub_reader.read_line(&mut line).unwrap();
        match serde_json::from_str::<Response>(&line).unwrap() {
            Response::Trace { line } => {
                if line.contains("RackFail") {
                    saw_fault_line = true;
                }
            }
            Response::Faulted { .. } => {
                saw_faulted = true;
                break;
            }
            Response::Report { .. } => {}
            other => panic!("unexpected subscriber line: {other:?}"),
        }
    }
    assert!(
        saw_fault_line && saw_faulted,
        "subscriber missed the fault stream"
    );

    // Let the pacer cross Sample ticks so the recovery series publish.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let stats = match roundtrip(&mut reader, &mut writer, "\"Stats\"") {
        Response::Stats { json } => json,
        other => panic!("expected Stats, got {other:?}"),
    };
    let v = serde_json::parse_value_str(&stats).expect("stats is valid JSON");
    let metrics = serde::field(v.as_object().unwrap(), "metrics").unwrap();
    let counters = serde::field(metrics.as_object().unwrap(), "counters").unwrap();
    let faults_total: f64 = counters
        .as_object()
        .unwrap()
        .iter()
        .filter(|(k, _)| k.starts_with("score_recovery_faults_total"))
        .filter_map(|(_, v)| v.as_f64())
        .sum();
    assert!(faults_total >= 1.0, "no recovery faults in Stats: {stats}");
    let evac_total: f64 = counters
        .as_object()
        .unwrap()
        .iter()
        .filter(|(k, _)| k.starts_with("score_recovery_evacuations_total"))
        .filter_map(|(_, v)| v.as_f64())
        .sum();
    assert!(
        evac_total >= 1.0,
        "no recovery evacuations in Stats: {stats}"
    );
    let gauges = serde::field(metrics.as_object().unwrap(), "gauges").unwrap();
    let hosts_down: f64 = gauges
        .as_object()
        .unwrap()
        .iter()
        .filter(|(k, _)| k.starts_with("score_recovery_hosts_down"))
        .filter_map(|(_, v)| v.as_f64())
        .sum();
    assert!(
        hosts_down as u32 == hosts_failed,
        "hosts_down gauge {hosts_down} != {hosts_failed} failed hosts: {stats}"
    );

    // Shutdown: the persisted artifacts (fault included) replay to the
    // daemon's own final report.
    let final_report = match roundtrip(&mut reader, &mut writer, "\"Shutdown\"") {
        Response::ShuttingDown => {
            server.join().unwrap();
            std::fs::read_to_string(record_dir.join("default").join("report.json")).unwrap()
        }
        other => panic!("expected ShuttingDown, got {other:?}"),
    };
    assert!(final_report.contains("\"recovery\""));
    let replayed = replay_dir(&record_dir.join("default")).unwrap();
    assert_eq!(
        replayed, final_report,
        "replaying the daemon's adversity session diverged from its own final report"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// At most 256 connections are served at once. With 256 held open (each
/// answered once, so each is being served), the 257th reads one `busy`
/// line and is closed; once one of the 256 hangs up, a new connection is
/// served again. The test process holds both ends of every connection,
/// about 1,030 descriptors.
#[test]
fn connections_past_the_cap_are_answered_busy() {
    let dir = temp_dir("daemon_connection_cap");
    let socket = dir.join("scored.sock");
    let daemon = Daemon::bind(DaemonConfig {
        scenario: quick_scenario(37),
        unix_socket: Some(socket.clone()),
        tcp_addr: None,
        rate: 500.0,
        record_dir: None,
    })
    .unwrap();
    let server = std::thread::spawn(move || daemon.run());
    // Sends `req` (write errors ignored: a refused connection may already
    // be closed) and reads one response line.
    let ask = |mut stream: &UnixStream, req: &str| {
        let _ = stream.write_all(format!("{req}\n").as_bytes());
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        serde_json::from_str::<Response>(&line).unwrap()
    };
    let mut held: Vec<UnixStream> = (0..256)
        .map(|_| {
            let stream = UnixStream::connect(&socket).unwrap();
            match ask(&stream, "\"Stats\"") {
                Response::Stats { .. } => stream,
                other => panic!("expected Stats, got {other:?}"),
            }
        })
        .collect();

    let refused = UnixStream::connect(&socket).unwrap();
    // Served instead of refused, it would wait for a request forever.
    refused
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut line = String::new();
    let mut reader = BufReader::new(&refused);
    reader.read_line(&mut line).unwrap();
    match serde_json::from_str::<Response>(&line).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, "busy"),
        other => panic!("expected busy, got {other:?}"),
    }
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "busy closes");

    // One hangs up; its slot frees as soon as its thread sees EOF.
    drop(held.pop());
    let mut served = None;
    for _ in 0..500 {
        let stream = UnixStream::connect(&socket).unwrap();
        match ask(&stream, "\"Stats\"") {
            Response::Stats { .. } => {
                served = Some(stream);
                break;
            }
            Response::Error { code, .. } if code == "busy" => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            other => panic!("expected Stats or busy, got {other:?}"),
        }
    }
    let served = served.expect("a freed slot serves the next connection");
    match ask(&served, "\"Shutdown\"") {
        Response::ShuttingDown => server.join().unwrap(),
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `response_line` is what the daemon writes; sanity-pin the shape once
/// at the integration level too.
#[test]
fn responses_serialize_as_single_lines() {
    let line = response_line(&Response::Paused { at_s: 1.25 });
    assert!(!line.contains('\n'));
    assert!(line.contains("Paused"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite: pause → mutate → resume determinism. Arbitrary
    /// interleavings of pacing noise, pauses, and mutations on a live
    /// engine must stay equivalent to a batch replay of the recorded
    /// stream — byte-for-byte report equality, zero resyncs on both
    /// sides.
    #[test]
    fn paused_and_paced_mutations_replay_identically(
        seed in 0u64..1_000,
        ops in prop::collection::vec((0u8..5, 0u32..40, 1u32..100), 1..16),
    ) {
        let dir = temp_dir(&format!("prop_{seed}"));
        let mut engine =
            TenantEngine::new("p", quick_scenario(seed), 5_000.0, Some(&dir)).unwrap();
        let mut live = Vec::new();
        for (kind, vm_pick, rate_pick) in ops {
            match kind {
                0 => {
                    if let Ok((vm, _, _)) = engine.place(None) {
                        live.push(vm);
                    }
                }
                1 => {
                    if !live.is_empty() {
                        let vm = live.remove(vm_pick as usize % live.len());
                        engine.remove(vm).unwrap();
                    }
                }
                2 => {
                    if let Some(&vm) = live.first() {
                        engine.traffic(&[TraceEvent::SetRate {
                            u: 0,
                            v: vm,
                            rate: f64::from(rate_pick) * 1e5,
                        }]).unwrap_or_else(|e| panic!("traffic: {e}"));
                    }
                }
                3 => { engine.pause(); }
                _ => {
                    engine.resume();
                    engine.pump(rate_pick as usize * 8);
                }
            }
            prop_assert_eq!(engine.session().ledger_resyncs(), 0);
        }
        let live_report = engine.finish().unwrap();
        prop_assert_eq!(engine.session().ledger_resyncs(), 0);
        let replayed = replay_dir(&dir.join("p")).unwrap();
        prop_assert_eq!(replayed, live_report);
        std::fs::remove_dir_all(&dir).ok();
    }
}
