//! Crash recovery of a persisted tenant, and the byte contract of its
//! audit log.
//!
//! A daemon killed in the middle of an append leaves `trace.jsonl` cut at
//! any byte. Re-creating the tenant over such a log must never panic. A
//! log whose header line is whole resumes with exactly the events whose
//! lines end in a newline, at the clock and cost of a fresh session that
//! replays that prefix, with no ledger resync; any other log is set aside
//! as `trace.jsonl.stale` and the tenant starts fresh. A log with one byte
//! flipped ends one of the same two ways.

use score_scored::TenantEngine;
use score_sim::{PolicyKind, Scenario};
use score_trace::{Trace, TraceEvent};
use std::path::{Path, PathBuf};

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
    let dir = std::env::temp_dir().join(format!("scored_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Simulated seconds per wall second, far past the horizon once a
/// millisecond has passed: every `pump` then runs exactly its step budget,
/// so the recorded session is the same on every run.
const RATE: f64 = 1e6;

/// Advances `engine` by exactly `steps` token holds.
fn holds(engine: &mut TenantEngine, steps: usize) {
    std::thread::sleep(std::time::Duration::from_millis(1));
    engine.pump(steps);
}

/// Flushes `engine`'s audit log and checks the flush contract: the file
/// is byte for byte the recording so far, stamped with `end_s`.
fn flush_and_check(engine: &mut TenantEngine, dir: &Path, end_s: f64) {
    engine.flush_trace().unwrap();
    assert_log_is_recording(engine, dir, end_s);
}

fn assert_log_is_recording(engine: &TenantEngine, dir: &Path, end_s: f64) {
    let log = std::fs::read_to_string(dir.join("t").join("trace.jsonl")).unwrap();
    let recorded = engine.session().recorded_trace().unwrap();
    let expected = Trace::new(
        recorded.num_vms(),
        end_s,
        recorded.base().to_vec(),
        recorded.events().to_vec(),
    )
    .unwrap();
    assert_eq!(log, expected.to_jsonl(), "trace.jsonl is not the recording");
}

/// Records a small persisted session — churn, traffic, a fault and a
/// `finish`, then a restart over the artifacts and more mutations after
/// it — checking the flush contract at every step, and returns the bytes
/// of the `trace.jsonl` it leaves.
fn record_session(scenario: &Scenario, base: &Path) -> Vec<u8> {
    let t_end = scenario.timing.t_end_s;
    let mut engine = TenantEngine::new("t", scenario.clone(), RATE, Some(base)).unwrap();
    let mut placed = Vec::new();
    for round in 0..3u32 {
        holds(&mut engine, 30);
        let (vm, _, _) = engine.place(None).unwrap();
        placed.push(vm);
        engine
            .traffic(&[
                TraceEvent::SetRate {
                    u: round,
                    v: vm,
                    rate: 1e6 * f64::from(round + 1),
                },
                TraceEvent::ScaleAll { factor: 1.1 },
            ])
            .unwrap();
        flush_and_check(&mut engine, base, t_end);
    }
    engine
        .fault(&[TraceEvent::LinkDegrade {
            tier: 0,
            factor: 0.5,
        }])
        .unwrap();
    flush_and_check(&mut engine, base, t_end);
    engine.remove(placed[1]).unwrap();
    flush_and_check(&mut engine, base, t_end);
    holds(&mut engine, 30);
    engine.finish().unwrap();
    let true_end = engine.session().now_s();
    assert_log_is_recording(&engine, base, true_end);
    drop(engine);

    let mut revived = TenantEngine::new("t", scenario.clone(), RATE, Some(base)).unwrap();
    assert_log_is_recording(&revived, base, t_end);
    holds(&mut revived, 30);
    let (vm, _, _) = revived.place(None).unwrap();
    revived
        .traffic(&[TraceEvent::SetRate {
            u: placed[0],
            v: vm,
            rate: 7e6,
        }])
        .unwrap();
    flush_and_check(&mut revived, base, t_end);
    revived.remove(placed[0]).unwrap();
    flush_and_check(&mut revived, base, t_end);
    drop(revived); // a crash: no `finish`
    std::fs::read(base.join("t").join("trace.jsonl")).unwrap()
}

/// The flush contract, checked at every step of `record_session`: after
/// any number of `flush_trace` calls the file is byte for byte the
/// recording so far as `TraceRecorder::finish(end_s).to_jsonl()` writes
/// it, stamped with the planned horizon while the tenant lives and with
/// the true end once it has finished.
#[test]
fn a_flushed_log_is_the_recording_byte_for_byte() {
    let base = temp_dir("flush");
    record_session(&quick_scenario(37), &base);
    std::fs::remove_dir_all(&base).ok();
}

/// What re-creating the tenant over `log` did.
enum Outcome {
    /// Recovered: the events of the log it resumed from.
    Resumed(Trace),
    /// The log was set aside and the tenant started fresh.
    Stale,
}

/// Re-creates tenant `t` of `scenario` under `base` over a
/// `trace.jsonl` holding `log`, and checks the invariants every outcome
/// shares: a resumed tenant stands exactly where a fresh session that
/// replays the log it resumed from stands, with no ledger resync; a
/// refused log is kept, byte for byte, as `trace.jsonl.stale`.
fn recreate(scenario: &Scenario, base: &Path, log: &[u8]) -> Outcome {
    let dir = base.join("t");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("scenario.json"), scenario.to_json_pretty()).unwrap();
    std::fs::write(dir.join("trace.jsonl"), log).unwrap();
    let engine = TenantEngine::new("t", scenario.clone(), RATE, Some(base)).unwrap();
    let stale = dir.join("trace.jsonl.stale");
    if stale.exists() {
        assert_eq!(std::fs::read(&stale).unwrap(), log, "the stale log changed");
        assert_eq!(engine.session().now_s(), 0.0, "a refused log starts fresh");
        return Outcome::Stale;
    }
    let resumed = Trace::load(&dir.join("trace.jsonl")).unwrap();
    let mut fresh = scenario.session().unwrap();
    fresh.run_storm(resumed.events()).unwrap();
    assert_eq!(engine.session().now_s(), fresh.now_s(), "clock");
    assert_eq!(
        engine.session().current_cost().to_bits(),
        fresh.current_cost().to_bits(),
        "cost"
    );
    assert_eq!(engine.session().ledger_resyncs(), 0);
    Outcome::Resumed(resumed)
}

/// Every byte offset of a recorded log: a whole header resumes with
/// exactly the whole event lines, anything shorter is set aside.
#[test]
fn a_log_cut_at_any_byte_resumes_its_whole_lines_or_is_set_aside() {
    let base = temp_dir("cut");
    let scenario = quick_scenario(41);
    let log = record_session(&scenario, &base);
    let events = Trace::from_jsonl(std::str::from_utf8(&log).unwrap())
        .unwrap()
        .events()
        .to_vec();
    assert!(events.len() >= 10, "the session records {}", events.len());
    let (mut resumed, mut stale) = (0, 0);
    for cut in 0..=log.len() {
        let prefix = &log[..cut];
        let whole_lines = prefix.iter().filter(|&&b| b == b'\n').count();
        match recreate(&scenario, &base, prefix) {
            Outcome::Resumed(trace) => {
                assert!(whole_lines >= 1, "cut {cut}: resumed without a header");
                assert_eq!(trace.events(), &events[..whole_lines - 1], "cut {cut}");
                resumed += 1;
            }
            Outcome::Stale => {
                assert_eq!(whole_lines, 0, "cut {cut}: a whole header was set aside");
                stale += 1;
            }
        }
    }
    assert!(resumed > 0 && stale > 0);
    std::fs::remove_dir_all(&base).ok();
}

/// Sampled single-byte flips of a recorded log: never a panic, and the
/// tenant either resumes where the log it resumed from leads or sets the
/// log aside.
#[test]
fn a_log_with_a_flipped_byte_resumes_or_is_set_aside() {
    let base = temp_dir("flip");
    let scenario = quick_scenario(43);
    let log = record_session(&scenario, &base);
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let (mut resumed, mut stale) = (0, 0);
    for _ in 0..300 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let at = (state >> 33) as usize % log.len();
        let mask = 1u8 << ((state >> 29) % 8);
        let mut flipped = log.clone();
        flipped[at] ^= mask;
        match recreate(&scenario, &base, &flipped) {
            Outcome::Resumed(_) => resumed += 1,
            Outcome::Stale => stale += 1,
        }
    }
    assert!(stale > 0, "no flip was refused ({resumed} resumed)");
    std::fs::remove_dir_all(&base).ok();
}
