//! Property-based tests for trace replay semantics.
//!
//! Three invariants pin the trace subsystem to the pre-existing machinery:
//!
//! 1. **Piecewise-constant equivalence** — a trace that only changes the
//!    TM at phase markers must reproduce `Session::run_phases` *exactly*
//!    (bit-identical `RunReport`s): the trace path is a strict
//!    generalization, not a reimplementation drifting on its own.
//! 2. **Sparse re-pricing exactness** — any interleaving of mid-run
//!    traffic deltas and token iterations leaves the incremental ledger
//!    within 1e-9 relative of a fresh full Eq.-(2) recomputation, with
//!    zero full-pass resyncs.
//! 3. **Scales are events** — a run driven with `k` uniform scales
//!    among sparse deltas records exactly `k` `ScaleAll` events (never a
//!    per-pair expansion), and replaying the recording reproduces the
//!    live report byte for byte.

use proptest::prelude::*;
use score_sim::{PolicyKind, Scenario, Session, TraceSpec, TrafficPhase, WorkloadSpec};
use score_topology::VmId;
use score_trace::{Trace, TraceEvent};
use score_traffic::{PairTraffic, WorkloadConfig};

const NUM_VMS: u32 = 48;

fn quick_scenario(policy: PolicyKind, seed: u64) -> Scenario {
    let mut s = Scenario::builder()
        .canonical_tree(16, 4)
        .sparse_traffic(seed)
        .policy(policy)
        .build();
    s.seed = seed;
    s.timing.t_end_s = 90.0;
    s.timing.sample_interval_s = 5.0;
    s.timing.token_hold_s = 0.05;
    s.timing.token_pass_s = 0.01;
    s
}

/// The `(u, v, rate)` updates that turn TM `from` into TM `to`.
fn switch_updates(from: &PairTraffic, to: &PairTraffic) -> Vec<(u32, u32, f64)> {
    let mut updates = Vec::new();
    for (u, v, _) in from.pairs() {
        updates.push((u.get(), v.get(), to.rate(u, v)));
    }
    for (u, v, r) in to.pairs() {
        if from.rate(u, v) == 0.0 {
            updates.push((u.get(), v.get(), r));
        }
    }
    updates
}

fn run_phase_session(scenario: &Scenario, tms: &[(f64, PairTraffic)]) -> Vec<score_sim::RunReport> {
    let mut s = scenario.clone();
    s.workload = WorkloadSpec::ExplicitPairs {
        num_vms: NUM_VMS,
        pairs: tms[0]
            .1
            .pairs()
            .iter()
            .map(|&(u, v, r)| (u.get(), v.get(), r))
            .collect(),
        seed: scenario.workload.seed(),
    };
    let mut session = s.session().expect("phase scenario materializes");
    let phases: Vec<TrafficPhase> = tms
        .iter()
        .map(|(d, tm)| TrafficPhase {
            duration_s: *d,
            traffic: tm.clone(),
        })
        .collect();
    session.run_phases(&phases).expect("phases bind")
}

fn run_trace_session(scenario: &Scenario, tms: &[(f64, PairTraffic)]) -> Vec<score_sim::RunReport> {
    let end_s: f64 = tms.iter().map(|(d, _)| d).sum();
    let mut builder = Trace::builder(NUM_VMS, end_s).base_traffic(&tms[0].1);
    let mut t = 0.0;
    for (i, (duration, tm)) in tms.iter().enumerate() {
        if i > 0 {
            builder = builder.marker(t, format!("phase-{i}"));
            for (u, v, rate) in switch_updates(&tms[i - 1].1, tm) {
                builder = builder.set_rate(t, u, v, rate);
            }
        }
        t += duration;
    }
    let trace = builder.build().expect("piecewise trace is valid");
    let mut s = scenario.clone();
    s.workload = WorkloadSpec::Trace {
        spec: TraceSpec::Literal {
            trace,
            seed: scenario.workload.seed(),
        },
    };
    let mut session = s.session().expect("trace scenario materializes");
    session.run_trace().expect("trace replays")
}

/// Applies one update batch and checks the ledger against a fresh
/// recomputation.
fn check_ledger(session: &Session) -> Result<(), String> {
    let fresh = session.cost_model().total_cost(
        session.cluster().allocation(),
        session.traffic(),
        session.cluster().topo(),
    );
    let ledgered = session.current_cost();
    prop_assert!(
        (ledgered - fresh).abs() <= 1e-9 * fresh.abs().max(1.0),
        "ledger {ledgered} vs fresh {fresh}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant 1: piecewise-constant traces ≡ `run_phases`, exactly.
    #[test]
    fn piecewise_trace_reproduces_run_phases(
        seed in 0u64..200,
        tm_seeds in prop::collection::vec(0u64..10_000, 2..4),
        durations in prop::collection::vec(20u32..60, 2..4),
        hlf in 0u8..2,
    ) {
        let policy = if hlf == 1 { PolicyKind::HighestLevelFirst } else { PolicyKind::RoundRobin };
        let scenario = quick_scenario(policy, seed);
        let n = tm_seeds.len().min(durations.len());
        let tms: Vec<(f64, PairTraffic)> = tm_seeds
            .iter()
            .zip(&durations)
            .take(n)
            .map(|(&s, &d)| (f64::from(d), WorkloadConfig::new(NUM_VMS, s).generate()))
            .collect();
        let phase_reports = run_phase_session(&scenario, &tms);
        let trace_reports = run_trace_session(&scenario, &tms);
        prop_assert_eq!(trace_reports, phase_reports);
    }

    /// Invariant 2: sparse deltas interleaved with token holds keep the
    /// ledger exact, with zero full resyncs.
    #[test]
    fn sparse_deltas_stay_exact_under_interleaving(
        seed in 0u64..200,
        ops in prop::collection::vec((0u32..2000, 0u32..2000, 0u32..3, 1.0f64..1e12), 1..24),
    ) {
        let mut session = quick_scenario(PolicyKind::HighestLevelFirst, seed)
            .session()
            .expect("scenario materializes");
        for &(a, b, kind, raw_rate) in &ops {
            let u = VmId::new(a % NUM_VMS);
            let mut v = VmId::new(b % NUM_VMS);
            if u == v {
                v = VmId::new((b + 1) % NUM_VMS);
                if u == v { continue; }
            }
            match kind {
                // Re-rate.
                0 => {
                    session.apply_traffic_deltas(&[(u, v, raw_rate)]).unwrap();
                }
                // Remove.
                1 => {
                    session.apply_traffic_deltas(&[(u, v, 0.0)]).unwrap();
                }
                // Let the token circulate for one iteration.
                _ => {
                    session.run(1);
                }
            }
            check_ledger(&session)?;
        }
        prop_assert_eq!(session.ledger_resyncs(), 0);
        let stats = session.trace_stats();
        prop_assert_eq!(
            stats.events_applied as usize,
            ops.iter().filter(|&&(_, _, k, _)| k < 2).count()
        );
    }

    /// Invariant 3: `k` scales in, `k` `ScaleAll` events recorded, and
    /// the recording replays to the same bytes.
    #[test]
    fn scales_record_as_themselves_and_replay_byte_for_byte(
        seed in 0u64..200,
        hlf in 0u8..2,
        ops in prop::collection::vec((0u32..2000, 0u32..2000, 0u32..4, 0.05f64..8.0), 1..16),
    ) {
        let policy = if hlf == 1 { PolicyKind::HighestLevelFirst } else { PolicyKind::RoundRobin };
        let scenario = quick_scenario(policy, seed);
        let mut live = scenario.session().expect("scenario materializes");
        live.start_trace_recording();
        let mut scales = 0;
        for &(a, b, kind, x) in &ops {
            // Mutations land at drained boundaries, as a live driver's do.
            for _ in 0..(a % 40) {
                live.step();
            }
            live.drain_to_boundary();
            let (u, v) = (a % NUM_VMS, (a + 1 + b % (NUM_VMS - 1)) % NUM_VMS);
            let event = match kind {
                0 => TraceEvent::SetRate { u, v, rate: x * 1e6 },
                // A no-op batch is counted but not recorded; drivers that
                // want call-count parity skip it, as `scored` does.
                1 if live.traffic().rate(VmId::new(u), VmId::new(v)) == 0.0 => continue,
                1 => TraceEvent::SetRate { u, v, rate: 0.0 },
                2 => TraceEvent::ScalePair { u, v, factor: x },
                _ => {
                    scales += 1;
                    TraceEvent::ScaleAll { factor: x }
                }
            };
            live.apply_trace_event(&event).unwrap();
        }
        live.run_to_horizon();
        check_ledger(&live)?;
        prop_assert_eq!(live.ledger_resyncs(), 0);
        let recorded = live.recorded_trace().unwrap();
        let recorded_scales = recorded
            .events()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::ScaleAll { .. }))
            .count();
        prop_assert_eq!(recorded_scales, scales);
        // Everything else in the log is an absolute re-rate: a scale
        // never expands, so the log is at most one event per request.
        prop_assert!(recorded.num_events() <= ops.len());

        let mut replay = scenario.session().expect("scenario materializes");
        replay.run_storm(recorded.events()).unwrap();
        replay.run_to_horizon();
        let canonical = |s: &Session| {
            let mut r = s.report();
            r.trace.apply_ns_total = 0;
            r.trace.apply_ns_max = 0;
            r.to_json()
        };
        prop_assert_eq!(canonical(&replay), canonical(&live));
        prop_assert_eq!(replay.traffic(), live.traffic());
    }
}
