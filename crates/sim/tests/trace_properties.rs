//! Property-based tests for trace replay semantics.
//!
//! Four invariants pin the trace subsystem to the pre-existing machinery:
//!
//! 1. **A piecewise trace is one run** — at each boundary of a
//!    [`Trace::piecewise`] trace the session's TM is the phase's, pair for
//!    pair, the ledger is exact, and the allocation is never reset: it is
//!    the opening placement moved by exactly the migrations reported.
//! 2. **Sparse re-pricing exactness** — any interleaving of mid-run
//!    traffic deltas and token iterations leaves the incremental ledger
//!    within 1e-9 relative of a fresh full Eq.-(2) recomputation.
//! 3. **Scales are events** — a run driven with `k` uniform scales
//!    among sparse deltas records exactly `k` `ScaleAll` events (never a
//!    per-pair expansion), and replaying the recording reproduces the
//!    live report byte for byte.
//! 4. **A marker is a label** — markers inserted anywhere leave the
//!    compiled trace bit for bit as it was, and the report bytes of both
//!    replay paths (a trace scenario, and the raw events through
//!    `Session::run_storm`) unchanged.

use proptest::prelude::*;
use score_sim::{PolicyKind, Scenario, Session, TraceSpec, WorkloadSpec};
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

/// The piecewise-constant trace of `tms` built event by event: a
/// marker at every boundary, then one `SetRate` per pair of the old TM
/// whose rate moves and one per pair only the new TM has — the reference
/// [`Trace::piecewise`] is held to.
fn hand_built_piecewise(tms: &[(f64, PairTraffic)]) -> Trace {
    let end_s: f64 = tms.iter().map(|(d, _)| d).sum();
    let mut builder = Trace::builder(NUM_VMS, end_s).base_traffic(&tms[0].1);
    let mut t = 0.0;
    for (i, shift) in tms.windows(2).enumerate() {
        let ((duration, from), (_, to)) = (&shift[0], &shift[1]);
        t += duration;
        let label = format!("phase-{}", i + 1);
        builder = builder.event(t, TraceEvent::Marker { label });
        for (u, v, rate) in from.pairs() {
            if to.rate(u, v) != rate {
                builder = builder.set_rate(t, u.get(), v.get(), to.rate(u, v));
            }
        }
        for (u, v, rate) in to.pairs() {
            if from.rate(u, v) == 0.0 {
                builder = builder.set_rate(t, u.get(), v.get(), rate);
            }
        }
    }
    builder.build().expect("piecewise trace is valid")
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

    /// Invariant 1: a piecewise-constant trace replays as one run that
    /// lands every phase's TM and never resets the allocation.
    #[test]
    fn piecewise_trace_carries_the_allocation_across_segments(
        seed in 0u64..200,
        tm_seeds in prop::collection::vec(0u64..10_000, 2..4),
        durations in prop::collection::vec(20u32..60, 2..4),
        hlf in 0u8..2,
    ) {
        let policy = if hlf == 1 { PolicyKind::HighestLevelFirst } else { PolicyKind::RoundRobin };
        let mut scenario = quick_scenario(policy, seed);
        let n = tm_seeds.len().min(durations.len());
        let tms: Vec<(f64, PairTraffic)> = tm_seeds
            .iter()
            .zip(&durations)
            .take(n)
            .map(|(&s, &d)| (f64::from(d), WorkloadConfig::new(NUM_VMS, s).generate()))
            .collect();
        let trace = Trace::piecewise(&tms).expect("piecewise trace is valid");
        prop_assert_eq!(&trace, &hand_built_piecewise(&tms));
        let end_s = trace.end_s();
        scenario.workload = WorkloadSpec::Trace {
            spec: TraceSpec::Literal { trace, seed: scenario.workload.seed() },
        };

        let mut session = scenario.session().expect("trace scenario materializes");
        // The opening placement, moved by each migration the report lists.
        let mut placed = session.cluster().allocation().clone();
        let mut moved = 0;
        let mut boundary_s = 0.0;
        for (i, (duration_s, tm)) in tms.iter().enumerate() {
            session.advance_to(boundary_s);
            prop_assert_eq!(session.traffic().pairs(), tm.pairs(), "phase {} TM", i);
            check_ledger(&session)?;
            let report = session.report();
            for m in &report.migrations[moved..] {
                placed.move_vm(m.vm, m.to);
            }
            moved = report.migrations.len();
            prop_assert_eq!(session.cluster().allocation(), &placed, "phase {}", i);
            boundary_s += duration_s;
        }
        session.run_to_horizon();
        check_ledger(&session)?;
        // One clock from 0 to the end of the trace.
        let report = session.report();
        prop_assert_eq!(report.cost_series[0].0, 0.0);
        prop_assert!(report.cost_series.windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert!(session.now_s() <= end_s);
        prop_assert!(report.cost_series.last().unwrap().0 > end_s - 5.0 - 1e-9);
    }

    /// Invariant 2: sparse deltas interleaved with token holds keep the
    /// ledger exact.
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
        prop_assert_eq!(replay.report().to_json(), live.report().to_json());
        prop_assert_eq!(replay.traffic(), live.traffic());
    }

    /// Invariant 4: a marker is a label on both replay paths.
    #[test]
    fn markers_are_labels_on_both_replay_paths(
        seed in 0u64..200,
        hlf in 0u8..2,
        ops in prop::collection::vec((0u32..3, 0u32..=900, 0u32..2000, 0.05f64..4.0), 1..20),
        marks in prop::collection::vec((0u32..=900, 0u8..2), 1..6),
    ) {
        let policy = if hlf == 1 { PolicyKind::HighestLevelFirst } else { PolicyKind::RoundRobin };
        let scenario = quick_scenario(policy, seed);
        let base = scenario.session().expect("scenario materializes").traffic().clone();
        let n = base.num_vms();
        // The same events with and without markers; a marker pushed
        // first sorts before same-instant events, one pushed last after.
        let build = |marked: bool| {
            let mut events = Vec::new();
            let marker = |i: usize| TraceEvent::Marker { label: format!("m{i}") };
            for (i, &(t, first)) in marks.iter().enumerate() {
                if marked && first == 1 {
                    events.push((f64::from(t) / 10.0, marker(i)));
                }
            }
            for &(kind, t, a, x) in &ops {
                let (u, v) = (a % n, (a + 1 + a / n % (n - 1)) % n);
                let event = match kind {
                    0 => TraceEvent::SetRate { u, v, rate: x * 1e6 },
                    1 => TraceEvent::ScalePair { u, v, factor: x },
                    _ => TraceEvent::ScaleAll { factor: x },
                };
                events.push((f64::from(t) / 10.0, event));
            }
            for (i, &(t, first)) in marks.iter().enumerate() {
                if marked && first == 0 {
                    events.push((f64::from(t) / 10.0, marker(i)));
                }
            }
            let builder = Trace::builder(n, 90.0).base_traffic(&base);
            let builder = events.into_iter().fold(builder, |b, (t, e)| b.event(t, e));
            builder.build().expect("decoded events are valid")
        };
        let (marked, plain) = (build(true), build(false));
        prop_assert_eq!(marked.num_events(), plain.num_events() + marks.len());
        prop_assert_eq!(format!("{:?}", marked.compile()), format!("{:?}", plain.compile()));

        // The compiled path: the trace as the scenario's workload.
        let replay = |trace: &Trace| {
            let mut s = scenario.clone();
            s.workload = WorkloadSpec::Trace {
                spec: TraceSpec::Literal { trace: trace.clone(), seed: scenario.workload.seed() },
            };
            let mut session = s.session().expect("trace scenario materializes");
            session.run_to_horizon();
            session.report().to_json()
        };
        prop_assert_eq!(replay(&marked), replay(&plain));

        // The raw path: the events driven into a static session.
        let storm = |trace: &Trace| {
            let mut session = scenario.session().expect("scenario materializes");
            session.run_storm(trace.events()).expect("events apply");
            session.run_to_horizon();
            session.report().to_json()
        };
        prop_assert_eq!(storm(&marked), storm(&plain));
    }
}
