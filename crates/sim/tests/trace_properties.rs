//! Property-based tests for trace replay semantics.
//!
//! Three invariants pin the trace subsystem to the pre-existing machinery:
//!
//! 1. **Markers are report barriers the allocation crosses** — in a
//!    piecewise-constant trace ([`Trace::piecewise`]) segment *i* starts
//!    from the allocation segment *i − 1* ended on, priced under TM *i*,
//!    with its time axis back at 0, whether the segments are advanced by
//!    hand or by `Session::run_trace`; and segment *i* is reseeded with
//!    `seed + i`, checked against a static run that never rebinds.
//! 2. **Sparse re-pricing exactness** — any interleaving of mid-run
//!    traffic deltas and token iterations leaves the incremental ledger
//!    within 1e-9 relative of a fresh full Eq.-(2) recomputation, with
//!    zero full-pass resyncs.
//! 3. **Scales are events** — a run driven with `k` uniform scales
//!    among sparse deltas records exactly `k` `ScaleAll` events (never a
//!    per-pair expansion), and replaying the recording reproduces the
//!    live report byte for byte.

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
        builder = builder.marker(t, format!("phase-{}", i + 1));
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

    /// Invariant 1: every segment of a piecewise-constant trace starts
    /// where the previous one stopped, and `run_trace` is that loop.
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
        scenario.workload = WorkloadSpec::Trace {
            spec: TraceSpec::Literal { trace, seed: scenario.workload.seed() },
        };

        let mut session = scenario.session().expect("trace scenario materializes");
        let mut reports = Vec::new();
        let mut carried = None;
        for (i, (_, tm)) in tms.iter().enumerate() {
            let alloc = session.cluster().allocation();
            if let Some(previous) = &carried {
                prop_assert_eq!(alloc, previous, "segment {} lost the allocation", i);
            }
            let priced = session.cost_model().total_cost(alloc, tm, session.cluster().topo());
            prop_assert!(
                (session.initial_cost() - priced).abs() <= 1e-9 * priced.abs().max(1.0),
                "segment {} opens at {} but TM {} prices its allocation at {}",
                i, session.initial_cost(), i, priced
            );
            session.run_to_horizon();
            let report = session.report();
            prop_assert_eq!(report.initial_cost, session.initial_cost());
            prop_assert_eq!(report.cost_series[0].0, 0.0, "the time axis restarts");
            reports.push(report);
            carried = Some(session.cluster().allocation().clone());
            prop_assert_eq!(session.advance_trace_segment().unwrap(), i + 1 < tms.len());
        }
        let mut replay = scenario.session().expect("trace scenario materializes");
        prop_assert_eq!(replay.run_trace().expect("trace replays"), reports);

        // The reseed rule, against a reference that shares no loop with
        // the segment advance: behind an idle opening phase (an empty TM
        // moves no VM) segment 1 makes the holds and migrations of a
        // static run of TM 1 seeded `seed + 1` from the same placement.
        let literal = |phases: &[(f64, PairTraffic)]| WorkloadSpec::Trace {
            spec: TraceSpec::Literal {
                trace: Trace::piecewise(phases).expect("piecewise trace is valid"),
                seed: scenario.workload.seed(),
            },
        };
        let mut idle_first = scenario.clone();
        idle_first.workload = literal(&[(tms[0].0, PairTraffic::empty(NUM_VMS)), tms[1].clone()]);
        let mut session = idle_first.session().expect("trace scenario materializes");
        session.run_to_horizon();
        prop_assert!(session.report().migrations.is_empty());
        prop_assert!(session.advance_trace_segment().unwrap());
        session.run_to_horizon();
        let mut reseeded = scenario.clone();
        reseeded.seed = seed + 1;
        reseeded.workload = literal(&tms[1..2]);
        let mut reference = reseeded.session().expect("static scenario materializes");
        reference.run_to_horizon();
        let (got, want) = (session.report(), reference.report());
        prop_assert!(!want.migrations.is_empty());
        prop_assert_eq!(got.migrations, want.migrations);
        prop_assert_eq!(got.token_holds, want.token_holds);
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
