//! Property-based tests for trace semantics: JSONL round-trips are
//! identity, compilation conserves the event stream's final TM, and the
//! generators are pure functions of their seeds.

use proptest::prelude::*;
use score_trace::{
    churn_trace, diurnal_trace, ChurnShape, DiurnalShape, Trace, TraceBuilder, TrafficDelta,
};
use score_traffic::{PairTraffic, WorkloadConfig};
use std::collections::BTreeMap;

const NUM_VMS: u32 = 12;
const END_S: f64 = 1000.0;

/// Decodes raw proptest tuples into a valid event stream.
fn build_trace(raw: &[(u8, u32, u32, u32)]) -> Trace {
    let mut b = TraceBuilder::new(NUM_VMS, END_S);
    b = b.base_pair(0, 1, 5e5).base_pair(2, 3, 1e6);
    for &(kind, t, a, r) in raw {
        let time = f64::from(t % 999) + 0.5;
        let u = a % NUM_VMS;
        let v = (a / NUM_VMS + 1 + u) % NUM_VMS;
        let (u, v) = if u == v { (0, 1) } else { (u, v) };
        b = match kind % 4 {
            0 => b.set_rate(time, u, v, f64::from(r % 10_000) * 100.0),
            1 => b.scale_pair(time, u, v, f64::from(r % 400) / 100.0),
            2 => b.scale_all(time, f64::from(r % 380 + 20) / 100.0),
            _ => b.marker(time, format!("m{t}")),
        };
    }
    b.build().expect("decoded events are valid")
}

/// Replays the raw event stream naively against a rate map.
fn naive_final_tm(trace: &Trace) -> BTreeMap<(u32, u32), f64> {
    let mut rates: BTreeMap<(u32, u32), f64> = trace
        .base()
        .iter()
        .map(|&(u, v, r)| (if u < v { (u, v) } else { (v, u) }, r))
        .collect();
    for ev in trace.events() {
        match ev.event {
            score_trace::TraceEvent::SetRate { u, v, rate } => {
                let key = if u < v { (u, v) } else { (v, u) };
                if rate == 0.0 {
                    rates.remove(&key);
                } else {
                    rates.insert(key, rate);
                }
            }
            score_trace::TraceEvent::ScalePair { u, v, factor } => {
                let key = if u < v { (u, v) } else { (v, u) };
                if let Some(r) = rates.get_mut(&key) {
                    *r *= factor;
                    if *r == 0.0 {
                        rates.remove(&key);
                    }
                }
            }
            score_trace::TraceEvent::ScaleAll { factor } => {
                for r in rates.values_mut() {
                    *r *= factor;
                }
            }
            score_trace::TraceEvent::Marker { .. } => {}
            // The generator produces no churn or faults; neither trace
            // kind is compilable, so the compile-equivalence property
            // never sees these.
            score_trace::TraceEvent::PlaceVm { .. }
            | score_trace::TraceEvent::RemoveVm { .. }
            | score_trace::TraceEvent::HostCrash { .. }
            | score_trace::TraceEvent::RackFail { .. }
            | score_trace::TraceEvent::LinkDegrade { .. }
            | score_trace::TraceEvent::LinkRestore { .. } => {}
        }
    }
    rates
}

/// The TM a compiled trace ends on: last segment's initial plus its
/// in-segment shifts.
fn compiled_final_tm(trace: &Trace) -> BTreeMap<(u32, u32), f64> {
    let compiled = trace.compile();
    let last = compiled
        .segments
        .last()
        .expect("valid traces have segments");
    let mut tm = last.initial.clone();
    for batch in &last.shifts {
        batch.delta.apply_to(&mut tm);
    }
    tm.pairs()
        .iter()
        .map(|&(u, v, r)| ((u.get(), v.get()), r))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jsonl_round_trip_is_identity(
        raw in prop::collection::vec((0u8..4, 0u32..1000, 0u32..200, 0u32..10_000), 0..40),
    ) {
        let trace = build_trace(&raw);
        let back = Trace::from_jsonl(&trace.to_jsonl()).expect("own output parses");
        prop_assert_eq!(back, trace);
    }

    #[test]
    fn compile_conserves_the_final_tm(
        raw in prop::collection::vec((0u8..4, 0u32..1000, 0u32..200, 0u32..10_000), 0..40),
    ) {
        let trace = build_trace(&raw);
        let naive = naive_final_tm(&trace);
        let compiled = compiled_final_tm(&trace);
        prop_assert_eq!(
            naive.len(), compiled.len(),
            "pair sets diverge"
        );
        for (key, rate) in &naive {
            let got = compiled.get(key).copied().unwrap_or(f64::NAN);
            prop_assert!(
                (got - rate).abs() <= 1e-9 * rate.abs().max(1.0),
                "pair {key:?}: naive {rate} vs compiled {got}"
            );
        }
        // Segment durations tile the trace window exactly.
        let total: f64 = trace.compile().segments.iter().map(|s| s.duration_s).sum();
        prop_assert!((total - END_S).abs() < 1e-9);
    }

    #[test]
    fn generators_are_deterministic(seed in 0u64..500) {
        let base: PairTraffic = WorkloadConfig::new(24, seed).generate();
        let d = DiurnalShape { period_s: 120.0, amplitude: 0.3, step_s: 7.0, horizon_s: 240.0 };
        prop_assert_eq!(
            diurnal_trace(&base, &d).unwrap(),
            diurnal_trace(&base, &d).unwrap()
        );
        let c = ChurnShape { window_s: 20.0, windows: 2 };
        let t1 = churn_trace(&base, &c, seed).unwrap();
        prop_assert_eq!(&churn_trace(&base, &c, seed).unwrap(), &t1);
        // Churn rates are always representable as a valid trace and the
        // instantaneous TM never goes negative.
        for seg in t1.compile().segments {
            for batch in seg.shifts {
                let TrafficDelta::Rates(updates) = batch.delta else {
                    panic!("churn re-rates single pairs, got {:?}", batch.delta);
                };
                for (_, _, rate) in updates {
                    prop_assert!(rate >= 0.0);
                }
            }
        }
    }

    #[test]
    fn diurnal_base_is_preserved_and_positive(seed in 0u64..200) {
        let base = WorkloadConfig::new(16, seed).generate();
        let shape = DiurnalShape { period_s: 90.0, amplitude: 0.8, step_s: 11.0, horizon_s: 180.0 };
        let trace = diurnal_trace(&base, &shape).unwrap();
        prop_assert_eq!(trace.base_traffic(), base);
        for seg in trace.compile().segments {
            let mut tm = seg.initial;
            prop_assert!(tm.pairs().iter().all(|&(_, _, r)| r > 0.0));
            for batch in seg.shifts {
                // One O(1) batch per diurnal step, never a per-pair list.
                prop_assert!(matches!(batch.delta, TrafficDelta::ScaleAll(f) if f > 0.0));
                batch.delta.apply_to(&mut tm);
                for (u, v, rate) in tm.pairs() {
                    prop_assert!(rate > 0.0, "({u},{v}) hit {rate}");
                }
            }
            prop_assert_eq!(tm.num_pairs(), base.num_pairs());
        }
    }
}
