//! Property-based tests for trace semantics: JSONL round-trips are
//! identity, compilation conserves the event stream's final TM, and the
//! generators are pure functions of their seeds.

use proptest::prelude::*;
use score_topology::VmId;
use score_trace::{
    churn_trace, diurnal_trace, scaled_rate, ChurnShape, CompiledTrace, DiurnalShape, Trace,
    TraceBuilder, TraceEvent, TrafficDelta,
};
use score_traffic::{PairTraffic, PairTrafficBuilder, WorkloadConfig};
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
            _ => b.event(
                time,
                TraceEvent::Marker {
                    label: format!("m{t}"),
                },
            ),
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

/// The TM a compiled trace ends on: the run's initial TM plus its
/// shifts.
fn compiled_final_tm(trace: &Trace) -> BTreeMap<(u32, u32), f64> {
    let compiled = trace.compile();
    let run = &compiled.segments[0];
    let mut tm = run.initial.clone();
    for batch in run.shifts.iter() {
        run.shifts.apply_to(batch.delta, &mut tm);
    }
    tm.pairs()
        .iter()
        .map(|&(u, v, r)| ((u.get(), v.get()), r))
        .collect()
}

/// A compiled batch with its payload owned — the form `compile` emitted
/// before a run's re-rates moved into one flat store.
#[derive(Debug, Clone, PartialEq)]
enum RefDelta {
    Rates(Vec<(VmId, VmId, f64)>),
    ScaleAll(f64),
}

/// The reference run: `(duration_s, initial TM, batches)`.
type RefRun = (f64, PairTraffic, Vec<(f64, RefDelta)>);

/// The per-event reference compiler: one owned batch per event that
/// changes a rate, decided against a running TM advanced event by event;
/// events at t = 0 fold into the initial TM, and markers change nothing.
fn reference_run(trace: &Trace) -> RefRun {
    let snapshot = |tm: &PairTraffic| {
        let mut b = PairTrafficBuilder::new(tm.num_vms());
        for (u, v, rate) in tm.pairs() {
            b.add(u, v, rate);
        }
        b.build()
    };
    let canon = |u: u32, v: u32| (VmId::new(u.min(v)), VmId::new(u.max(v)));
    let mut running = trace.base_traffic();
    let mut initial = snapshot(&running);
    let mut batches: Vec<(f64, RefDelta)> = Vec::new();
    for ev in trace.events() {
        let delta = match ev.event {
            TraceEvent::Marker { .. } => continue,
            TraceEvent::SetRate { u, v, rate } => {
                let (u, v) = canon(u, v);
                (rate != running.rate(u, v)).then(|| RefDelta::Rates(vec![(u, v, rate)]))
            }
            TraceEvent::ScalePair { u, v, factor } => {
                let (u, v) = canon(u, v);
                let new = scaled_rate(running.rate(u, v), factor);
                (new != running.rate(u, v)).then(|| RefDelta::Rates(vec![(u, v, new)]))
            }
            TraceEvent::ScaleAll { factor } => {
                (factor != 1.0 && running.num_pairs() > 0).then_some(RefDelta::ScaleAll(factor))
            }
            _ => unreachable!("the generator emits rate events and markers only"),
        };
        let Some(delta) = delta else { continue };
        match &delta {
            RefDelta::Rates(updates) => running.apply_updates(updates),
            RefDelta::ScaleAll(factor) => running.scale_all(*factor),
        }
        if ev.time_s > 0.0 {
            batches.push((ev.time_s, delta));
        } else {
            initial = snapshot(&running);
        }
    }
    batches.retain(|&(at_s, _)| at_s < trace.end_s());
    (trace.end_s(), initial, batches)
}

/// A compiled trace's segments, every batch's payload read back through
/// [`score_trace::ShiftRun::updates`], in the reference's form.
fn reassembled_segments(compiled: &CompiledTrace) -> Vec<RefRun> {
    compiled
        .segments
        .iter()
        .map(|seg| {
            let batches = seg
                .shifts
                .iter()
                .map(|b| {
                    let delta = match b.delta {
                        TrafficDelta::Rates(range) => {
                            RefDelta::Rates(seg.shifts.updates(range).to_vec())
                        }
                        TrafficDelta::ScaleAll(factor) => RefDelta::ScaleAll(factor),
                    };
                    (b.at_s, delta)
                })
                .collect();
            (seg.duration_s, seg.initial.clone(), batches)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compiled_batches_equal_the_per_event_reference(
        raw in prop::collection::vec((0u8..4, 0u32..1000, 0u32..200, 0u32..10_000), 0..40),
    ) {
        let trace = build_trace(&raw);
        let compiled = trace.compile();
        let reference = reference_run(&trace);
        prop_assert_eq!(compiled.num_shifts(), reference.2.len());
        prop_assert_eq!(reassembled_segments(&compiled), vec![reference]);
    }

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
        // The one run spans the trace window exactly.
        prop_assert_eq!(trace.compile().segments[0].duration_s, END_S);
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
            for batch in seg.shifts.iter() {
                let TrafficDelta::Rates(range) = batch.delta else {
                    panic!("churn re-rates single pairs, got {:?}", batch.delta);
                };
                for &(_, _, rate) in seg.shifts.updates(range) {
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
            for batch in seg.shifts.iter() {
                // One O(1) batch per diurnal step, never a per-pair list.
                prop_assert!(matches!(batch.delta, TrafficDelta::ScaleAll(f) if f > 0.0));
                seg.shifts.apply_to(batch.delta, &mut tm);
                for (u, v, rate) in tm.pairs() {
                    prop_assert!(rate > 0.0, "({u},{v}) hit {rate}");
                }
            }
            prop_assert_eq!(tm.num_pairs(), base.num_pairs());
        }
    }
}
