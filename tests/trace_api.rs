//! Acceptance tests for the trace-driven workload subsystem: a
//! `WorkloadSpec::Trace` scenario must run end-to-end through the
//! `Session` event clock, applying 100+ mid-run traffic deltas through
//! the sparse O(changed-pairs) path — zero full ledger resyncs — while
//! the incremental cost stays exact, and traces must round-trip through
//! both Scenario JSON and the JSONL file format.

use s_core::sim::{PolicyKind, Scenario, TraceSpec, WorkloadSpec};
use s_core::trace::{DiurnalShape, FlashCrowdShape, Trace};
use s_core::traffic::TrafficIntensity;

fn diurnal_scenario() -> Scenario {
    Scenario::builder()
        .trace(TraceSpec::Diurnal {
            num_vms: 256,
            intensity: TrafficIntensity::Sparse,
            seed: 77,
            shape: DiurnalShape {
                period_s: 150.0,
                amplitude: 0.6,
                step_s: 2.0,
                horizon_s: 300.0,
            },
        })
        .policy(PolicyKind::HighestLevelFirst)
        .seed(77)
        .build()
}

#[test]
fn trace_scenario_applies_hundreds_of_deltas_without_resync() {
    let scenario = diurnal_scenario();
    let mut session = scenario.session().expect("trace scenario materializes");
    session.run_to_horizon();
    let report = session.report();
    // ≥ 100 mid-run deltas through the event clock (149 sine steps).
    assert!(
        report.trace.events_applied >= 100,
        "only {} deltas applied",
        report.trace.events_applied
    );
    assert!(report.trace.pairs_repriced >= report.trace.events_applied);
    // Every one took the sparse path: no full Eq.-(2) resync.
    assert_eq!(session.ledger_resyncs(), 0);
    // And the incrementally maintained cost is still exact.
    let fresh = session.cost_model().total_cost(
        session.cluster().allocation(),
        session.traffic(),
        session.cluster().topo(),
    );
    assert!(
        (session.current_cost() - fresh).abs() <= 1e-9 * fresh.max(1.0),
        "ledger {} vs fresh {fresh}",
        session.current_cost()
    );
    // S-CORE still converges while the ground shifts under it.
    assert!(report.final_cost < report.initial_cost);
    assert!(!report.migrations.is_empty());
}

#[test]
fn trace_scenarios_are_deterministic_and_serializable() {
    let scenario = diurnal_scenario();
    // The spec round-trips through Scenario JSON like every other
    // workload dimension.
    let back = Scenario::from_json(&scenario.to_json()).unwrap();
    assert_eq!(back, scenario);
    // Two runs of the same spec agree on everything but wall-clock
    // rebind latencies.
    let run = |s: &Scenario| {
        let mut session = s.session().unwrap();
        session.run_to_horizon();
        session.report()
    };
    let (a, b) = (run(&scenario), run(&back));
    assert_eq!(a.cost_series, b.cost_series);
    assert_eq!(a.migrations, b.migrations);
    assert_eq!(a.trace.events_applied, b.trace.events_applied);
    assert_eq!(a.trace.pairs_repriced, b.trace.pairs_repriced);
}

#[test]
fn multi_segment_traces_report_per_phase() {
    // A marked trace: steady state, then a flash-crowd phase built from
    // explicit events, each segment reported separately.
    let trace = Trace::builder(6, 120.0)
        .base_pair(0, 1, 2e6)
        .base_pair(2, 3, 1e6)
        .base_pair(4, 5, 5e5)
        .set_rate(30.0, 0, 2, 8e6) // mid-segment delta
        .marker(60.0, "crowd")
        .set_rate(60.0, 0, 3, 9e6) // boundary fold into segment 2
        .scale_all(90.0, 0.5) // mid-segment delta in segment 2
        .build()
        .unwrap();
    let scenario = Scenario::builder()
        .star(6)
        .literal_trace(trace)
        .policy(PolicyKind::RoundRobin)
        .build();
    let mut session = scenario.session().unwrap();
    let reports = session.run_trace().unwrap();
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].trace.events_applied, 1);
    assert_eq!(reports[1].trace.events_applied, 1);
    assert!(
        !session.advance_trace_segment().unwrap(),
        "run_trace consumed every segment"
    );
    assert_eq!(session.ledger_resyncs(), 0);
}

#[test]
fn jsonl_files_round_trip_through_scenarios() {
    let scenario = Scenario::builder()
        .trace(TraceSpec::FlashCrowd {
            num_vms: 32,
            intensity: TrafficIntensity::Sparse,
            seed: 3,
            shape: FlashCrowdShape {
                spikes: 4,
                fanout: 4,
                surge_bps: 1e8,
                hold_s: 20.0,
                horizon_s: 200.0,
            },
        })
        .build();
    let trace = scenario.workload.build_trace().unwrap();
    let path = std::env::temp_dir().join("score_trace_api_test.jsonl");
    trace.save(&path).unwrap();
    let reloaded = Trace::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(reloaded, trace);
    // A literal scenario over the reloaded trace replays the same
    // schedule the generator spec produces.
    let literal = Scenario::builder()
        .workload(WorkloadSpec::Trace {
            spec: TraceSpec::Literal {
                trace: reloaded,
                seed: 3,
            },
        })
        .build();
    let run = |s: &Scenario| {
        let mut session = s.session().unwrap();
        session.run_to_horizon();
        session.report()
    };
    let (from_gen, from_file) = (run(&scenario), run(&literal));
    assert_eq!(from_gen.cost_series, from_file.cost_series);
    assert_eq!(
        from_gen.trace.events_applied,
        from_file.trace.events_applied
    );
}
