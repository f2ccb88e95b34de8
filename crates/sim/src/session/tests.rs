//! Unit tests of [`Session`], private state included.

use super::*;
use crate::spec::{PolicyKind, TimingSpec, TraceSpec};
use score_topology::ServerId;
use score_trace::{Trace, TraceEvent};
use score_traffic::{TrafficIntensity, WorkloadConfig};

fn quick_scenario(policy: PolicyKind, seed: u64) -> Scenario {
    let mut s = Scenario::small_canonical(TrafficIntensity::Sparse, seed);
    s.policy = policy;
    s.timing = TimingSpec {
        t_end_s: 120.0,
        sample_interval_s: 5.0,
        token_hold_s: 0.05,
        token_pass_s: 0.01,
    };
    s
}

/// `scenario` replaying the piecewise-constant trace of `phases`
/// instead of its own workload (same placement seed).
fn piecewise_scenario(mut scenario: Scenario, phases: &[(f64, PairTraffic)]) -> Scenario {
    scenario.workload = WorkloadSpec::Trace {
        spec: TraceSpec::Literal {
            trace: Trace::piecewise(phases).unwrap(),
            seed: scenario.workload.seed(),
        },
    };
    scenario
}

#[test]
fn simulation_reduces_cost_over_time() {
    let mut session = quick_scenario(PolicyKind::RoundRobin, 1).session().unwrap();
    session.run_to_horizon();
    let report = session.report();
    assert!(report.final_cost < report.initial_cost);
    // Series is non-increasing (S-CORE never performs a bad move).
    for w in report.cost_series.windows(2) {
        assert!(w[1].1 <= w[0].1 + 1e-6);
    }
    assert!(report.token_holds > 0);
    assert!(!report.migrations.is_empty());
    assert!(session.horizon_reached());
    assert!(session.step().is_none(), "no steps past the horizon");
}

#[test]
fn iteration_stats_group_by_population() {
    let mut session = quick_scenario(PolicyKind::RoundRobin, 2).session().unwrap();
    let vms = session.cluster().num_vms() as usize;
    session.run_to_horizon();
    let report = session.report();
    for (i, it) in report.iterations.iter().enumerate() {
        if i + 1 < report.iterations.len() {
            assert_eq!(it.steps, vms, "full iterations cover the population");
        }
    }
    assert_eq!(report.migration_ratios.len(), report.iterations.len());
}

#[test]
fn iterations_after_departures_cover_the_live_population() {
    let mut session = quick_scenario(PolicyKind::RoundRobin, 2).session().unwrap();
    for v in [3, 9, 10] {
        session.remove_vm(VmId::new(v)).unwrap();
    }
    let live = session.traffic().num_vms() as usize - 3;
    let iterations = session.run(2);
    assert_eq!(iterations.len(), 2);
    for it in iterations {
        assert_eq!(it.steps, live, "an iteration is |V| live holds");
    }
}

#[test]
fn run_n_iterations_is_incremental() {
    let mut session = quick_scenario(PolicyKind::RoundRobin, 3).session().unwrap();
    let first = session.run(1);
    assert_eq!(first.len(), 1);
    assert_eq!(first[0].steps, session.cluster().num_vms() as usize);
    let second = session.run(2);
    assert_eq!(second.len(), 2);
    assert_eq!(session.report().iterations.len(), 3);
    // The cost after explicit iterations matches the accumulator.
    assert!(session.current_cost() <= session.initial_cost());
}

#[test]
fn hlf_and_rr_both_converge() {
    for policy in PolicyKind::paper_policies() {
        let mut session = quick_scenario(policy, 3).session().unwrap();
        session.run_to_horizon();
        let report = session.report();
        assert!(
            report.final_cost < report.initial_cost,
            "{} must improve the initial placement",
            policy.name()
        );
        assert_eq!(report.policy, policy.name());
    }
}

#[test]
fn migration_events_have_sane_overheads() {
    let mut session = quick_scenario(PolicyKind::HighestLevelFirst, 4)
        .session()
        .unwrap();
    session.run_to_horizon();
    let report = session.report();
    for m in &report.migrations {
        assert!(m.gain > 0.0);
        assert!(m.bytes > 50e6 && m.bytes < 200e6);
        assert!(m.duration_s > 1.0 && m.duration_s < 15.0);
        assert!(m.downtime_s < 0.05);
    }
    assert!(report.total_migration_bytes() > 0.0);
    assert!(report.total_downtime_s() > 0.0);
    assert_eq!(report.flow_table.aggregations, report.token_holds as u64);
    assert_eq!(
        report.flow_table.rule_updates,
        2 * report.migrations.len() as u64
    );
}

#[test]
fn deterministic_under_seed() {
    let run = || {
        let mut session = quick_scenario(PolicyKind::HighestLevelFirst, 6)
            .session()
            .unwrap();
        session.run_to_horizon();
        session.report()
    };
    let a = run();
    let b = run();
    assert_eq!(a.final_cost, b.final_cost);
    assert_eq!(a.migrations.len(), b.migrations.len());
    assert_eq!(a.token_holds, b.token_holds);
    assert_eq!(a, b, "the full report must be identical under a fixed seed");
}

#[test]
fn dynamic_phases_readapt() {
    // Phase 1: workload A; phase 2: a fresh workload B over the same
    // population, from t = 120 s. One run: S-CORE must re-converge after
    // the shift without any restart.
    let scenario = quick_scenario(PolicyKind::HighestLevelFirst, 8);
    let traffic_a = scenario.session().unwrap().traffic().clone();
    let traffic_b = WorkloadConfig::new(traffic_a.num_vms(), 999).generate();
    let mut session = piecewise_scenario(scenario, &[(120.0, traffic_a), (120.0, traffic_b)])
        .session()
        .unwrap();
    session.run_to_horizon();
    let report = session.report();
    let series = &report.cost_series;
    let shift = series.partition_point(|&(t, _)| t < 120.0);
    let (before, after) = (series[shift - 1].1, series[shift].1);
    assert!(before < report.initial_cost, "phase 1 converges");
    // The shift leaves the allocation mismatched to workload B: the
    // sampled cost jumps, then falls below that post-shift value before
    // the run ends.
    assert!(after > before, "cost {before} -> {after} at the shift");
    assert!(series[shift..].iter().any(|&(t, c)| t < 240.0 && c < after));
    assert!(report.final_cost < after);
    let late = report.migrations.iter().filter(|m| m.time_s >= 120.0);
    assert!(late.count() > 3, "must re-adapt after the TM shift");
}

#[test]
fn stability_no_oscillation_under_static_traffic() {
    // VM stability (paper §VI-B): once converged, no VM keeps
    // bouncing.
    let mut scenario = quick_scenario(PolicyKind::RoundRobin, 10);
    scenario.timing.t_end_s = 250.0;
    let mut session = scenario.session().unwrap();
    session.run_to_horizon();
    let report = session.report();
    let mut per_vm = std::collections::HashMap::new();
    for m in &report.migrations {
        *per_vm.entry(m.vm).or_insert(0usize) += 1;
    }
    let max_moves = per_vm.values().copied().max().unwrap_or(0);
    assert!(
        max_moves <= 4,
        "a VM migrated {max_moves} times under static traffic"
    );
    let late = report
        .migrations
        .iter()
        .filter(|m| m.time_s > 200.0)
        .count();
    assert_eq!(late, 0, "migrations continued after convergence");
}

#[test]
fn ledger_sampling_matches_full_recomputation() {
    let mut session = quick_scenario(PolicyKind::HighestLevelFirst, 21)
        .session()
        .unwrap();
    session.run_to_horizon();
    let fresh = session.cost_model().total_cost(
        session.cluster().allocation(),
        session.traffic(),
        session.cluster().topo(),
    );
    let ledgered = session.current_cost();
    assert!(
        (ledgered - fresh).abs() <= 1e-9 * fresh.max(1.0),
        "ledger {ledgered} vs fresh {fresh}"
    );
    // The last sample the event loop took agrees too.
    let report = session.report();
    let (_, last_sampled) = *report.cost_series.last().unwrap();
    assert!((last_sampled - fresh).abs() <= 1e-9 * fresh.max(1.0));
}

#[test]
fn ledger_matches_a_full_pass_after_an_hlf_run() {
    // Every migration of an HLF run to the horizon is folded in as its
    // Lemma-3 gain alone; the running total must land on Eq. (2).
    let mut session = quick_scenario(PolicyKind::HighestLevelFirst, 23)
        .session()
        .unwrap();
    session.run_to_horizon();
    assert!(!session.report().migrations.is_empty());
    let fresh = session.cost_model().total_cost(
        session.cluster().allocation(),
        session.traffic(),
        session.cluster().topo(),
    );
    let total = session.current_cost();
    assert!(
        (total - fresh).abs() <= 1e-9 * fresh.max(1.0),
        "ledger {total} vs a full pass {fresh} after an HLF run"
    );
}

#[test]
fn trace_workload_applies_deltas_mid_run() {
    use crate::spec::TraceSpec;
    use score_trace::DiurnalShape;
    // 120 s of diurnal drift re-rated every second: 119 mid-run
    // deltas, each through the sparse ledger path.
    let mut scenario = quick_scenario(PolicyKind::HighestLevelFirst, 31);
    scenario.workload = crate::spec::WorkloadSpec::Trace {
        spec: TraceSpec::Diurnal {
            num_vms: 64,
            intensity: TrafficIntensity::Sparse,
            seed: 31,
            shape: DiurnalShape {
                period_s: 60.0,
                amplitude: 0.5,
                step_s: 1.0,
                horizon_s: 120.0,
            },
        },
    };
    let mut session = scenario.session().unwrap();
    assert_eq!(session.shifts.len(), 119);
    session.run_to_horizon();
    let report = session.report();
    assert_eq!(report.trace.events_applied, 119);
    assert!(report.trace.pairs_repriced > 0);
    // Every delta took the sparse path, and the ledger still agrees
    // with a fresh recomputation.
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
    // The offered traffic at the horizon is the drifted TM, not the
    // base one.
    let base_total = scenario
        .workload
        .generate(session.topo().as_ref())
        .total_rate();
    assert_ne!(session.traffic().total_rate(), base_total);
}

#[test]
fn apply_traffic_deltas_validates_and_reprices() {
    let mut session = quick_scenario(PolicyKind::RoundRobin, 41)
        .session()
        .unwrap();
    session.run(1);
    let (u, v) = (VmId::new(0), VmId::new(1));
    // Invalid updates are rejected without touching the session.
    let before = session.current_cost();
    assert!(session.apply_traffic_deltas(&[(u, u, 1.0)]).is_err());
    assert!(session
        .apply_traffic_deltas(&[(u, VmId::new(9999), 1.0)])
        .is_err());
    assert!(session.apply_traffic_deltas(&[(u, v, -1.0)]).is_err());
    assert!(session.apply_traffic_deltas(&[(u, v, f64::NAN)]).is_err());
    assert_eq!(session.current_cost(), before);
    // A real delta re-prices and matches a fresh recomputation;
    // duplicate entries in one batch: the later wins.
    let changed = session
        .apply_traffic_deltas(&[(u, v, 123.0), (v, u, 456.0)])
        .unwrap();
    assert_eq!(changed, 1);
    assert_eq!(session.traffic().rate(u, v), 456.0);
    let fresh = session.cost_model().total_cost(
        session.cluster().allocation(),
        session.traffic(),
        session.cluster().topo(),
    );
    assert!((session.current_cost() - fresh).abs() <= 1e-9 * fresh.max(1.0));
    assert_eq!(session.trace_stats().events_applied, 1);
    // Setting the same rate again is a counted no-op batch.
    assert_eq!(session.apply_traffic_deltas(&[(u, v, 456.0)]).unwrap(), 0);
    assert_eq!(session.trace_stats().events_applied, 2);
    // And the run continues normally afterwards.
    session.run_to_horizon();
    assert!(session.report().final_cost <= session.report().initial_cost + 1e-9);
}

#[test]
fn traffic_scale_matches_expanded_deltas() {
    // Two identical sessions; one scales in O(1), the other applies
    // the reference: one absolute re-rate per pair. The O(1) side
    // records too — there is no other path to fall back to.
    let scenario = quick_scenario(PolicyKind::RoundRobin, 43);
    let mut slow = scenario.session().unwrap();
    let mut fast = scenario.session().unwrap();
    fast.start_trace_recording();
    fast.run(1);
    slow.run(1);
    let factor = 2.5;
    let swept = fast.apply_traffic_scale(factor).unwrap();
    assert_eq!(swept, fast.traffic().num_pairs());
    let expand = |s: &Session, factor: f64| -> Vec<(VmId, VmId, f64)> {
        s.traffic()
            .pairs()
            .iter()
            .map(|&(u, v, r)| (u, v, (r * factor).min(f64::MAX)))
            .collect()
    };
    slow.apply_traffic_deltas(&expand(&slow, factor)).unwrap();
    // Rates agree exactly; costs and NIC accounting to 1e-9.
    for (u, v, r) in slow.traffic().pairs() {
        assert_eq!(fast.traffic().rate(u, v), r);
    }
    let close = |fast: &Session, slow: &Session| {
        let (cf, cs) = (fast.current_cost(), slow.current_cost());
        assert!((cf - cs).abs() <= 1e-9 * cs.abs().max(1.0), "{cf} vs {cs}");
        // The memoized external loads the scale multiplied through
        // equal a from-scratch sum over the reference's rates.
        let alloc = fast.cluster().allocation();
        let mut fresh = vec![0.0f64; alloc.num_servers() as usize];
        for (u, v, r) in slow.traffic().pairs() {
            let (su, sv) = (alloc.server_of(u), alloc.server_of(v));
            if su != sv {
                fresh[su.index()] += r;
                fresh[sv.index()] += r;
            }
        }
        for (s, &ds) in fresh.iter().enumerate() {
            let df = fast
                .cluster()
                .host_external_load(fast.traffic(), ServerId::new(s as u32));
            assert!(
                (df - ds).abs() <= 1e-9 * ds.max(1.0),
                "srv{s}: {df} vs {ds}"
            );
        }
    };
    close(&fast, &slow);
    // A second scale composes with the first before either is
    // settled; the reference rounds after each.
    fast.apply_traffic_scale(0.3).unwrap();
    slow.apply_traffic_deltas(&expand(&slow, 0.3)).unwrap();
    for (u, v, r) in slow.traffic().pairs() {
        assert!((fast.traffic().rate(u, v) - r).abs() <= 1e-12 * r);
    }
    close(&fast, &slow);
    // Each scale was recorded as the one event it was.
    let recorded = fast.recorded_trace().unwrap();
    assert_eq!(
        recorded
            .events()
            .iter()
            .map(|e| &e.event)
            .collect::<Vec<_>>(),
        [
            &TraceEvent::ScaleAll { factor },
            &TraceEvent::ScaleAll { factor: 0.3 }
        ]
    );
    // Invalid factors are rejected without touching the session.
    assert!(fast.apply_traffic_scale(0.0).is_err());
    assert!(fast.apply_traffic_scale(f64::NAN).is_err());
    assert!(fast.apply_traffic_scale(f64::INFINITY).is_err());
    assert!(fast.apply_traffic_scale(-2.0).is_err());
    assert_eq!(fast.recorded_trace().unwrap(), recorded);
    close(&fast, &slow);
    // Identity factor changes nothing but counts as an event.
    let events_before = fast.trace_stats().events_applied;
    assert_eq!(fast.apply_traffic_scale(1.0).unwrap(), 0);
    assert_eq!(fast.trace_stats().events_applied, events_before + 1);
    // Both sessions keep running normally.
    fast.run_to_horizon();
    slow.run_to_horizon();
    assert_eq!(
        fast.report().migrations.len(),
        slow.report().migrations.len()
    );
}

#[test]
fn ten_thousand_scales_around_a_cycle_leave_no_drift() {
    // Ten diurnal periods of a thousand steps each: the factors
    // multiply to 1, so everything must end where it began.
    let mut session = quick_scenario(PolicyKind::RoundRobin, 47)
        .session()
        .unwrap();
    let base = session.traffic().clone();
    let cost = session.current_cost();
    let envelope = |i: u32| 1.0 + 0.5 * (std::f64::consts::TAU * f64::from(i) / 1000.0).sin();
    for i in 0..10_000 {
        session
            .apply_traffic_scale(envelope(i + 1) / envelope(i))
            .unwrap();
    }
    for ((u, v, got), (_, _, want)) in session.traffic().pairs().into_iter().zip(base.pairs()) {
        assert!(
            (got - want).abs() <= 1e-9 * want,
            "({u}, {v}): {got} vs {want}"
        );
    }
    assert_eq!(session.traffic().num_pairs(), base.num_pairs());
    let fresh = session.cost_model().total_cost(
        session.cluster().allocation(),
        session.traffic(),
        session.cluster().topo(),
    );
    for drifted in [
        session.current_cost() - fresh,
        session.current_cost() - cost,
    ] {
        assert!(drifted.abs() <= 1e-9 * cost, "ledger drifted by {drifted}");
    }
    assert_eq!(session.trace_stats().events_applied, 10_000);
}

/// A small flash-crowd trace scenario (fast token timing so the
/// lookahead spans several iterations).
fn flash_scenario(forecast: crate::spec::ForecastSpec) -> Scenario {
    use score_trace::FlashCrowdShape;
    let mut scenario = quick_scenario(PolicyKind::HighestLevelFirst, 51);
    scenario.workload = crate::spec::WorkloadSpec::Trace {
        spec: TraceSpec::FlashCrowd {
            num_vms: 64,
            intensity: TrafficIntensity::Sparse,
            seed: 51,
            shape: FlashCrowdShape {
                spikes: 6,
                fanout: 4,
                surge_bps: 2e8,
                hold_s: 20.0,
                horizon_s: 120.0,
            },
        },
    };
    scenario.forecast = forecast;
    scenario
}

#[test]
fn zero_horizon_forecast_is_bit_identical_to_none() {
    use crate::spec::ForecastSpec;
    // The compatibility invariant, at the session level: an
    // inactive forecast spec (zero horizon) must reproduce the
    // reactive pipeline's report byte for byte — for the online
    // estimator on a static workload and the oracle on a trace.
    let run = |forecast: ForecastSpec, trace: bool| {
        let mut scenario = if trace {
            flash_scenario(forecast)
        } else {
            let mut s = quick_scenario(PolicyKind::HighestCostFirst, 33);
            s.forecast = forecast;
            s
        };
        scenario.timing.t_end_s = 120.0;
        let mut session = scenario.session().unwrap();
        session.run_to_horizon();
        session.report().to_json()
    };
    let reactive = run(ForecastSpec::None, false);
    let zero_ewma = run(
        ForecastSpec::Ewma {
            alpha: 0.4,
            horizon_s: 0.0,
        },
        false,
    );
    assert_eq!(reactive, zero_ewma);
    let reactive_trace = run(ForecastSpec::None, true);
    let zero_oracle = run(ForecastSpec::TraceOracle { horizon_s: 0.0 }, true);
    assert_eq!(reactive_trace, zero_oracle);
}

#[test]
fn oracle_forecast_preempts_flash_crowds_and_keeps_the_ledger_exact() {
    use crate::spec::ForecastSpec;
    let mut session = flash_scenario(ForecastSpec::TraceOracle { horizon_s: 30.0 })
        .session()
        .unwrap();
    assert!(session.forecaster.is_some());
    session.run_to_horizon();
    let report = session.report();
    assert!(
        report.forecast.preempted > 0,
        "the oracle should act ahead of at least one spike"
    );
    assert_eq!(
        report.forecast.preempted + report.forecast.reactive,
        report.migrations.len() as u64
    );
    // Reading ahead never dirties the ledger (regression guard for
    // the outlook path) and the incrementally tracked cost still
    // agrees with a fresh Eq.-(2) pass even though pre-emptive
    // moves applied non-positive current-TM gains.
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
}

#[test]
fn ewma_forecast_runs_on_time_varying_workloads() {
    use crate::spec::ForecastSpec;
    let mut session = flash_scenario(ForecastSpec::Ewma {
        alpha: 0.5,
        horizon_s: 20.0,
    })
    .session()
    .unwrap();
    session.run_to_horizon();
    // The estimator must not corrupt anything; pre-emption is
    // possible but not guaranteed for a trend model on square
    // spikes.
    let report = session.report();
    assert_eq!(
        report.forecast.preempted + report.forecast.reactive,
        report.migrations.len() as u64
    );
    let fresh = session.cost_model().total_cost(
        session.cluster().allocation(),
        session.traffic(),
        session.cluster().topo(),
    );
    assert!((session.current_cost() - fresh).abs() <= 1e-9 * fresh.max(1.0));
}

#[test]
fn oracle_forecast_requires_a_trace_workload() {
    use crate::spec::ForecastSpec;
    let mut scenario = quick_scenario(PolicyKind::RoundRobin, 1);
    scenario.forecast = ForecastSpec::TraceOracle { horizon_s: 10.0 };
    assert!(matches!(scenario.session(), Err(ScenarioError::Engine(_))));
    // Invalid forecast parameters are errors, not panics.
    let mut scenario = quick_scenario(PolicyKind::RoundRobin, 1);
    scenario.forecast = ForecastSpec::Ewma {
        alpha: 1.5,
        horizon_s: 10.0,
    };
    assert!(matches!(scenario.session(), Err(ScenarioError::Engine(_))));
    let mut scenario = quick_scenario(PolicyKind::RoundRobin, 1);
    scenario.forecast = ForecastSpec::Ewma {
        alpha: 0.5,
        horizon_s: f64::NAN,
    };
    assert!(matches!(scenario.session(), Err(ScenarioError::Engine(_))));
}

#[test]
fn recorded_trace_replays_the_same_run() {
    // Record a trace-driven run's applied deltas, then replay the
    // recording as a literal trace: decisions must match exactly.
    let scenario = flash_scenario(crate::spec::ForecastSpec::None);
    let mut original = scenario.clone().session().unwrap();
    original.start_trace_recording();
    assert!(original.recorded_trace().is_err(), "no time elapsed yet");
    original.run_to_horizon();
    let recorded = original.recorded_trace().unwrap();
    assert!(recorded.num_events() > 0);

    let mut replay_scenario = scenario.clone();
    replay_scenario.workload = crate::spec::WorkloadSpec::Trace {
        spec: TraceSpec::Literal {
            trace: recorded,
            seed: scenario.workload.seed(),
        },
    };
    let mut replayed = replay_scenario.session().unwrap();
    replayed.run_to_horizon();

    assert_eq!(
        original.report(),
        replayed.report(),
        "record → replay must reproduce the run"
    );
    assert_eq!(original.traffic(), replayed.traffic());
}

#[test]
fn recording_spans_phase_rebinds() {
    // A phase boundary is ordinary re-rates: the recording holds them
    // and no marker, and replays to the same report bytes.
    let scenario = quick_scenario(PolicyKind::RoundRobin, 61);
    let a = scenario.session().unwrap().traffic().clone();
    let b = WorkloadConfig::new(a.num_vms(), 717).generate();
    let piecewise = piecewise_scenario(scenario, &[(60.0, a), (60.0, b.clone())]);
    let mut session = piecewise.session().unwrap();
    session.start_trace_recording();
    session.run_to_horizon();
    assert_eq!(session.traffic().pairs(), b.pairs());
    let recorded = session.recorded_trace().unwrap();
    assert_eq!(recorded.end_s(), 120.0);
    assert!(recorded.num_events() > 0);
    assert!(recorded
        .events()
        .iter()
        .all(|e| matches!(e.event, TraceEvent::SetRate { .. })));
    let mut replay_scenario = piecewise.clone();
    replay_scenario.workload = WorkloadSpec::Trace {
        spec: TraceSpec::Literal {
            trace: recorded,
            seed: piecewise.workload.seed(),
        },
    };
    let mut replayed = replay_scenario.session().unwrap();
    replayed.run_to_horizon();
    assert_eq!(replayed.report().to_json(), session.report().to_json());
}

#[test]
fn report_mid_run_then_final() {
    let mut session = quick_scenario(PolicyKind::HighestLevelFirst, 12)
        .session()
        .unwrap();
    session.run(1);
    let mid = session.report();
    assert_eq!(mid.iterations.len(), 1);
    session.run_to_horizon();
    let fin = session.report();
    assert!(fin.token_holds >= mid.token_holds);
    assert!(fin.final_cost <= mid.final_cost + 1e-9);
}

#[test]
fn infeasible_placement_is_an_error() {
    // 20 VMs per host cannot fit 16 slots.
    let scenario = Scenario::builder().vms_per_host(20.0).build();
    assert!(matches!(
        scenario.session(),
        Err(ScenarioError::Placement(_))
    ));
}

#[test]
fn live_churn_keeps_the_ledger_exact() {
    let mut session = quick_scenario(PolicyKind::RoundRobin, 21)
        .session()
        .unwrap();
    session.run(1);
    let before = session.current_cost();
    let (vm, host) = session.place_vm(None).unwrap();
    assert_eq!(vm.get(), session.cluster().num_vms() - 1);
    assert_eq!(session.cluster().allocation().server_of(vm), host);
    // A newcomer idles at zero rate: C_A is untouched.
    assert_eq!(session.current_cost(), before);
    session
        .apply_traffic_deltas(&[(vm, VmId::new(0), 4e6)])
        .unwrap();
    session.run(1);
    session.remove_vm(VmId::new(1)).unwrap();
    assert!(!session.cluster().is_active(VmId::new(1)));
    session.run(1);
    let exact = session.cost_model().total_cost(
        session.cluster().allocation(),
        session.traffic(),
        session.cluster().topo(),
    );
    let got = session.current_cost();
    assert!(
        (got - exact).abs() <= 1e-6 * exact.abs().max(1.0),
        "incremental {got} vs full recompute {exact}"
    );
}

/// `Session::check_invariants` accepts a session its mutators kept
/// coherent, and names each account a corruption breaks.
#[cfg(debug_assertions)]
#[test]
fn check_invariants_names_each_corrupted_account() {
    type Corruption = fn(&mut Session);
    let corruptions: [(&str, Corruption); 3] = [
        // A rate written past the cluster leaves the memoised NIC loads
        // of the pair's two hosts stale.
        ("memoised external load", |s| {
            let alloc = s.cluster.allocation();
            let (u, v, rate) = (s.traffic.pairs().into_iter())
                .find(|&(u, v, _)| alloc.server_of(u) != alloc.server_of(v))
                .expect("a pair across hosts");
            for host in 0..alloc.num_servers() {
                let _ = s
                    .cluster
                    .host_external_load(&s.traffic, ServerId::new(host));
            }
            s.traffic.apply_update(u, v, 2.0 * rate + 1e6);
        }),
        ("ledger", |s| {
            s.ledger.apply_gain(1.0 + 1e-3 * s.ledger.current())
        }),
        // A departure the ring is never told of.
        ("token", |s| {
            let vm = VmId::new(0);
            let quiet: Vec<_> = s.traffic.peers(vm).map(|(p, _)| (vm, p, 0.0)).collect();
            s.apply_traffic_deltas(&quiet).unwrap();
            s.cluster.remove_vm(vm).unwrap();
        }),
    ];
    for (what, corrupt) in corruptions {
        let mut session = quick_scenario(PolicyKind::RoundRobin, 24)
            .session()
            .unwrap();
        session.run(1);
        session.check_invariants();
        corrupt(&mut session);
        let check = std::panic::AssertUnwindSafe(|| session.check_invariants());
        let caught = std::panic::catch_unwind(check).unwrap_err();
        let msg = caught.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.contains(what), "{what}: {msg}");
    }
}

#[test]
fn churn_rejects_dead_or_unknown_vms() {
    let mut session = quick_scenario(PolicyKind::RoundRobin, 22)
        .session()
        .unwrap();
    let n = session.cluster().num_vms();
    session.remove_vm(VmId::new(0)).unwrap();
    assert!(session.remove_vm(VmId::new(0)).is_err(), "double remove");
    assert!(session.remove_vm(VmId::new(n + 7)).is_err(), "out of range");
    assert!(
        session
            .apply_traffic_deltas(&[(VmId::new(0), VmId::new(1), 1e6)])
            .is_err(),
        "deltas must not resurrect a departed VM"
    );
}

#[test]
fn removing_every_vm_drains_the_run_cleanly() {
    let mut session = quick_scenario(PolicyKind::RoundRobin, 23)
        .session()
        .unwrap();
    let n = session.cluster().num_vms();
    for v in 0..n {
        session.remove_vm(VmId::new(v)).unwrap();
    }
    assert_eq!(session.cluster().num_active(), 0);
    // The ledger is a running sum; zeroing every pair leaves only
    // floating-point residue behind.
    assert!(session.current_cost().abs() <= 1e-9 * session.initial_cost().abs().max(1.0));
    session.run_to_horizon();
    assert!(session.horizon_reached());
    // The cluster keeps accepting arrivals after the horizon (the
    // daemon mutates state between runs); ids stay dense.
    let (vm, _) = session.place_vm(None).unwrap();
    assert_eq!(vm.get(), n);
}

#[test]
fn replayed_arrival_must_name_the_next_dense_id() {
    use score_trace::TraceEvent;

    let mut session = quick_scenario(PolicyKind::RoundRobin, 30)
        .session()
        .unwrap();
    let n = session.traffic().num_vms();
    for wrong in [n + 1, 0] {
        let err = session
            .apply_trace_event(&TraceEvent::PlaceVm {
                vm: wrong,
                server: 0,
            })
            .unwrap_err();
        assert!(err.to_string().contains("next arrival"), "{err}");
        assert_eq!(session.traffic().num_vms(), n, "unchanged on error");
    }
    session
        .apply_trace_event(&TraceEvent::PlaceVm { vm: n, server: 0 })
        .unwrap();
    assert_eq!(session.traffic().num_vms(), n + 1);
}

#[test]
fn recorded_churn_replays_identically() {
    let mut live = quick_scenario(PolicyKind::HighestLevelFirst, 31)
        .session()
        .unwrap();
    live.start_trace_recording();
    live.run(1);
    live.drain_to_boundary();
    let (vm, _) = live.place_vm(None).unwrap();
    live.apply_traffic_deltas(&[(vm, VmId::new(2), 8e6)])
        .unwrap();
    live.run(1);
    live.drain_to_boundary();
    live.remove_vm(VmId::new(0)).unwrap();
    live.run_to_horizon();
    let trace = live.recorded_trace().unwrap();
    let live_report = live.report();

    let mut replay = quick_scenario(PolicyKind::HighestLevelFirst, 31)
        .session()
        .unwrap();
    replay.run_storm(trace.events()).unwrap();
    replay.run_to_horizon();
    assert_eq!(
        live_report,
        replay.report(),
        "a recorded churn session must replay byte-for-byte"
    );
}

mod fault_tests {
    use super::*;
    use score_trace::{fault_storm_events, FaultSpec, TraceEvent};

    /// From-scratch Eq.-(2) recomputation, the exactness oracle.
    fn recomputed(session: &Session) -> f64 {
        session.cost_model().total_cost(
            session.cluster().allocation(),
            session.traffic(),
            session.cluster().topo(),
        )
    }

    fn assert_ledger_exact(session: &Session) {
        let truth = recomputed(session);
        assert!(
            (session.current_cost() - truth).abs() <= 1e-9 * truth.abs().max(1.0),
            "ledger drifted: {} vs {truth}",
            session.current_cost()
        );
    }

    #[test]
    fn host_crash_evacuates_with_exact_repricing() {
        let mut session = quick_scenario(PolicyKind::RoundRobin, 41)
            .session()
            .unwrap();
        session.run(1);
        session.drain_to_boundary();
        let server = session.cluster().allocation().server_of(VmId::new(0));
        let victims = session.cluster().allocation().vms_on(server).len();
        assert!(victims > 0);

        let outcome = session
            .apply_fault(&TraceEvent::HostCrash {
                server: server.get(),
            })
            .unwrap();
        assert_eq!(outcome.hosts_failed, vec![server]);
        assert_eq!(outcome.evacuated.len() + outcome.unplaceable.len(), victims);
        assert!(!session.cluster().host_is_up(server));
        // Every live VM sits on a live host, including the evacuees.
        for v in 0..session.cluster().num_vms() {
            let vm = VmId::new(v);
            if session.cluster().is_active(vm) {
                let host = session.cluster().allocation().server_of(vm);
                assert!(
                    session.cluster().host_is_up(host),
                    "{vm} left on dead {host}"
                );
            }
        }
        assert_ledger_exact(&session);

        // A second crash of the same host is a recorded no-op fault.
        let again = session
            .apply_fault(&TraceEvent::HostCrash {
                server: server.get(),
            })
            .unwrap();
        assert!(again.hosts_failed.is_empty());

        session.run_to_horizon();
        assert_ledger_exact(&session);
        let recovery = session.report().recovery;
        assert!(!recovery.is_clean());
        assert_eq!(recovery.faults_injected, 2);
        assert_eq!(recovery.hosts_down, 1);
        assert_eq!(recovery.evacuations, outcome.evacuated.len() as u64);
        assert!(
            recovery.slo_violating_s > 0.0,
            "down host must charge the SLO clock"
        );
        assert!(recovery.time_to_stable_s >= 0.0);
    }

    #[test]
    fn rack_fail_is_a_correlated_sweep() {
        let mut session = quick_scenario(PolicyKind::HighestLevelFirst, 43)
            .session()
            .unwrap();
        session.run(1);
        session.drain_to_boundary();
        let rack = session
            .topo()
            .rack_of(session.cluster().allocation().server_of(VmId::new(1)));
        let outcome = session
            .apply_fault(&TraceEvent::RackFail { rack: rack.get() })
            .unwrap();
        let servers: Vec<_> = session.topo().servers_in_rack(rack).collect();
        assert_eq!(
            outcome.hosts_failed.len(),
            servers.len(),
            "every server of the rack fails"
        );
        for s in servers {
            assert!(!session.cluster().host_is_up(ServerId::new(s)));
        }
        assert_ledger_exact(&session);

        // Out-of-range racks are rejected, session unchanged.
        let down_before = session.cluster().num_hosts_down();
        assert!(matches!(
            session.apply_fault(&TraceEvent::RackFail { rack: 9999 }),
            Err(ScenarioError::Workload(_))
        ));
        assert_eq!(session.cluster().num_hosts_down(), down_before);
    }

    #[test]
    fn link_degrade_charges_the_slo_clock_until_restored() {
        let mut session = quick_scenario(PolicyKind::RoundRobin, 47)
            .session()
            .unwrap();
        session
            .apply_fault(&TraceEvent::LinkDegrade {
                tier: 0,
                factor: 0.5,
            })
            .unwrap();
        assert_eq!(session.degraded_tiers(), vec![(0, 0.5)]);
        assert_eq!(session.cluster().nic_capacity_factor(), 0.5);
        session.run_to_horizon();
        let degraded = session.report().recovery;
        assert!(degraded.slo_violating_s > 0.0);
        assert_eq!(degraded.hosts_down, 0);

        // Restore lifts the degradation and the clock stops.
        session
            .apply_fault(&TraceEvent::LinkRestore { tier: 0 })
            .unwrap();
        assert!(session.degraded_tiers().is_empty());
        assert_eq!(session.cluster().nic_capacity_factor(), 1.0);

        // Invalid factors are rejected before any state changes.
        for bad in [0.0, -0.25, 1.5, f64::NAN] {
            assert!(matches!(
                session.apply_fault(&TraceEvent::LinkDegrade {
                    tier: 0,
                    factor: bad,
                }),
                Err(ScenarioError::Workload(_))
            ));
        }
        assert!(matches!(
            session.apply_fault(&TraceEvent::Marker {
                label: "not a fault".into(),
            }),
            Err(ScenarioError::Workload(_))
        ));
    }

    #[test]
    fn losing_every_rack_degrades_gracefully() {
        let mut session = quick_scenario(PolicyKind::RoundRobin, 53)
            .session()
            .unwrap();
        session.run(1);
        session.drain_to_boundary();
        let racks = session.topo().num_racks() as u32;
        for rack in 0..racks {
            session.apply_fault(&TraceEvent::RackFail { rack }).unwrap();
            #[cfg(debug_assertions)]
            session.check_invariants();
        }
        // No live server remains: every VM was retired as unplaceable
        // (earlier racks' victims evacuate; the last survivors can't),
        // and retiring one zeroed its pairs in the one TM.
        assert_eq!(session.cluster().num_active(), 0);
        assert_eq!(session.traffic().num_pairs(), 0);
        let recovery = session.recovery_stats();
        assert!(recovery.unplaceable_vms > 0);
        assert!(
            session.current_cost().abs() <= 1e-9 * session.initial_cost().abs().max(1.0),
            "an empty cluster carries no communication cost"
        );
        // The dead ring terminates instead of spinning.
        session.run_to_horizon();
        assert!(session.horizon_reached());
    }

    #[test]
    fn fault_storm_keeps_the_ledger_exact() {
        let spec = FaultSpec {
            num_servers: 160,
            num_racks: 32,
            host_crashes: 3,
            rack_fails: 1,
            degradations: 2,
            degrade_factor: 0.4,
            degrade_hold_s: 20.0,
            max_tier: 1,
            horizon_s: 100.0,
        };
        let storm = fault_storm_events(&spec, 7).unwrap();
        assert!(!storm.is_empty());
        let mut session = quick_scenario(PolicyKind::HighestLevelFirst, 59)
            .session()
            .unwrap();
        for ev in &storm {
            session.advance_to(ev.time_s);
            session.apply_fault(&ev.event).unwrap();
            assert_ledger_exact(&session);
        }
        session.run_to_horizon();
        assert_ledger_exact(&session);
        assert_eq!(
            session.report().recovery.faults_injected,
            storm.len() as u64
        );
    }

    #[test]
    fn recorded_fault_run_replays_identically() {
        let spec = FaultSpec {
            num_servers: 160,
            num_racks: 32,
            host_crashes: 2,
            rack_fails: 1,
            degradations: 1,
            degrade_factor: 0.6,
            degrade_hold_s: 30.0,
            max_tier: 0,
            horizon_s: 90.0,
        };
        let storm = fault_storm_events(&spec, 11).unwrap();

        let mut live = quick_scenario(PolicyKind::HighestLevelFirst, 61)
            .session()
            .unwrap();
        live.start_trace_recording();
        for ev in &storm {
            live.advance_to(ev.time_s);
            live.apply_fault(&ev.event).unwrap();
        }
        live.run_to_horizon();
        let trace = live.recorded_trace().unwrap();
        assert!(trace.has_faults());
        let live_report = live.report();
        assert!(!live_report.recovery.is_clean());

        // Only the fault events are in the log — their consequences
        // (evacuations, retirements) are re-derived on replay.
        assert_eq!(trace.events().len(), storm.len());

        let mut replay = quick_scenario(PolicyKind::HighestLevelFirst, 61)
            .session()
            .unwrap();
        for ev in trace.events() {
            replay.advance_to(ev.time_s);
            replay.apply_trace_event(&ev.event).unwrap();
        }
        replay.run_to_horizon();
        assert_eq!(
            live_report,
            replay.report(),
            "a recorded adversity log must replay byte-for-byte"
        );
    }

    /// A compiled batch can outlive the VMs it names: a driver removes
    /// one, or a crash retires it, between materialization and the
    /// batch's firing time. The re-rate is dropped then — not applied
    /// (that would resurrect the pair), not fatal (it used to hit the
    /// `expect` in `Session::step`).
    #[test]
    fn scheduled_shift_naming_a_departed_vm_is_dropped() {
        let trace = Trace::builder(8, 100.0)
            .base_pair(0, 1, 1e6)
            .base_pair(2, 3, 2e6)
            .set_rate(50.0, 0, 1, 5e6)
            .set_rate(60.0, 2, 3, 7e6)
            .build()
            .unwrap();
        let scenario = Scenario::builder()
            .topology(crate::spec::TopologySpec::small_canonical())
            .literal_trace(trace)
            .build();
        let (vm0, vm1, vm2, vm3) = (VmId::new(0), VmId::new(1), VmId::new(2), VmId::new(3));

        // Route 1: a live `remove_vm` before the batch fires.
        let mut session = scenario.session().unwrap();
        session.remove_vm(vm0).unwrap();
        session.run_to_horizon();
        let report = session.report();
        assert_eq!(
            report.trace.events_applied,
            1 + 2,
            "the zeroing and both batches"
        );
        assert_eq!(session.traffic().rate(vm0, vm1), 0.0, "nothing resurrected");
        assert_eq!(
            session.traffic().rate(vm2, vm3),
            7e6,
            "the live pair re-rated"
        );
        assert_ledger_exact(&session);

        // Route 2: a crash with nowhere left to go retires every VM.
        let mut session = scenario.session().unwrap();
        session.advance_to(10.0);
        session.drain_to_boundary();
        for rack in 0..session.topo().num_racks() as u32 {
            session.apply_fault(&TraceEvent::RackFail { rack }).unwrap();
        }
        assert_eq!(session.cluster().num_active(), 0);
        session.run_to_horizon();
        let report = session.report();
        assert_eq!(report.trace.events_applied, 2);
        assert_eq!(report.trace.pairs_repriced, 0);
        assert_eq!(session.traffic().num_pairs(), 0, "nothing resurrected");
        assert_ledger_exact(&session);
    }

    #[test]
    fn scale_pair_on_dead_endpoint_is_a_validated_noop() {
        let mut session = quick_scenario(PolicyKind::RoundRobin, 67)
            .session()
            .unwrap();
        session.remove_vm(VmId::new(0)).unwrap();
        let cost = session.current_cost();
        // Scaling a pair whose endpoint departed must not resurrect it…
        session
            .apply_trace_event(&TraceEvent::ScalePair {
                u: 0,
                v: 1,
                factor: 2.0,
            })
            .unwrap();
        assert_eq!(session.traffic().rate(VmId::new(0), VmId::new(1)), 0.0);
        assert_eq!(session.current_cost(), cost);
        // …and out-of-range endpoints are equally inert.
        session
            .apply_trace_event(&TraceEvent::ScalePair {
                u: 10_000,
                v: 1,
                factor: 0.5,
            })
            .unwrap();
        // An absolute re-rate of a dead VM stays a hard error.
        assert!(session
            .apply_trace_event(&TraceEvent::SetRate {
                u: 0,
                v: 1,
                rate: 1e6,
            })
            .is_err());
    }
}

mod churn_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Satellite regression pin: across arbitrary interleavings
        /// of placements, departures, live deltas and token holds,
        /// the cost ledger still agrees with a from-scratch Eq.-(2)
        /// recomputation.
        #[test]
        fn churn_never_resyncs_and_stays_exact(
            ops in prop::collection::vec((0u8..4, 0u32..64, 0u32..64, 1u32..100), 1..24),
        ) {
            let mut session = quick_scenario(PolicyKind::RoundRobin, 17)
                .session()
                .unwrap();
            for &(kind, a, b, r) in &ops {
                let n = session.cluster().num_vms();
                match kind {
                    0 => {
                        let _ = session.place_vm(None);
                    }
                    1 => {
                        let _ = session.remove_vm(VmId::new(a % n));
                    }
                    2 => {
                        let u = VmId::new(a % n);
                        let v = VmId::new(b % n);
                        if u != v
                            && session.cluster().is_active(u)
                            && session.cluster().is_active(v)
                        {
                            session
                                .apply_traffic_deltas(&[(u, v, f64::from(r) * 1e5)])
                                .unwrap();
                        }
                    }
                    _ => {
                        let _ = session.step();
                    }
                }
            }
            let exact = session.cost_model().total_cost(
                session.cluster().allocation(),
                session.traffic(),
                session.cluster().topo(),
            );
            let got = session.current_cost();
            prop_assert!(
                (got - exact).abs() <= 1e-6 * exact.abs().max(1.0),
                "ledger {} vs exact {}", got, exact
            );
        }
    }
}
