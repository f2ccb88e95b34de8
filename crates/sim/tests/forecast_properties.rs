//! Property-based pins for the forecast-aware decision pipeline.
//!
//! Three contracts hold the refactor together:
//!
//! 1. **Zero-horizon compatibility** — `ForecastSpec::None` and every
//!    zero-horizon variant run the reactive paper pipeline bit for bit:
//!    the `RunReport` JSON of a no-forecast run is **byte-identical**
//!    to a zero-horizon EWMA run (and to a zero-horizon oracle run on
//!    trace workloads), across random tree/fat-tree scenarios, every
//!    policy and random workloads.
//! 2. **Forecaster determinism** — an *active* forecaster stays
//!    deterministic under the work-stealing `MatrixRunner`: the same
//!    sweep produces the same report JSON at 1, 2 and 8 threads, byte
//!    for byte, because each cell builds its own session-owned
//!    forecaster fed a deterministic delta stream.
//! 3. **A uniform scale is an observation like any other** —
//!    `observe_scale` leaves the EWMA estimator in the state
//!    `observe_updates` over every tracked pair's scaled rate would, bit
//!    for bit, and the oracle's one-breakpoint-per-scale index predicts
//!    what an index of expanded per-pair breakpoints would.

use proptest::prelude::*;
use score_sim::{
    ForecastSpec, PolicyKind, Scenario, ScenarioMatrix, TimingSpec, TopologySpec, TraceSpec,
    WorkloadSpec,
};
use score_topology::VmId;
use score_trace::{
    scaled_rate, DiurnalShape, FlashCrowdShape, OracleForecaster, Trace, TraceEvent, TrafficDelta,
};
use score_traffic::{EwmaForecaster, RateForecaster, TrafficIntensity, WorkloadConfig};
use std::collections::BTreeMap;

fn policy_pool() -> [PolicyKind; 5] {
    PolicyKind::all()
}

fn intensity_pool() -> [TrafficIntensity; 3] {
    [
        TrafficIntensity::Sparse,
        TrafficIntensity::Medium,
        TrafficIntensity::Dense,
    ]
}

/// A CI-sized scenario on a real hierarchy (the bit-equality claim is
/// about decision pipelines, so it must run where levels matter: tree
/// and fat-tree, not just stars).
fn quick_scenario(
    tree: bool,
    policy: PolicyKind,
    intensity: TrafficIntensity,
    seed: u64,
) -> Scenario {
    let topology = if tree {
        TopologySpec::CanonicalTree {
            racks: 4,
            hosts_per_rack: 4,
            racks_per_agg: 2,
            cores: 1,
            capacities: None,
        }
    } else {
        TopologySpec::FatTree {
            k: 4,
            capacities: None,
        }
    };
    let mut s = Scenario::builder()
        .topology(topology)
        .num_vms(24)
        .intensity(intensity)
        .workload_seed(seed)
        .policy(policy)
        .seed(seed)
        .build();
    s.timing = TimingSpec {
        t_end_s: 40.0,
        sample_interval_s: 5.0,
        token_hold_s: 0.05,
        token_pass_s: 0.01,
    };
    s
}

/// Runs a scenario to the horizon and serializes its report.
fn report_json(scenario: &Scenario) -> String {
    let mut session = scenario.session().expect("scenario materializes");
    session.run_to_horizon();
    session.report().to_json()
}

/// Swaps in a diurnal trace workload over the same population.
fn with_diurnal_trace(mut scenario: Scenario, seed: u64) -> Scenario {
    scenario.workload = WorkloadSpec::Trace {
        spec: TraceSpec::Diurnal {
            num_vms: 24,
            intensity: TrafficIntensity::Sparse,
            seed,
            shape: DiurnalShape {
                period_s: 20.0,
                amplitude: 0.5,
                step_s: 1.0,
                horizon_s: 40.0,
            },
        },
    };
    scenario
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `ForecastSpec::None` ≡ zero-horizon EWMA, byte for byte, over
    /// random static scenarios on tree and fat-tree fabrics.
    #[test]
    fn zero_horizon_reproduces_baseline_policies(
        tree_pick in 0u8..2,
        policy_pick in 0usize..5,
        intensity_pick in 0usize..3,
        seed in 0u64..10_000,
        alpha_pct in 1u32..=100,
    ) {
        let tree = tree_pick == 1;
        let policy = policy_pool()[policy_pick];
        let intensity = intensity_pool()[intensity_pick];
        let mut reactive = quick_scenario(tree, policy, intensity, seed);
        reactive.forecast = ForecastSpec::None;
        let mut zero = reactive.clone();
        zero.forecast = ForecastSpec::Ewma {
            alpha: f64::from(alpha_pct) / 100.0,
            horizon_s: 0.0,
        };
        prop_assert_eq!(
            report_json(&reactive),
            report_json(&zero),
            "zero-horizon EWMA diverged from the reactive pipeline \
             (tree={}, policy={:?}, seed={})",
            tree, policy, seed
        );
    }

    /// The same claim on trace workloads, for the oracle as well: a
    /// zero-horizon oracle reads nothing ahead and must reproduce the
    /// reactive run byte for byte.
    #[test]
    fn zero_horizon_oracle_reproduces_baseline_on_traces(
        tree_pick in 0u8..2,
        policy_pick in 0usize..5,
        seed in 0u64..10_000,
    ) {
        let tree = tree_pick == 1;
        let policy = policy_pool()[policy_pick];
        let base = with_diurnal_trace(
            quick_scenario(tree, policy, TrafficIntensity::Sparse, seed),
            seed,
        );
        let mut reactive = base.clone();
        reactive.forecast = ForecastSpec::None;
        let mut zero_oracle = base.clone();
        zero_oracle.forecast = ForecastSpec::TraceOracle { horizon_s: 0.0 };
        let mut zero_ewma = base;
        zero_ewma.forecast = ForecastSpec::Ewma { alpha: 0.3, horizon_s: 0.0 };
        let reference = report_json(&reactive);
        prop_assert_eq!(&report_json(&zero_oracle), &reference);
        prop_assert_eq!(&report_json(&zero_ewma), &reference);
    }

    /// Old scenario JSON (no `forecast` key) still loads, defaults to
    /// the reactive pipeline, and runs identically to an explicit
    /// `ForecastSpec::None`.
    #[test]
    fn pre_forecast_scenario_json_still_loads(
        tree_pick in 0u8..2,
        policy_pick in 0usize..5,
        seed in 0u64..10_000,
    ) {
        let tree = tree_pick == 1;
        let scenario = quick_scenario(tree, policy_pool()[policy_pick], TrafficIntensity::Sparse, seed);
        let json = scenario.to_json();
        prop_assert!(json.contains("\"forecast\""));
        // Strip the forecast field the way a pre-refactor writer would
        // never have emitted it.
        let legacy = json.replace("\"forecast\":\"None\",", "");
        prop_assert!(!legacy.contains("forecast"));
        let loaded = Scenario::from_json(&legacy).expect("legacy JSON loads");
        prop_assert_eq!(&loaded, &scenario);
        prop_assert_eq!(loaded.forecast, ForecastSpec::None);
    }

    /// `observe_scale(f, t)` ≡ `observe_updates` fed every tracked
    /// pair's scaled rate at `t`, bit for bit, through any interleaving
    /// with sparse updates (including pairs gone silent and pairs the
    /// forecaster learned of late).
    #[test]
    fn ewma_observe_scale_equals_expanded_updates(
        seed in 0u64..10_000,
        alpha_pct in 1u32..=100,
        ops in prop::collection::vec((0u8..3, 0u32..24, 0u32..24, 0.01f64..30.0), 1..24),
    ) {
        let base = WorkloadConfig::new(24, seed).generate();
        let alpha = f64::from(alpha_pct) / 100.0;
        let mut by_scale = EwmaForecaster::new(alpha);
        let mut by_updates = EwmaForecaster::new(alpha);
        by_scale.prime(&base, 0.0);
        by_updates.prime(&base, 0.0);
        // What `by_updates` is told: the last rate of every pair either
        // forecaster has ever seen (silent pairs stay, at 0).
        let mut rates: BTreeMap<(VmId, VmId), f64> =
            base.pairs().into_iter().map(|(u, v, r)| ((u, v), r)).collect();
        for (step, &(kind, a, b, x)) in ops.iter().enumerate() {
            // Two ops may share an instant: `dt == 0` is a case too.
            let t = (step / 2) as f64 * 3.5;
            if kind == 0 {
                by_scale.observe_scale(x, t);
                for r in rates.values_mut() {
                    *r = scaled_rate(*r, x);
                }
                let expanded: Vec<_> = rates.iter().map(|(&(u, v), &r)| (u, v, r)).collect();
                by_updates.observe_updates(&expanded, t);
            } else if a != b {
                let (u, v) = (VmId::new(a.min(b)), VmId::new(a.max(b)));
                let rate = if kind == 1 { x * 1e6 } else { 0.0 };
                by_scale.observe_updates(&[(u, v, rate)], t);
                by_updates.observe_updates(&[(u, v, rate)], t);
                rates.insert((u, v), rate);
            }
            // Rate, slope and last-seen time are all visible through
            // predictions at a few horizons.
            for &(u, v) in rates.keys() {
                for h in [0.0, 1.25, 60.0] {
                    prop_assert_eq!(
                        by_scale.predict(u, v, t + 0.5, h).to_bits(),
                        by_updates.predict(u, v, t + 0.5, h).to_bits(),
                        "({}, {}) diverged after op {} at horizon {}", u, v, step, h
                    );
                }
            }
        }
        prop_assert_eq!(by_scale.tracked_pairs(), by_updates.tracked_pairs());
    }

    /// The oracle indexes a `ScaleAll` as one breakpoint; its
    /// predictions across any mix of scales and re-rates match a
    /// reference that expands every scale to one breakpoint per pair
    /// (i.e. the exact TM at `now + horizon`) within 1e-12 relative —
    /// wherever the observed clock stands.
    #[test]
    fn oracle_predicts_across_scale_breakpoints(
        seed in 0u64..10_000,
        raw in prop::collection::vec((0u8..3, 1u32..100, 0u32..12, 0u32..12, 0.05f64..6.0), 1..24),
        probes in prop::collection::vec((0u32..100, 0u32..60), 1..8),
    ) {
        let base = WorkloadConfig::new(12, seed).generate();
        let mut builder = Trace::builder(12, 100.0).base_traffic(&base);
        for &(kind, t, a, b, x) in &raw {
            let (time, v) = (f64::from(t), if a == b { (b + 1) % 12 } else { b });
            builder = match kind {
                0 => builder.scale_all(time, x),
                1 => builder.set_rate(time, a, v, x * 1e6),
                _ => builder.scale_pair(time, a, v, x / 2.0),
            };
        }
        let trace = builder.build().unwrap();
        let segment = trace.compile().segments.remove(0);

        // The reference: the exact TM after every event, scales expanded.
        let mut tm: BTreeMap<(u32, u32), f64> = base
            .pairs()
            .iter()
            .map(|&(u, v, r)| ((u.get(), v.get()), r))
            .collect();
        let mut timeline = vec![(0.0, tm.clone())];
        for ev in trace.events() {
            match ev.event {
                TraceEvent::ScaleAll { factor } => {
                    tm.values_mut().for_each(|r| *r = scaled_rate(*r, factor));
                }
                TraceEvent::SetRate { u, v, rate } => {
                    tm.insert((u.min(v), u.max(v)), rate);
                }
                TraceEvent::ScalePair { u, v, factor } => {
                    if let Some(r) = tm.get_mut(&(u.min(v), u.max(v))) {
                        *r = scaled_rate(*r, factor);
                    }
                }
                _ => unreachable!("the builder above emits rate events only"),
            }
            timeline.push((ev.time_s, tm.clone()));
        }
        let reference_at = |t: f64| &timeline[timeline.partition_point(|(at, _)| *at <= t) - 1].1;

        for &(now, horizon) in &probes {
            let (now, horizon) = (f64::from(now), f64::from(horizon));
            // A session tells the oracle of every batch it has applied.
            let mut oracle = OracleForecaster::new();
            oracle.load_segment(&segment);
            for batch in segment.shifts.iter().take_while(|b| b.at_s <= now) {
                match batch.delta {
                    TrafficDelta::Rates(range) => {
                        oracle.observe_updates(segment.shifts.updates(range), batch.at_s);
                    }
                    TrafficDelta::ScaleAll(factor) => oracle.observe_scale(factor, batch.at_s),
                }
            }
            let want = reference_at(now + horizon);
            for u in 0..12u32 {
                for v in u + 1..12 {
                    let got = oracle.predict(VmId::new(u), VmId::new(v), now, horizon);
                    let want = want.get(&(u, v)).copied().unwrap_or(0.0);
                    prop_assert!(
                        (got - want).abs() <= 1e-12 * want,
                        "({}, {}) at {} + {}: oracle {} vs expanded {}", u, v, now, horizon, got, want
                    );
                }
            }
        }
    }
}

/// Active forecasters are deterministic across `MatrixRunner` thread
/// counts {1, 2, 8}: per-cell forecaster state is rebuilt from the
/// cell's own deterministic delta stream, so parallelism stays
/// unobservable.
#[test]
fn forecasting_sweeps_are_thread_count_invariant() {
    for forecast in [
        ForecastSpec::Ewma {
            alpha: 0.4,
            horizon_s: 8.0,
        },
        ForecastSpec::TraceOracle { horizon_s: 8.0 },
    ] {
        let mut base = with_diurnal_trace(
            quick_scenario(
                true,
                PolicyKind::HighestLevelFirst,
                TrafficIntensity::Sparse,
                7,
            ),
            7,
        );
        base.forecast = forecast;
        let matrix = ScenarioMatrix::new(base).policies(PolicyKind::all());
        let reference = matrix.clone().run().unwrap().to_json();
        for threads in [1usize, 2, 8] {
            let parallel = matrix.clone().runner().threads(threads).run().unwrap();
            assert_eq!(
                parallel.to_json(),
                reference,
                "{threads}-thread {} sweep diverged from serial",
                forecast.name()
            );
        }
    }
}

/// An active flash-crowd oracle run pre-empts spikes and its ledger
/// stays exact — the outlook path reads ahead, it never mutates. A pre-emptive migration folds in its *current-TM*
/// gain (possibly ≤ 0), so in debug builds every account is checked
/// after every hold: a mis-absorbed gain or a NIC load left stale by a
/// forecast move fails at the hold that caused it.
#[test]
fn forecasting_never_dirties_the_ledger() {
    let mut scenario = quick_scenario(
        true,
        PolicyKind::HighestLevelFirst,
        TrafficIntensity::Sparse,
        3,
    );
    scenario.workload = WorkloadSpec::Trace {
        spec: TraceSpec::FlashCrowd {
            num_vms: 24,
            intensity: TrafficIntensity::Sparse,
            seed: 3,
            shape: FlashCrowdShape {
                spikes: 4,
                fanout: 4,
                surge_bps: 2e8,
                hold_s: 8.0,
                horizon_s: 40.0,
            },
        },
    };
    scenario.forecast = ForecastSpec::TraceOracle { horizon_s: 12.0 };
    let mut session = scenario.session().unwrap();
    while session.step().is_some() {
        #[cfg(debug_assertions)]
        session.check_invariants();
    }
    assert!(session.horizon_reached());
    assert!(session.report().trace.events_applied > 0);
    assert!(
        session.report().forecast.preempted > 0,
        "the run must take the pre-emptive path it checks"
    );
    let fresh = session.cost_model().total_cost(
        session.cluster().allocation(),
        session.traffic(),
        session.cluster().topo(),
    );
    assert!((session.current_cost() - fresh).abs() <= 1e-9 * fresh.max(1.0));
}
