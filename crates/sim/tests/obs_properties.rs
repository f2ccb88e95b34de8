//! Property pins for the observability determinism contract: attaching a
//! `score_obs::ObsHandle` (registry + journal, all instruments live) to a
//! `Session` must leave the `RunReport` JSON **byte-identical** to a bare
//! run — on tree and fat-tree fabrics, across every policy, on static,
//! trace-driven and forecasted workloads. Nothing is normalized: a
//! session reads no clock, so two runs of the same scenario serialize
//! to the same bytes, observability or not.

use proptest::prelude::*;
use score_obs::ObsHandle;
use score_sim::{
    ForecastSpec, PolicyKind, Scenario, TimingSpec, TopologySpec, TraceSpec, WorkloadSpec,
};
use score_trace::DiurnalShape;
use score_traffic::TrafficIntensity;

fn quick_scenario(tree: bool, policy: PolicyKind, seed: u64) -> Scenario {
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
        .intensity(TrafficIntensity::Medium)
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

/// Runs `scenario` to the horizon with or without observability
/// attached, returning the report JSON.
fn run_json(scenario: &Scenario, obs: Option<&ObsHandle>) -> String {
    let mut session = scenario.session().expect("scenario materializes");
    if let Some(handle) = obs {
        session.attach_obs(handle);
        assert!(session.obs_attached());
    }
    session.run_to_horizon();
    session.report().to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Static workloads: attached ≡ bare, byte for byte, and the attached
    /// run actually recorded decisions (the contract is "invisible", not
    /// "inert").
    #[test]
    fn obs_attached_static_run_is_byte_identical(
        tree_pick in 0u8..2,
        policy_pick in 0usize..5,
        seed in 0u64..10_000,
    ) {
        let policy = PolicyKind::all()[policy_pick];
        let scenario = quick_scenario(tree_pick == 1, policy, seed);
        let bare = run_json(&scenario, None);
        let handle = ObsHandle::new();
        let attached = run_json(&scenario, Some(&handle));
        prop_assert_eq!(bare, attached,
            "obs changed a static run (tree={}, policy={:?}, seed={})",
            tree_pick == 1, policy, seed);
        let hops = handle
            .counter("score_token_hops_total{policy=\"unreached\"}")
            .unwrap()
            .get();
        prop_assert_eq!(hops, 0, "label isolation broke");
        let json = handle.snapshot_json().unwrap();
        prop_assert!(json.contains("score_decision_latency_ns"), "no decisions recorded: {}", json);
        prop_assert!(!handle.journal().unwrap().is_empty(), "journal stayed empty");
    }

    /// Trace-driven + forecasted workloads: attached ≡ bare across
    /// delta batches, forecast-error scoring and the oracle pipeline.
    #[test]
    fn obs_attached_trace_run_is_byte_identical(
        tree_pick in 0u8..2,
        policy_pick in 0usize..5,
        seed in 0u64..10_000,
        forecast_pick in 0u8..3,
    ) {
        let policy = PolicyKind::all()[policy_pick];
        let mut scenario = with_diurnal_trace(
            quick_scenario(tree_pick == 1, policy, seed),
            seed,
        );
        scenario.forecast = match forecast_pick {
            0 => ForecastSpec::None,
            1 => ForecastSpec::Ewma { alpha: 0.3, horizon_s: 5.0 },
            _ => ForecastSpec::TraceOracle { horizon_s: 5.0 },
        };
        let bare = run_json(&scenario, None);
        let attached = run_json(&scenario, Some(&ObsHandle::new()));
        prop_assert_eq!(bare, attached,
            "obs changed a trace run (tree={}, policy={:?}, seed={}, forecast={})",
            tree_pick == 1, policy, seed, forecast_pick);
    }
}

/// The forecast-error surface lands in the report: an active
/// nonzero-horizon forecaster on a time-varying trace scores evaluations,
/// and the oracle's MAE beats (or ties) the EWMA's on the same trace.
#[test]
fn forecast_error_metrics_populate() {
    let base = with_diurnal_trace(quick_scenario(true, PolicyKind::RoundRobin, 7), 7);

    let mut reactive = base.clone();
    reactive.forecast = ForecastSpec::None;
    let mut s = reactive.session().unwrap();
    s.run_to_horizon();
    let r = s.report();
    assert_eq!(r.forecast.error_samples, 0);
    assert_eq!(r.forecast.mae, 0.0);
    assert_eq!(r.forecast.bias, 0.0);

    let mae_of = |spec: ForecastSpec| {
        let mut sc = base.clone();
        sc.forecast = spec;
        let mut session = sc.session().unwrap();
        session.run_to_horizon();
        let forecast = session.report().forecast;
        assert!(
            forecast.error_samples > 0,
            "active forecaster scored no evaluations"
        );
        forecast.mae
    };
    let ewma_mae = mae_of(ForecastSpec::Ewma {
        alpha: 0.3,
        horizon_s: 5.0,
    });
    let oracle_mae = mae_of(ForecastSpec::TraceOracle { horizon_s: 5.0 });
    assert!(
        oracle_mae <= ewma_mae + 1e-9,
        "the exact-lookahead oracle (mae={oracle_mae}) must not lose to EWMA (mae={ewma_mae})"
    );
}
