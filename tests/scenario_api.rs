//! Acceptance tests for the `Scenario`/`Session` API: serde round-trips
//! that preserve behavior exactly, and a smoke matrix over every policy
//! and fabric family.

use s_core::sim::{EngineSpec, PolicyKind, RunReport, Scenario, TopologySpec, WorkloadSpec};
use s_core::traffic::TrafficIntensity;

fn quick(policy: PolicyKind, topology: TopologySpec) -> Scenario {
    let mut scenario = Scenario::builder()
        .topology(topology)
        .sparse_traffic(7)
        .policy(policy)
        .horizon(60.0)
        .build();
    scenario.timing.token_hold_s = 0.05;
    scenario.timing.token_pass_s = 0.01;
    scenario
}

/// A scenario file written before the initial placement, the candidate
/// cap, the engine's pre-copy and background knobs and the per-VM
/// resource overrides left the schema:
/// `scorectl --topology star --hosts 8 --vms-per-host 2 --policy hlf
/// --cm 1e6 --t-end 5 --seed 7 --emit-scenario`, with `max_candidates`,
/// `link_bps` and `background` then set by hand to values that once
/// capped the probes, panicked the pre-copy model and ran at 700 % of
/// link capacity. Such a file still loads, its retired keys are
/// ignored, and it runs exactly as the same scenario written today.
const OLDER_SCENARIO: &str = r#"{
  "topology": {"Star": {"hosts": 8, "capacities": null}},
  "workload": {"Synthetic": {"intensity": "Sparse", "vms_per_host": 2.0, "seed": 7}},
  "placement": {"Random": {"salt": 0}},
  "resources": {
    "server": {"vm_slots": 16, "ram_mb": 4096, "cpu_cores": 8.0, "nic_bps": 1000000000.0},
    "vm": {"ram_mb": 196, "cpu_cores": 0.25},
    "vm_overrides": []
  },
  "policy": "HighestLevelFirst",
  "engine": {
    "Custom": {
      "score": {"migration_cost": 1000000.0, "bandwidth_threshold": 1.0, "max_candidates": 1},
      "weights": {
        "costs": [1.0, 2.718281828459045, 20.085536923187668],
        "prefix": [0.0, 1.0, 3.718281828459045, 23.803818751646713]
      },
      "precopy": {
        "ram_bytes": 205520896.0,
        "skip_fraction_mean": 0.37,
        "skip_fraction_std": 0.054,
        "dirty_rate_mean": 1600000.0,
        "dirty_rate_std": 800000.0,
        "stop_threshold_bytes": 524288.0,
        "max_rounds": 30,
        "setup_s": 1.85,
        "suspend_overhead_mean_s": 0.009,
        "suspend_overhead_jitter_s": 0.003,
        "link_bps": 0.0
      },
      "background": 7.0
    }
  },
  "forecast": "None",
  "timing": {"t_end_s": 5.0, "sample_interval_s": 5.0, "token_hold_s": 0.08, "token_pass_s": 0.02},
  "seed": 7
}"#;

#[test]
fn older_scenario_files_load_and_run_as_written_today() {
    let run = |scenario: &Scenario| -> RunReport {
        let mut session = scenario.session().expect("scenario is feasible");
        session.run_to_horizon();
        session.report()
    };
    let older = Scenario::from_json(OLDER_SCENARIO).expect("an older file loads");
    let report = run(&older);
    let today = Scenario::builder()
        .star(8)
        .sparse_traffic(7)
        .vms_per_host(2.0)
        .policy(PolicyKind::HighestLevelFirst)
        .migration_cost(1e6)
        .horizon(5.0)
        .seed(7)
        .build();
    assert_eq!(older, today);
    let json = older.to_json();
    for retired in [
        "placement",
        "max_candidates",
        "precopy",
        "background",
        "vm_overrides",
    ] {
        assert!(!json.contains(retired), "{retired} is written: {json}");
    }
    assert_eq!(report.to_json(), run(&today).to_json());
    assert!(!report.migrations.is_empty(), "the run migrates");
    assert!(
        report.total_downtime_s() < 1.0,
        "idle-link downtimes, got {} s",
        report.total_downtime_s()
    );
}

/// Spec → JSON → spec must be identity.
#[test]
fn scenario_json_round_trip_is_identity() {
    let scenarios = [
        Scenario::small_canonical(TrafficIntensity::Sparse, 1),
        Scenario::small_fattree(TrafficIntensity::Medium, 2),
        Scenario::paper_canonical(TrafficIntensity::Dense, 3),
        Scenario::builder()
            .fat_tree(4)
            .dense_traffic(9)
            .policy(PolicyKind::HighestCostFirst)
            .migration_cost(5e8)
            .num_vms(64)
            .horizon(90.0)
            .seed(1234)
            .build(),
        Scenario::builder()
            .star(16)
            .policy(PolicyKind::Random)
            .build(),
        // Explicit pair lists and non-default resource specs round-trip
        // like every other dimension.
        Scenario::builder()
            .star(8)
            .explicit_pairs(6, vec![(0, 1, 2.5e8), (1, 2, 1e7), (4, 5, 3.0)])
            .build(),
        Scenario::builder()
            .server_spec(s_core::core::ServerSpec {
                vm_slots: 4,
                ram_mb: 8192,
                cpu_cores: 16.0,
                nic_bps: 10e9,
            })
            .vm_spec(s_core::core::VmSpec {
                ram_mb: 1024,
                cpu_cores: 2.0,
            })
            .build(),
    ];
    for scenario in scenarios {
        let json = scenario.to_json();
        let back = Scenario::from_json(&json).expect("round-trip parses");
        assert_eq!(back, scenario, "round-trip must be identity for {json}");
        let pretty = Scenario::from_json(&scenario.to_json_pretty()).expect("pretty parses");
        assert_eq!(pretty, scenario);
    }
}

/// A deserialized spec must produce *bit-identical* session behavior
/// under a fixed seed: same costs, same migrations, same everything.
#[test]
fn deserialized_scenario_behaves_identically() {
    let original = quick(
        PolicyKind::HighestLevelFirst,
        TopologySpec::small_canonical(),
    );
    let restored = Scenario::from_json(&original.to_json()).expect("round-trip parses");

    let run = |scenario: &Scenario| -> RunReport {
        let mut session = scenario.session().expect("scenario is feasible");
        session.run_to_horizon();
        session.report()
    };
    let a = run(&original);
    let b = run(&restored);
    assert_eq!(
        a, b,
        "original and round-tripped scenarios must behave identically"
    );
    assert!(
        a.final_cost < a.initial_cost,
        "the run actually did something"
    );
    assert!(!a.migrations.is_empty());
}

/// Every policy × both paper topologies runs one full iteration.
#[test]
fn smoke_every_policy_on_both_topologies() {
    for topology in [
        TopologySpec::small_canonical(),
        TopologySpec::small_fattree(),
    ] {
        for policy in PolicyKind::all() {
            let mut scenario = quick(policy, topology);
            // One iteration needs |V| holds; leave generous sim time.
            scenario.timing.t_end_s = 1e5;
            let mut session = scenario
                .session()
                .unwrap_or_else(|e| panic!("{}/{}: {e}", topology.name(), policy.name()));
            let stats = session.run(1);
            assert_eq!(
                stats.len(),
                1,
                "{}/{}: one iteration must complete",
                topology.name(),
                policy.name()
            );
            assert_eq!(stats[0].steps, session.traffic().num_vms() as usize);
            assert!(
                session.current_cost() <= session.initial_cost() + 1e-9,
                "{}/{}: cost must not increase",
                topology.name(),
                policy.name()
            );
            let report = session.report();
            assert_eq!(report.policy, policy.name());
            assert_eq!(report.topology, topology.name());
            // The unified report serializes for every combination.
            let back = RunReport::from_json(&report.to_json()).expect("report round-trips");
            assert_eq!(back, report);
        }
    }
}

/// The engine spec's knobs reach the decision procedure: a prohibitive
/// migration cost suppresses all migrations.
#[test]
fn migration_cost_knob_reaches_the_engine() {
    let mut scenario = quick(
        PolicyKind::HighestLevelFirst,
        TopologySpec::small_canonical(),
    );
    scenario.engine = EngineSpec::Paper.with_migration_cost(1e30);
    let mut session = scenario.session().expect("scenario is feasible");
    session.run_to_horizon();
    let report = session.report();
    assert!(
        report.migrations.is_empty(),
        "a prohibitive c_m must veto every move"
    );
    assert_eq!(report.final_cost, report.initial_cost);
}

/// Unusable timing parameters are rejected at materialization instead
/// of hanging (zero sample interval) or panicking (negative delays)
/// inside the event loop.
#[test]
fn bad_timing_is_an_error_not_a_hang() {
    use s_core::sim::ScenarioError;
    let base = quick(PolicyKind::RoundRobin, TopologySpec::small_canonical());
    for (patch, label) in [
        ((0.0, 5.0, 0.05, 0.01), "zero horizon"),
        ((60.0, 0.0, 0.05, 0.01), "zero sample interval"),
        ((60.0, 5.0, -0.05, 0.01), "negative token hold"),
        ((60.0, 5.0, 0.05, f64::NAN), "NaN token pass"),
        ((60.0, 5.0, 0.0, 0.0), "zero token hold and pass"),
    ] {
        let mut scenario = base.clone();
        (
            scenario.timing.t_end_s,
            scenario.timing.sample_interval_s,
            scenario.timing.token_hold_s,
            scenario.timing.token_pass_s,
        ) = patch;
        // The spec still round-trips (it is just data) …
        if patch.3.is_finite() {
            assert_eq!(Scenario::from_json(&scenario.to_json()).unwrap(), scenario);
        }
        // … but cannot be materialized.
        assert!(
            matches!(scenario.session(), Err(ScenarioError::Timing(_))),
            "{label} must be rejected"
        );
    }
}

/// Non-finite engine parameters are rejected at materialization: the
/// JSON writer renders them as `null`, so an emitted spec would be
/// unreloadable.
#[test]
fn non_finite_engine_params_are_an_error() {
    use s_core::sim::ScenarioError;
    let paper = s_core::core::ScoreConfig::paper_default();
    let with = |score| {
        let mut engine = EngineSpec::custom();
        if let EngineSpec::Custom { score: s, .. } = &mut engine {
            *s = score;
        }
        engine
    };
    for engine in [
        EngineSpec::Paper.with_migration_cost(f64::NAN),
        // Valid floats that would load and then never migrate.
        with(s_core::core::ScoreConfig {
            bandwidth_threshold: 0.0,
            ..paper
        }),
        with(s_core::core::ScoreConfig {
            bandwidth_threshold: -0.5,
            ..paper
        }),
    ] {
        let mut scenario = quick(PolicyKind::RoundRobin, TopologySpec::small_canonical());
        scenario.engine = engine.clone();
        let result = scenario.session();
        assert!(
            matches!(result, Err(ScenarioError::Engine(_))),
            "{engine:?} must be refused"
        );
    }
}

/// The builder's canonical-tree derivation must always pick a valid
/// aggregation grouping (a divisor of the rack count).
#[test]
fn canonical_tree_builder_accepts_awkward_rack_counts() {
    for racks in [1u32, 2, 3, 9, 11, 13, 14, 15, 17, 18, 32, 128] {
        let scenario = Scenario::builder()
            .canonical_tree(racks, 2)
            .num_vms(racks)
            .horizon(1.0)
            .build();
        let session = scenario
            .session()
            .unwrap_or_else(|e| panic!("racks={racks}: {e}"));
        assert_eq!(session.topo().num_racks(), racks as usize);
    }
}

/// Workload specs with an explicit population are honoured.
#[test]
fn fixed_vm_population_is_honoured() {
    let scenario = Scenario::builder().num_vms(48).sparse_traffic(5).build();
    assert_eq!(
        scenario.workload,
        WorkloadSpec::FixedVms {
            intensity: TrafficIntensity::Sparse,
            num_vms: 48,
            seed: 5
        }
    );
    let session = scenario.session().expect("scenario is feasible");
    assert_eq!(session.traffic().num_vms(), 48);
    assert_eq!(session.cluster().num_vms(), 48);
}
