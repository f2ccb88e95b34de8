//! Property-based serial/parallel equivalence for [`MatrixRunner`].
//!
//! The parallel runner's whole contract is that parallelism is
//! *unobservable* in the results: for any sweep the work-stealing pool
//! must produce a [`MatrixReport`] whose JSON is **byte-identical** to
//! the serial [`ScenarioMatrix::run`] at every thread count — same cell
//! order, same per-cell seeding, same floating-point trajectories.
//! Random policy × topology × intensity grids (plus iteration caps and
//! engine variants) are swept at 1, 2 and 8 threads and compared
//! byte-for-byte against the serial reference. Trace-workload sweeps
//! are held to the same bytes: a session reads no clock, so nothing in
//! a report differs between two runs.

use proptest::prelude::*;
use score_sim::{
    EngineSpec, MatrixReport, PolicyKind, Scenario, ScenarioMatrix, TimingSpec, TopologySpec,
};
use score_traffic::TrafficIntensity;

/// A CI-sized base scenario the random grids expand from.
fn quick_base(seed: u64) -> Scenario {
    let mut s = Scenario::builder().star(8).num_vms(12).build();
    s.seed = seed;
    s.timing = TimingSpec {
        t_end_s: 25.0,
        sample_interval_s: 5.0,
        token_hold_s: 0.05,
        token_pass_s: 0.01,
    };
    s
}

/// The topology pool random grids draw from (all CI-sized, all valid).
fn topology_pool() -> [TopologySpec; 3] {
    [
        TopologySpec::Star {
            hosts: 8,
            capacities: None,
        },
        TopologySpec::Star {
            hosts: 12,
            capacities: None,
        },
        TopologySpec::FatTree {
            k: 4,
            capacities: None,
        },
    ]
}

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

/// Expands index selections into a sweep over the pools above.
fn build_matrix(
    seed: u64,
    topo_picks: &[usize],
    policy_picks: &[usize],
    intensity_picks: &[usize],
    iteration_cap: Option<usize>,
    sweep_engines: bool,
) -> ScenarioMatrix {
    let topologies: Vec<TopologySpec> = topo_picks
        .iter()
        .map(|&i| topology_pool()[i % topology_pool().len()])
        .collect();
    let policies: Vec<PolicyKind> = policy_picks
        .iter()
        .map(|&i| policy_pool()[i % policy_pool().len()])
        .collect();
    let intensities: Vec<TrafficIntensity> = intensity_picks
        .iter()
        .map(|&i| intensity_pool()[i % intensity_pool().len()])
        .collect();
    let mut matrix = ScenarioMatrix::new(quick_base(seed))
        .topologies(topologies)
        .policies(policies)
        .intensities(intensities);
    if sweep_engines {
        matrix = matrix.engines([
            ("paper".to_string(), EngineSpec::Paper),
            (
                "pricey".to_string(),
                EngineSpec::Paper.with_migration_cost(5e7),
            ),
        ]);
    }
    if let Some(n) = iteration_cap {
        matrix = matrix.iterations(n);
    }
    matrix
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random grids, every thread count produces byte-identical
    /// `MatrixReport` JSON.
    #[test]
    fn parallel_report_json_is_byte_identical(
        seed in 0u64..10_000,
        topo_picks in prop::collection::vec(0usize..3, 1..3),
        policy_picks in prop::collection::vec(0usize..4, 1..4),
        intensity_picks in prop::collection::vec(0usize..3, 1..3),
        cap in 0usize..3,
        sweep_engines in 0u8..2,
    ) {
        let iteration_cap = (cap > 0).then_some(cap);
        let matrix = build_matrix(
            seed,
            &topo_picks,
            &policy_picks,
            &intensity_picks,
            iteration_cap,
            sweep_engines == 1,
        );
        let serial_json = matrix.clone().run().unwrap().to_json();
        for threads in [1usize, 2, 8] {
            let parallel = matrix.clone().runner().threads(threads).run().unwrap();
            let parallel_json = parallel.to_json();
            prop_assert_eq!(
                &parallel_json,
                &serial_json,
                "{} threads diverged from the serial reference",
                threads
            );
            // And the parsed reports agree structurally too.
            let back = MatrixReport::from_json(&parallel_json).unwrap();
            prop_assert_eq!(back.cells.len(), parallel.cells.len());
        }
    }

    /// Repeated parallel runs of the same sweep are self-identical
    /// (no run-to-run nondeterminism sneaks in through the pool).
    #[test]
    fn parallel_runs_are_reproducible(
        seed in 0u64..10_000,
        policy_picks in prop::collection::vec(0usize..4, 2..4),
    ) {
        let matrix = build_matrix(seed, &[0], &policy_picks, &[0], Some(2), false);
        let first = matrix.clone().runner().threads(8).run().unwrap().to_json();
        let second = matrix.runner().threads(8).run().unwrap().to_json();
        prop_assert_eq!(first, second);
    }
}

/// Trace-workload sweeps: byte-identical at any thread count, like
/// static ones.
#[test]
fn trace_sweeps_are_byte_identical() {
    use score_sim::{TraceSpec, WorkloadSpec};
    use score_trace::DiurnalShape;
    let mut base = quick_base(7);
    base.workload = WorkloadSpec::Trace {
        spec: TraceSpec::Diurnal {
            num_vms: 12,
            intensity: TrafficIntensity::Sparse,
            seed: 7,
            shape: DiurnalShape {
                period_s: 20.0,
                amplitude: 0.5,
                step_s: 1.0,
                horizon_s: 25.0,
            },
        },
    };
    let matrix = ScenarioMatrix::new(base).policies(PolicyKind::all());
    let serial = matrix.clone().run().unwrap().to_json();
    for threads in [2usize, 8] {
        let parallel = matrix.clone().runner().threads(threads).run().unwrap();
        // Deltas really were applied in every cell.
        assert!(parallel
            .cells
            .iter()
            .all(|c| c.report.trace.events_applied > 0));
        assert_eq!(
            parallel.to_json(),
            serial,
            "{threads}-thread trace sweep diverged"
        );
    }
}

/// A failing cell mid-grid: valid cells around two invalid fabrics. At
/// any width the runner must return the error the serial loop stops at,
/// the earlier invalid cell's, even when a worker reaches the later one
/// first.
#[test]
fn a_failing_cell_mid_grid_returns_the_serial_error() {
    let matrix = ScenarioMatrix::new(quick_base(3))
        .topologies([
            TopologySpec::Star {
                hosts: 8,
                capacities: None,
            },
            TopologySpec::FatTree {
                k: 3,
                capacities: None,
            },
            TopologySpec::Star {
                hosts: 12,
                capacities: None,
            },
            TopologySpec::FatTree {
                k: 5,
                capacities: None,
            },
        ])
        .policies(PolicyKind::paper_policies());
    let serial = matrix.clone().run().unwrap_err();
    let alone = |k| {
        ScenarioMatrix::new(quick_base(3))
            .topologies([TopologySpec::FatTree {
                k,
                capacities: None,
            }])
            .run()
            .unwrap_err()
    };
    assert_eq!(serial, alone(3));
    assert_ne!(serial, alone(5), "the two invalid cells must be told apart");
    for threads in [1usize, 2, 8] {
        let parallel = matrix.clone().runner().threads(threads).run().unwrap_err();
        assert_eq!(parallel, serial, "{threads} threads");
    }
}
