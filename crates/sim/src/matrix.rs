//! Declarative scenario sweeps: [`ScenarioMatrix`] expands a base
//! [`Scenario`] along policy × topology × intensity (× engine) axes,
//! runs every cell, and collects the resulting [`RunReport`]s into one
//! serializable [`MatrixReport`] with a single JSON writer.
//!
//! Before this existed every figure binary hand-rolled the same nested
//! loops (clone the scenario, poke one field, materialize, run, stash
//! the report); the matrix is that loop as data. Cells run through the
//! ordinary `Scenario → Session` path, so everything a scenario can
//! declare — placements, resources, explicit workloads — sweeps for
//! free.
//!
//! # Parallel sweeps
//!
//! Cells are independent — each builds its own `Session` (cluster,
//! token ring, RNG) from its own `Scenario`, so a sweep fans out onto
//! worker threads with no shared mutable state. [`MatrixRunner`]
//! (via [`ScenarioMatrix::runner`]) runs the same cells on scoped
//! `std` threads: [`MatrixRunner::threads`] picks the width, and the
//! resulting [`MatrixReport`] is **bit-identical** to the serial
//! [`ScenarioMatrix::run`] — same cell order, same per-cell seeds, same
//! JSON — at any thread count, trace workloads included (pinned by the
//! proptests in `tests/matrix_parallel.rs`): a session reads no clock,
//! so nothing in a report varies between two runs.
//!
//! # Example
//!
//! ```
//! use score_sim::{PolicyKind, Scenario, ScenarioMatrix};
//! use score_traffic::TrafficIntensity;
//!
//! let base = Scenario::builder().star(8).num_vms(12).horizon(30.0).build();
//! let results = ScenarioMatrix::new(base)
//!     .policies(PolicyKind::paper_policies())
//!     .intensities([TrafficIntensity::Sparse, TrafficIntensity::Dense])
//!     .run()
//!     .unwrap();
//! assert_eq!(results.cells.len(), 4);
//! for cell in &results.cells {
//!     assert!(cell.report.final_cost <= cell.report.initial_cost);
//! }
//! ```

use score_traffic::TrafficIntensity;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::report::RunReport;
use crate::spec::{EngineSpec, PolicyKind, Scenario, ScenarioError, TopologySpec};

/// How far each cell's session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunLength {
    /// Run until the scenario's simulation horizon (the default).
    ToHorizon,
    /// Run a fixed number of full token iterations (`|V|` holds each),
    /// stopping early at the horizon.
    Iterations(usize),
}

/// One labeled engine-axis entry (the label names the sweep point in
/// reports, e.g. `"base-10"` for a link-weight variant).
type LabeledEngine = (String, EngineSpec);

/// A policy × topology × intensity (× engine) sweep over one base
/// scenario (see the module docs).
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    base: Scenario,
    topologies: Vec<TopologySpec>,
    intensities: Vec<TrafficIntensity>,
    policies: Vec<PolicyKind>,
    engines: Vec<LabeledEngine>,
    run_length: RunLength,
}

/// One materialized-and-run cell of a [`ScenarioMatrix`].
///
/// For trace workloads with phase markers, a `ToHorizon` run replays
/// the whole trace and `report` covers its final segment; collect
/// per-segment reports through [`crate::Session::run_trace`] directly
/// when you need them all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixCell {
    /// The policy this cell ran.
    pub policy: PolicyKind,
    /// The fabric this cell ran on.
    pub topology: TopologySpec,
    /// The workload intensity (`None` for explicit-pair workloads).
    pub intensity: Option<TrafficIntensity>,
    /// The engine-axis label (`None` when the engine axis was not
    /// swept).
    pub engine_label: Option<String>,
    /// The full scenario the cell materialized (reproducible on its
    /// own: `cell.scenario.session()`).
    pub scenario: Scenario,
    /// The unified result of the run.
    pub report: RunReport,
}

/// The collected results of a [`ScenarioMatrix::run`]: every cell's
/// scenario and [`RunReport`], serializable as one JSON document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixReport {
    /// All cells in axis order (topology-major, then intensity, engine,
    /// policy).
    pub cells: Vec<MatrixCell>,
}

impl ScenarioMatrix {
    /// Starts a sweep from a base scenario; every axis defaults to the
    /// base's own value until overridden.
    pub fn new(base: Scenario) -> Self {
        ScenarioMatrix {
            base,
            topologies: Vec::new(),
            intensities: Vec::new(),
            policies: Vec::new(),
            engines: Vec::new(),
            run_length: RunLength::ToHorizon,
        }
    }

    /// Sweeps the fabric axis.
    pub fn topologies(mut self, topologies: impl IntoIterator<Item = TopologySpec>) -> Self {
        self.topologies = topologies.into_iter().collect();
        self
    }

    /// Sweeps the workload-intensity axis. When the base workload has
    /// no intensity (explicit pair lists), the axis collapses to a
    /// single point instead of running identical cells.
    pub fn intensities(mut self, intensities: impl IntoIterator<Item = TrafficIntensity>) -> Self {
        self.intensities = intensities.into_iter().collect();
        self
    }

    /// Sweeps the token-policy axis.
    pub fn policies(mut self, policies: impl IntoIterator<Item = PolicyKind>) -> Self {
        self.policies = policies.into_iter().collect();
        self
    }

    /// Sweeps the engine axis over labeled variants (weights, migration
    /// costs, pre-copy models).
    pub fn engines(
        mut self,
        engines: impl IntoIterator<Item = (impl Into<String>, EngineSpec)>,
    ) -> Self {
        self.engines = engines
            .into_iter()
            .map(|(label, spec)| (label.into(), spec))
            .collect();
        self
    }

    /// Caps each cell at `n` full token iterations instead of running
    /// to the scenario horizon.
    pub fn iterations(mut self, n: usize) -> Self {
        self.run_length = RunLength::Iterations(n);
        self
    }

    /// The scenarios this sweep will run, in cell order, with their
    /// engine labels — without materializing anything.
    pub fn scenarios(&self) -> Vec<(Option<String>, Scenario)> {
        let topologies = match self.topologies.is_empty() {
            true => vec![self.base.topology],
            false => self.topologies.clone(),
        };
        let policies = match self.policies.is_empty() {
            true => vec![self.base.policy],
            false => self.policies.clone(),
        };
        let engines: Vec<Option<LabeledEngine>> = match self.engines.is_empty() {
            true => vec![None],
            false => self.engines.iter().cloned().map(Some).collect(),
        };
        // An intensity-less workload (explicit pairs) collapses the
        // intensity axis to one point — expanding it would run N
        // identical cells that no `for_intensity` query could find.
        let intensity_points: Vec<Option<TrafficIntensity>> =
            match self.intensities.is_empty() || self.base.workload.intensity().is_none() {
                true => vec![None],
                false => self.intensities.iter().copied().map(Some).collect(),
            };
        let mut out = Vec::new();
        for &topology in &topologies {
            for &intensity in &intensity_points {
                for engine in &engines {
                    for &policy in &policies {
                        let mut scenario = self.base.clone();
                        scenario.topology = topology;
                        if let Some(i) = intensity {
                            scenario.workload = scenario.workload.with_intensity(i);
                        }
                        if let Some((_, spec)) = engine {
                            scenario.engine = spec.clone();
                        }
                        scenario.policy = policy;
                        out.push((engine.as_ref().map(|(label, _)| label.clone()), scenario));
                    }
                }
            }
        }
        out
    }

    /// Number of cells the sweep expands to.
    pub fn len(&self) -> usize {
        let intensity_points = match self.base.workload.intensity() {
            Some(_) => self.intensities.len().max(1),
            None => 1,
        };
        self.topologies.len().max(1)
            * intensity_points
            * self.engines.len().max(1)
            * self.policies.len().max(1)
    }

    /// True when the sweep is a single cell (the degenerate base-only
    /// matrix).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Materializes and runs every cell serially, collecting one
    /// [`RunReport`] per cell. For multi-core sweeps see
    /// [`ScenarioMatrix::runner`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] hit while materializing a
    /// cell (invalid topology dimensions, infeasible placement, …).
    pub fn run(&self) -> Result<MatrixReport, ScenarioError> {
        let mut cells = Vec::with_capacity(self.len());
        for (engine_label, scenario) in self.scenarios() {
            cells.push(run_cell(engine_label, scenario, self.run_length)?);
        }
        Ok(MatrixReport { cells })
    }

    /// Wraps the sweep in a [`MatrixRunner`] for multi-core execution.
    /// The runner defaults to serial (one thread); chain
    /// [`MatrixRunner::threads`] to widen it.
    pub fn runner(self) -> MatrixRunner {
        MatrixRunner {
            matrix: self,
            threads: 1,
        }
    }
}

/// Materializes and runs one cell — the unit of work both the serial
/// loop and the parallel runner schedule. Everything a cell touches
/// (session, ring, RNG) is built here from the cell's own `Scenario`,
/// which is what makes parallel execution trivially deterministic.
fn run_cell(
    engine_label: Option<String>,
    scenario: Scenario,
    run_length: RunLength,
) -> Result<MatrixCell, ScenarioError> {
    let mut session = scenario.session()?;
    match run_length {
        RunLength::ToHorizon => {
            // Trace workloads with phase markers replay *every* segment
            // (the report then covers the final one) — stopping at the
            // first marker would silently truncate the trace.
            session.run_to_horizon();
            while session.advance_trace_segment()? {
                session.run_to_horizon();
            }
        }
        RunLength::Iterations(n) => {
            session.run(n);
        }
    }
    let report = session.report();
    Ok(MatrixCell {
        policy: scenario.policy,
        topology: scenario.topology,
        intensity: scenario.workload.intensity(),
        engine_label,
        scenario,
        report,
    })
}

/// Parallel executor for a [`ScenarioMatrix`].
///
/// [`MatrixRunner::threads`] workers on one `std::thread::scope` each
/// claim the next unclaimed cell index from a shared counter, so a
/// sweep's wall-clock approaches `serial_time / threads` even when cell
/// durations are skewed (dense cells migrate more and run longer than
/// sparse ones): a worker that finishes early just claims more. Each
/// worker materializes its cell's `Session` from scratch — nothing is
/// shared across cells but the immutable `ScenarioMatrix` — and writes
/// the outcome into that cell's slot. Slots are read back in cell
/// order, so the [`MatrixReport`] (and its JSON) is
/// bit-identical to [`ScenarioMatrix::run`] at any thread count.
///
/// # Example
///
/// ```
/// use score_sim::{PolicyKind, Scenario, ScenarioMatrix};
///
/// let base = Scenario::builder().star(8).num_vms(12).horizon(30.0).build();
/// let parallel = ScenarioMatrix::new(base.clone())
///     .policies(PolicyKind::paper_policies())
///     .runner()
///     .threads(4)
///     .run()
///     .unwrap();
/// let serial = ScenarioMatrix::new(base)
///     .policies(PolicyKind::paper_policies())
///     .run()
///     .unwrap();
/// assert_eq!(parallel, serial);
/// ```
#[derive(Debug, Clone)]
pub struct MatrixRunner {
    matrix: ScenarioMatrix,
    /// Worker count; `1` short-circuits to the serial path.
    threads: usize,
}

impl MatrixRunner {
    /// Sets the worker count (clamped to at least 1). Width 1 runs the
    /// plain serial loop on the calling thread.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker count.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// The sweep this runner executes.
    pub fn matrix(&self) -> &ScenarioMatrix {
        &self.matrix
    }

    /// Runs every cell across the workers, collecting results in cell
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the [`ScenarioError`] of the *earliest* failing cell in
    /// cell order — exactly the error the serial [`ScenarioMatrix::run`]
    /// would return (the serial loop stops there; the parallel runner
    /// may have run later cells already, but their results are
    /// discarded, so the observable outcome is identical).
    pub fn run(&self) -> Result<MatrixReport, ScenarioError> {
        if self.threads == 1 {
            return self.matrix.run();
        }
        let run_length = self.matrix.run_length;
        let scenarios = self.matrix.scenarios();
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<Result<MatrixCell, ScenarioError>>> =
            scenarios.iter().map(|_| OnceLock::new()).collect();
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(scenarios.len()) {
                s.spawn(|| loop {
                    // Relaxed: the counter only hands out indices; the
                    // outcomes travel through the slots and the scope's join.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((engine_label, scenario)) = scenarios.get(i) else {
                        break;
                    };
                    let outcome = run_cell(engine_label.clone(), scenario.clone(), run_length);
                    // Index `i` is claimed by this worker alone.
                    let _ = slots[i].set(outcome);
                });
            }
        });
        let cells = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every cell was claimed and run"))
            .collect::<Result<_, _>>()?;
        Ok(MatrixReport { cells })
    }
}

impl MatrixReport {
    /// Cells run at the given intensity.
    pub fn for_intensity(&self, intensity: TrafficIntensity) -> impl Iterator<Item = &MatrixCell> {
        self.cells
            .iter()
            .filter(move |c| c.intensity == Some(intensity))
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("matrix serialization is infallible")
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("matrix serialization is infallible")
    }

    /// Parses a matrix report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Writes the whole collection as pretty JSON to `dir/name`,
    /// creating the directory — the one writer for a sweep's results.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_json(&self, dir: &Path, name: &str) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(name);
        std::fs::write(&path, self.to_json_pretty())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TimingSpec;

    fn quick_base() -> Scenario {
        let mut s = Scenario::builder().star(8).num_vms(12).build();
        s.timing = TimingSpec {
            t_end_s: 30.0,
            sample_interval_s: 5.0,
            token_hold_s: 0.05,
            token_pass_s: 0.01,
        };
        s
    }

    #[test]
    fn matrix_expands_all_axes_in_order() {
        let matrix = ScenarioMatrix::new(quick_base())
            .topologies([
                TopologySpec::Star {
                    hosts: 8,
                    capacities: None,
                },
                TopologySpec::FatTree {
                    k: 4,
                    capacities: None,
                },
            ])
            .intensities([TrafficIntensity::Sparse, TrafficIntensity::Medium])
            .policies(PolicyKind::paper_policies());
        assert_eq!(matrix.len(), 8);
        let scenarios = matrix.scenarios();
        assert_eq!(scenarios.len(), 8);
        // Topology-major, then intensity, then policy.
        assert_eq!(
            scenarios[0].1.topology,
            TopologySpec::Star {
                hosts: 8,
                capacities: None
            }
        );
        assert_eq!(
            scenarios[4].1.topology,
            TopologySpec::FatTree {
                k: 4,
                capacities: None
            }
        );
        assert_eq!(
            scenarios[0].1.workload.intensity(),
            Some(TrafficIntensity::Sparse)
        );
        assert_eq!(
            scenarios[2].1.workload.intensity(),
            Some(TrafficIntensity::Medium)
        );
        assert_ne!(scenarios[0].1.policy, scenarios[1].1.policy);
    }

    #[test]
    fn degenerate_matrix_runs_the_base() {
        let results = ScenarioMatrix::new(quick_base()).run().unwrap();
        assert_eq!(results.cells.len(), 1);
        let cell = &results.cells[0];
        assert_eq!(cell.policy, quick_base().policy);
        assert_eq!(cell.engine_label, None);
        assert!(cell.report.final_cost <= cell.report.initial_cost);
    }

    #[test]
    fn run_collects_one_report_per_cell_and_round_trips() {
        let results = ScenarioMatrix::new(quick_base())
            .policies(PolicyKind::paper_policies())
            .intensities([TrafficIntensity::Sparse, TrafficIntensity::Dense])
            .run()
            .unwrap();
        assert_eq!(results.cells.len(), 4);
        for cell in &results.cells {
            assert_eq!(cell.report.policy, cell.policy.name());
            assert!(cell.report.final_cost <= cell.report.initial_cost);
        }
        let round_robin = results
            .cells
            .iter()
            .filter(|c| c.policy == PolicyKind::RoundRobin);
        assert_eq!(round_robin.count(), 2);
        assert_eq!(results.for_intensity(TrafficIntensity::Dense).count(), 2);
        // The whole collection serializes and parses back identically.
        let back = MatrixReport::from_json(&results.to_json()).unwrap();
        assert_eq!(back, results);
    }

    #[test]
    fn engine_axis_carries_labels() {
        let results = ScenarioMatrix::new(quick_base())
            .engines([
                ("paper".to_string(), EngineSpec::Paper),
                (
                    "pricey".to_string(),
                    EngineSpec::Paper.with_migration_cost(1e30),
                ),
            ])
            .iterations(2)
            .run()
            .unwrap();
        assert_eq!(results.cells.len(), 2);
        let labelled = |label| {
            let cells = results.cells.iter();
            cells.filter(move |c| c.engine_label.as_deref() == Some(label))
        };
        let pricey: Vec<_> = labelled("pricey").collect();
        assert_eq!(pricey.len(), 1);
        // The prohibitive migration cost reached the engine.
        assert!(pricey[0].report.migrations.is_empty());
        let paper: Vec<_> = labelled("paper").collect();
        assert_eq!(paper[0].engine_label.as_deref(), Some("paper"));
    }

    #[test]
    fn iteration_capped_cells_stop_early() {
        let mut base = quick_base();
        base.timing.t_end_s = 1e5;
        let results = ScenarioMatrix::new(base).iterations(1).run().unwrap();
        let report = &results.cells[0].report;
        assert_eq!(report.iterations.len(), 1);
        assert_eq!(report.iterations[0].steps, 12);
    }

    #[test]
    fn intensity_axis_collapses_for_explicit_workloads() {
        let mut base = quick_base();
        base.workload = crate::spec::WorkloadSpec::ExplicitPairs {
            num_vms: 4,
            pairs: vec![(0, 1, 100.0), (2, 3, 50.0)],
            seed: 1,
        };
        let matrix = ScenarioMatrix::new(base)
            .intensities(TrafficIntensity::all())
            .policies(PolicyKind::paper_policies());
        // 3 intensities x 2 policies would be 6, but the intensity axis
        // has nothing to vary: only the 2 policies remain.
        assert_eq!(matrix.len(), 2);
        let results = matrix.run().unwrap();
        assert_eq!(results.cells.len(), 2);
        assert!(results.cells.iter().all(|c| c.intensity.is_none()));
    }

    #[test]
    fn marked_traces_replay_every_segment() {
        use crate::spec::TraceSpec;
        // A two-segment trace: the second segment rescales the TM. The
        // matrix must replay past the marker, so the cell's report is
        // the *final* segment's (its initial cost reflects the rescale),
        // not a silent truncation at the first boundary.
        let trace = score_trace::Trace::builder(8, 60.0)
            .base_pair(0, 1, 1e6)
            .base_pair(2, 3, 2e6)
            .marker(30.0, "late")
            .scale_all(30.0, 10.0)
            .build()
            .unwrap();
        let mut base = quick_base();
        base.workload = crate::spec::WorkloadSpec::Trace {
            spec: TraceSpec::Literal { trace, seed: 1 },
        };
        let results = ScenarioMatrix::new(base.clone()).run().unwrap();
        let cell_report = &results.cells[0].report;
        // Reference: the same scenario driven segment-by-segment.
        let reports = base.session().unwrap().run_trace().unwrap();
        assert_eq!(reports.len(), 2, "the marker splits the trace in two");
        assert_eq!(cell_report, reports.last().unwrap());
    }

    #[test]
    fn sweep_units_are_send_and_sync() {
        // The Send/Sync audit behind the parallel runner: everything
        // that crosses a worker-thread boundary is plain data. Sessions
        // themselves are NOT sent anywhere — each worker materializes
        // its own (`Box<dyn TokenPolicy>` is built per cell inside
        // `run_cell`), which is why this list needs no `Session` entry.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Scenario>();
        assert_send_sync::<ScenarioError>();
        assert_send_sync::<ScenarioMatrix>();
        assert_send_sync::<MatrixRunner>();
        assert_send_sync::<MatrixCell>();
        assert_send_sync::<MatrixReport>();
    }

    #[test]
    fn parallel_runner_matches_serial_bitwise() {
        let matrix = ScenarioMatrix::new(quick_base())
            .intensities([TrafficIntensity::Sparse, TrafficIntensity::Dense])
            .policies(PolicyKind::paper_policies());
        let serial = matrix.clone().run().unwrap();
        for threads in [1, 2, 4, 7] {
            let parallel = matrix.clone().runner().threads(threads).run().unwrap();
            assert_eq!(parallel, serial, "{threads} threads diverged");
            assert_eq!(parallel.to_json(), serial.to_json());
        }
        let clamped = matrix.clone().runner().threads(0);
        assert_eq!(clamped.thread_count(), 1);
        assert_eq!(clamped.run().unwrap(), serial);
    }

    #[test]
    fn parallel_runner_returns_earliest_cell_error() {
        // First topology cell is infeasible; the serial loop stops
        // there. The parallel runner runs other cells too but must
        // surface the very same earliest-cell error.
        let matrix = ScenarioMatrix::new(quick_base()).topologies([
            TopologySpec::FatTree {
                k: 3,
                capacities: None,
            },
            TopologySpec::Star {
                hosts: 8,
                capacities: None,
            },
        ]);
        let serial_err = matrix.clone().run().unwrap_err();
        let parallel_err = matrix.runner().threads(2).run().unwrap_err();
        assert_eq!(format!("{parallel_err}"), format!("{serial_err}"));
    }

    #[test]
    fn cell_errors_propagate() {
        let mut base = quick_base();
        base.topology = TopologySpec::FatTree {
            k: 3,
            capacities: None,
        };
        assert!(matches!(
            ScenarioMatrix::new(base).run(),
            Err(ScenarioError::Topology(_))
        ));
    }

    #[test]
    fn write_json_creates_one_file() {
        let results = ScenarioMatrix::new(quick_base()).run().unwrap();
        let dir = std::env::temp_dir().join("score_matrix_test");
        let path = results.write_json(&dir, "matrix.json").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(MatrixReport::from_json(&text).unwrap(), results);
        std::fs::remove_file(path).ok();
    }
}
