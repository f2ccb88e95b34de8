//! Shared infrastructure for the experiment binaries.
//!
//! Every figure of the paper's evaluation has a binary in `src/bin/` that
//! regenerates it. Each binary declares its scenarios through the
//! `Scenario`/`Session` API of `score_sim`, prints a human-readable
//! summary (tables + ASCII charts), and writes machine-readable results
//! under `results/`: CSV series plus the unified [`score_sim::RunReport`]
//! JSON for every session run (see [`write_report`]).
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig2_migration_ratio` | Fig. 2 — migrated-VM ratio per iteration |
//! | `fig3_tm_heatmaps` | Fig. 3a–c — ToR-to-ToR TM heatmaps |
//! | `fig3_cost_ratio_tree` | Fig. 3d–f — cost ratio vs time, canonical tree |
//! | `fig3_cost_ratio_fattree` | Fig. 3g–i — cost ratio vs time, fat-tree |
//! | `fig4_remedy_comparison` | Fig. 4a/4b — S-CORE vs Remedy |
//! | `fig5a_flowtable_ops` | Fig. 5a — flow-table op timings |
//! | `fig5b_migrated_bytes` | Fig. 5b — migrated-bytes distribution |
//! | `fig5cd_migration_time_downtime` | Fig. 5c/5d — time & downtime vs load |
//! | `ext_policy_comparison` | extension — every token policy |
//! | `ext_weight_sensitivity` | extension — link-weight sweep |
//! | `ext_oversubscription` | extension — ToR oversubscription sweep |
//! | `ext_dynamic` | extension — policies under time-varying (trace) traffic |
//! | `ext_faults` | extension — recovery under seeded failure storms |
//! | `ext_control_overhead` | extension — control-plane bytes of one measured token iteration |
//! | `scorectl` | ad-hoc scenarios from CLI flags or JSON specs |
//! | `all` | runs everything and summarises paper-vs-measured |
//!
//! See `README.md` in this crate for the one-command-per-figure table
//! with full invocations.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ext_dynamic;
pub mod ext_faults;
pub mod ext_overhead;
pub mod ext_oversub;
pub mod ext_policies;
pub mod ext_weights;
pub mod fig2;
pub mod fig3_cost;
pub mod fig3_tm;
pub mod fig4;
pub mod fig5a;
pub mod fig5b;
pub mod fig5cd;

use score_sim::Scenario;
use score_traffic::TrafficIntensity;
use std::fs;
use std::path::PathBuf;

/// Directory where experiment CSVs are written (`results/` at the
/// workspace root, overridable with `SCORE_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("SCORE_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    // Walk up from the crate dir to the workspace root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .find(|p| p.join("Cargo.toml").exists() && p.join("crates").exists())
        .map(|p| p.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Writes `contents` to `results_dir()/name`, creating the directory.
///
/// # Panics
///
/// Panics on I/O errors (experiment binaries want loud failures).
pub fn write_result(name: &str, contents: &str) -> PathBuf {
    let dir = results_dir();
    fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join(name);
    fs::write(&path, contents).expect("write result file");
    path
}

/// Writes a [`score_sim::RunReport`] as JSON to `results_dir()/name` —
/// the one machine-readable format every session-driven experiment
/// emits alongside its CSVs.
///
/// # Panics
///
/// Panics on I/O errors (experiment binaries want loud failures).
pub fn write_report(name: &str, report: &score_sim::RunReport) -> PathBuf {
    report
        .write_json(&results_dir(), name)
        .expect("write run report")
}

/// The canonical-tree preset at CI scale (32 × 5 hosts) or at paper
/// scale (128 × 20).
pub(crate) fn canonical(intensity: TrafficIntensity, seed: u64, paper_scale: bool) -> Scenario {
    if paper_scale {
        Scenario::paper_canonical(intensity, seed)
    } else {
        Scenario::small_canonical(intensity, seed)
    }
}

/// True when the `--paper-scale` flag (or `SCORE_PAPER_SCALE=1`) asks for
/// the full 2560-host / k=16 configurations instead of the CI-sized ones.
pub fn paper_scale_requested() -> bool {
    std::env::args().any(|a| a == "--paper-scale")
        || std::env::var("SCORE_PAPER_SCALE").is_ok_and(|v| v == "1")
}

/// Worker count for `ScenarioMatrix` sweeps: the `--threads N` (or
/// `--threads=N`) flag, or the `SCORE_THREADS` env var, or every
/// available core. `--threads 1` forces the plain serial loop. Sweep
/// results are bit-identical at any width (pinned by
/// `crates/sim/tests/matrix_parallel.rs`), so the flag only trades
/// wall-clock. A malformed value is a loud exit, not a silent
/// fall-back to all cores (experiment binaries want loud failures).
pub fn sweep_threads() -> usize {
    let parse = |value: &str, source: &str| -> usize {
        match value.parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => {
                eprintln!("error: {source} wants a thread count, got {value:?}");
                std::process::exit(2);
            }
        }
    };
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            let Some(value) = args.next() else {
                eprintln!("error: missing value for --threads");
                std::process::exit(2);
            };
            return parse(&value, "--threads");
        }
        if let Some(value) = arg.strip_prefix("--threads=") {
            return parse(value, "--threads");
        }
    }
    if let Ok(value) = std::env::var("SCORE_THREADS") {
        return parse(&value, "SCORE_THREADS");
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs a sweep on the parallel [`score_sim::MatrixRunner`] at
/// [`sweep_threads`] width — the one execution path every experiment
/// module's matrix goes through, so `--threads` reaches all of them.
///
/// # Errors
///
/// Propagates the earliest cell's [`score_sim::ScenarioError`], exactly
/// like the serial `ScenarioMatrix::run`.
pub fn run_matrix(
    matrix: score_sim::ScenarioMatrix,
) -> Result<score_sim::MatrixReport, score_sim::ScenarioError> {
    matrix.runner().threads(sweep_threads()).run()
}

/// Prints a section header to stdout.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Simple elapsed-time stopwatch for the timing experiments.
#[derive(Debug)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Starts the stopwatch.
    pub fn start() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    /// Seconds elapsed since start.
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_points_at_workspace() {
        let dir = results_dir();
        assert!(dir.ends_with("results"));
    }

    #[test]
    fn write_and_locate_result() {
        let path = write_result("test_artifact.csv", "a,b\n1,2\n");
        assert!(path.exists());
        assert!(path.starts_with(results_dir()));
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents, "a,b\n1,2\n");
        std::fs::remove_file(path).ok();
    }

    /// Every experiment's `--paper-scale` scenarios build their fabric,
    /// workload and cluster (nothing runs), so a population that no
    /// longer fits its fabric fails here in seconds instead of minutes
    /// into `all --paper-scale`.
    #[test]
    fn paper_scale_materializes() {
        use score_sim::TopologyKind;
        use score_traffic::TrafficIntensity;
        let mut scenarios = ext_dynamic::scenarios(true);
        scenarios.extend(ext_oversub::scenarios(true));
        scenarios.extend(TrafficIntensity::all().map(|i| fig3_tm::scenario(i, true)));
        scenarios.extend([1_000, 10_000, 100_000, 1_000_000].map(ext_overhead::scenario));
        scenarios.extend([
            ext_faults::scenario(true),
            ext_policies::scenario(true),
            ext_weights::scenario(true),
            fig2::scenario(true),
            fig3_cost::scenario(TopologyKind::CanonicalTree, true),
            fig3_cost::scenario(TopologyKind::FatTree, true),
            fig4::scenario(true),
        ]);
        for scenario in scenarios {
            if let Err(e) = scenario.session() {
                panic!("{:?} does not materialize: {e}", scenario.topology);
            }
        }
    }

    #[test]
    fn stopwatch_advances() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(sw.elapsed_s() > 0.0);
    }
}
