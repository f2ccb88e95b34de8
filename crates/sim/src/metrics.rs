//! Measurement helpers shared by the experiment binaries.
//!
//! * [`UtilizationSnapshot`] — per-tier link-utilization CDFs of a
//!   cluster's current allocation (the Fig. 4a comparison), with
//!   overload counting and [`jain_fairness`] over the busiest links;
//! * [`series_to_csv`] — `(t, value)` series in the two-column CSV
//!   format every figure binary writes under `results/`;
//! * [`ascii_chart`] — quick multi-series terminal plots for the
//!   human-readable experiment summaries.

use score_core::LinkLoadMap;
use score_topology::Level;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Per-layer link-utilization snapshot (the Fig. 4a ingredient).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilizationSnapshot {
    /// Sorted utilizations of core (3-level) links.
    pub core: Vec<f64>,
    /// Sorted utilizations of aggregation (2-level) links.
    pub aggregation: Vec<f64>,
    /// Sorted utilizations of host/ToR (1-level) links.
    pub edge: Vec<f64>,
}

impl UtilizationSnapshot {
    /// Captures the per-tier utilization CDFs of one link-load map (see
    /// [`LinkLoadMap::compute`]).
    pub fn capture(map: &LinkLoadMap) -> Self {
        UtilizationSnapshot {
            core: map.utilization_cdf(Level::CORE),
            aggregation: map.utilization_cdf(Level::AGGREGATION),
            edge: map.utilization_cdf(Level::RACK),
        }
    }

    /// Mean utilization of a layer's links.
    pub fn mean(values: &[f64]) -> f64 {
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of a sorted layer.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or the layer is empty.
    pub fn quantile(values: &[f64], q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        assert!(!values.is_empty(), "empty layer");
        let idx = ((values.len() - 1) as f64 * q).round() as usize;
        values[idx]
    }

    /// Renders the snapshot as CSV rows `layer,utilization,cdf`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("layer,utilization,cdf\n");
        for (name, values) in [
            ("core", &self.core),
            ("aggregation", &self.aggregation),
            ("edge", &self.edge),
        ] {
            let n = values.len().max(1);
            for (i, u) in values.iter().enumerate() {
                let _ = writeln!(out, "{name},{u:.6},{:.6}", (i + 1) as f64 / n as f64);
            }
        }
        out
    }
}

/// Jain's fairness index of a load vector: `(Σx)² / (n · Σx²)`, in
/// `(0, 1]`; 1 means perfectly even utilization. Useful for contrasting
/// S-CORE (which *empties* upper layers, lowering the mean) with Remedy
/// (which *balances* them, raising fairness).
///
/// Returns 1.0 for empty or all-zero inputs (vacuously fair).
pub fn jain_fairness(values: &[f64]) -> f64 {
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    if sum_sq == 0.0 || values.is_empty() {
        return 1.0;
    }
    (sum * sum) / (values.len() as f64 * sum_sq)
}

/// Writes a `(t, value)` series as CSV with the given column names.
pub fn series_to_csv(series: &[(f64, f64)], x_name: &str, y_name: &str) -> String {
    let mut out = format!("{x_name},{y_name}\n");
    for &(x, y) in series {
        let _ = writeln!(out, "{x:.3},{y:.6}");
    }
    out
}

/// Renders a compact ASCII line chart of one or more named series on a
/// shared axis — the terminal stand-in for the paper's line plots.
pub fn ascii_chart(series: &[(&str, &[(f64, f64)])], width: usize, height: usize) -> String {
    if series.is_empty() || series.iter().all(|(_, s)| s.is_empty()) {
        return String::from("(no data)\n");
    }
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, s) in series {
        for &(x, y) in *s {
            x_min = x_min.min(x);
            x_max = x_max.max(x);
            y_min = y_min.min(y);
            y_max = y_max.max(y);
        }
    }
    if (x_max - x_min).abs() < f64::EPSILON {
        x_max = x_min + 1.0;
    }
    if (y_max - y_min).abs() < f64::EPSILON {
        y_max = y_min + 1.0;
    }
    let width = width.max(16);
    let height = height.max(4);
    let mut grid = vec![vec![' '; width]; height];
    let marks = ['*', '+', 'o', 'x', '#', '@'];
    for (si, (_, s)) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        for &(x, y) in *s {
            let cx = (((x - x_min) / (x_max - x_min)) * (width - 1) as f64).round() as usize;
            let cy = (((y - y_min) / (y_max - y_min)) * (height - 1) as f64).round() as usize;
            grid[height - 1 - cy][cx] = mark;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "y: {y_min:.3} .. {y_max:.3}");
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    let _ = writeln!(out, "+{}", "-".repeat(width));
    let _ = writeln!(out, " x: {x_min:.1} .. {x_max:.1}");
    for (si, (name, _)) in series.iter().enumerate() {
        let _ = writeln!(out, "   {} {}", marks[si % marks.len()], name);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scenario;
    use score_traffic::TrafficIntensity;

    fn fresh_snapshot(seed: u64) -> UtilizationSnapshot {
        let session = Scenario::small_canonical(TrafficIntensity::Sparse, seed)
            .session()
            .expect("preset scenario is feasible");
        let cluster = session.cluster();
        UtilizationSnapshot::capture(&LinkLoadMap::compute(
            cluster.allocation(),
            &session.traffic().pairs(),
            cluster.topo(),
        ))
    }

    #[test]
    fn snapshot_layers_are_sorted() {
        let snap = fresh_snapshot(1);
        for layer in [&snap.core, &snap.aggregation, &snap.edge] {
            assert!(layer.windows(2).all(|w| w[0] <= w[1]));
            assert!(!layer.is_empty());
        }
        // Random placement routes plenty of traffic through the core.
        assert!(UtilizationSnapshot::mean(&snap.core) > 0.0);
    }

    #[test]
    fn quantiles() {
        let values = vec![0.1, 0.2, 0.3, 0.4, 0.5];
        assert_eq!(UtilizationSnapshot::quantile(&values, 0.0), 0.1);
        assert_eq!(UtilizationSnapshot::quantile(&values, 1.0), 0.5);
        assert_eq!(UtilizationSnapshot::quantile(&values, 0.5), 0.3);
    }

    #[test]
    #[should_panic(expected = "empty layer")]
    fn quantile_of_empty_panics() {
        let _ = UtilizationSnapshot::quantile(&[], 0.5);
    }

    #[test]
    fn jain_fairness_properties() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        assert!((jain_fairness(&[0.5, 0.5, 0.5]) - 1.0).abs() < 1e-12);
        // One hot link among cold ones: fairness tends to 1/n.
        let skewed = jain_fairness(&[1.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12);
        let mild = jain_fairness(&[0.6, 0.4]);
        assert!(mild > skewed && mild < 1.0);
    }

    #[test]
    fn csv_formats() {
        let csv = series_to_csv(&[(0.0, 1.0), (5.0, 0.5)], "t", "ratio");
        assert!(csv.starts_with("t,ratio\n"));
        assert!(csv.contains("5.000,0.500000"));
        let snap = fresh_snapshot(2);
        let csv = snap.to_csv();
        assert!(csv.starts_with("layer,utilization,cdf\n"));
        assert!(csv.contains("core,"));
        assert!(csv.contains("aggregation,"));
    }

    #[test]
    fn ascii_chart_renders() {
        let a: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 5.0 - i as f64 * 0.08)).collect();
        let b: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 3.0 - i as f64 * 0.03)).collect();
        let chart = ascii_chart(&[("hlf", &a), ("rr", &b)], 60, 12);
        assert!(chart.contains('*'));
        assert!(chart.contains('+'));
        assert!(chart.contains("hlf"));
        assert!(chart.lines().count() > 12);
        assert_eq!(ascii_chart(&[], 10, 5), "(no data)\n");
    }
}
