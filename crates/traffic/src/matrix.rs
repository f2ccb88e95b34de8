//! ToR-to-ToR traffic matrices (paper Fig. 3a–c).
//!
//! A [`TrafficMatrix`] aggregates pairwise VM rates to rack granularity
//! given a placement. The paper characterises its generated TMs as *sparse*
//! with "only a handful of ToRs \[becoming\] hotspots", in accordance with
//! published DC measurements.

use score_topology::{RackId, VmId};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

use crate::pairwise::PairTraffic;

/// Dense rack×rack matrix of traffic rates (bits per second).
///
/// Entry `(i, j)` is the rate flowing from rack `i` to rack `j`. Pairwise VM
/// rates are bidirectional aggregates, so aggregation splits them evenly
/// between the two directions; the matrix is therefore symmetric when built
/// from [`PairTraffic`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficMatrix {
    racks: usize,
    cells: Vec<f64>,
}

impl TrafficMatrix {
    /// Creates a zero matrix over `racks` racks.
    ///
    /// # Panics
    ///
    /// Panics if `racks == 0`.
    fn zeros(racks: usize) -> Self {
        assert!(racks > 0, "matrix needs at least one rack");
        TrafficMatrix {
            racks,
            cells: vec![0.0; racks * racks],
        }
    }

    /// Aggregates pairwise VM traffic to rack granularity under the given
    /// placement (`rack_of(vm)`).
    ///
    /// Intra-rack traffic lands on the diagonal; it is part of the TM even
    /// though it never crosses a 2-level link.
    ///
    /// # Panics
    ///
    /// Panics if `rack_of` returns an out-of-range rack.
    pub fn from_pairs<F>(racks: usize, traffic: &PairTraffic, mut rack_of: F) -> Self
    where
        F: FnMut(VmId) -> RackId,
    {
        let mut m = TrafficMatrix::zeros(racks);
        for (u, v, rate) in traffic.pairs() {
            let ru = rack_of(u).index();
            let rv = rack_of(v).index();
            assert!(ru < racks && rv < racks, "rack out of range");
            let half = rate / 2.0;
            m.cells[ru * racks + rv] += half;
            m.cells[rv * racks + ru] += half;
        }
        m
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// Rate from rack `i` to rack `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.racks && j < self.racks, "rack index out of range");
        self.cells[i * self.racks + j]
    }

    /// Adds `rate` to the `(i, j)` cell.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or `rate` is negative.
    pub fn add(&mut self, i: usize, j: usize, rate: f64) {
        assert!(i < self.racks && j < self.racks, "rack index out of range");
        assert!(rate >= 0.0, "rate must be non-negative");
        self.cells[i * self.racks + j] += rate;
    }

    /// The largest cell value.
    pub fn max(&self) -> f64 {
        self.cells.iter().copied().fold(0.0, f64::max)
    }

    /// Sum of all cells.
    pub fn total(&self) -> f64 {
        self.cells.iter().sum()
    }

    /// Fraction of cells whose value exceeds `threshold` — the paper's TM
    /// *density*.
    pub fn density(&self, threshold: f64) -> f64 {
        let hot = self.cells.iter().filter(|&&c| c > threshold).count();
        hot as f64 / self.cells.len() as f64
    }

    /// Number of "hotspot" cells: those above `fraction` of the maximum.
    pub fn hotspots(&self, fraction: f64) -> usize {
        let cut = self.max() * fraction;
        if cut == 0.0 {
            return 0;
        }
        self.cells.iter().filter(|&&c| c >= cut).count()
    }

    /// Share of total traffic carried by the hottest `fraction` of cells —
    /// the scale-independent "handful of ToRs become hotspots" property.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    pub fn top_cell_share(&self, fraction: f64) -> f64 {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        let total = self.total();
        if total == 0.0 {
            return 0.0;
        }
        let mut sorted = self.cells.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        let take = ((sorted.len() as f64 * fraction).ceil() as usize).max(1);
        sorted.iter().take(take).sum::<f64>() / total
    }

    /// Renders the matrix as CSV (`from_rack,to_rack,rate_bps`, hot cells
    /// only: rate > 0).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("from_tor,to_tor,rate_bps,normalized\n");
        let max = self.max().max(f64::MIN_POSITIVE);
        for i in 0..self.racks {
            for j in 0..self.racks {
                let v = self.get(i, j);
                if v > 0.0 {
                    let _ = writeln!(out, "{i},{j},{v:.3},{:.6}", v / max);
                }
            }
        }
        out
    }

    /// Renders a coarse ASCII heatmap (downsampled to at most `size`×`size`
    /// character cells) — a terminal stand-in for Fig. 3a–c.
    pub fn to_ascii_heatmap(&self, size: usize) -> String {
        const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        let size = size.clamp(1, self.racks);
        let max = self.max();
        let mut out = String::new();
        let step = self.racks as f64 / size as f64;
        for bi in 0..size {
            for bj in 0..size {
                let i0 = (bi as f64 * step) as usize;
                let i1 = (((bi + 1) as f64 * step) as usize)
                    .max(i0 + 1)
                    .min(self.racks);
                let j0 = (bj as f64 * step) as usize;
                let j1 = (((bj + 1) as f64 * step) as usize)
                    .max(j0 + 1)
                    .min(self.racks);
                let mut peak: f64 = 0.0;
                for i in i0..i1 {
                    for j in j0..j1 {
                        peak = peak.max(self.get(i, j));
                    }
                }
                let shade = if max == 0.0 {
                    0
                } else {
                    ((peak / max) * (SHADES.len() - 1) as f64).round() as usize
                };
                out.push(SHADES[shade.min(SHADES.len() - 1)]);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairwise::PairTrafficBuilder;

    fn sample_traffic() -> PairTraffic {
        let mut b = PairTrafficBuilder::new(6);
        b.add(VmId::new(0), VmId::new(1), 10.0); // racks 0-0
        b.add(VmId::new(0), VmId::new(2), 20.0); // racks 0-1
        b.add(VmId::new(3), VmId::new(5), 40.0); // racks 1-2
        b.build()
    }

    fn rack_of(vm: VmId) -> RackId {
        RackId::new(vm.get() / 2) // 2 VMs per rack
    }

    #[test]
    fn aggregation_from_pairs() {
        let m = TrafficMatrix::from_pairs(3, &sample_traffic(), rack_of);
        assert_eq!(m.get(0, 0), 10.0); // intra-rack lands on the diagonal
        assert_eq!(m.get(0, 1), 10.0); // half of 20 each way
        assert_eq!(m.get(1, 0), 10.0);
        assert_eq!(m.get(1, 2), 20.0);
        assert_eq!(m.get(2, 1), 20.0);
        assert_eq!(m.total(), 70.0);
    }

    #[test]
    fn density_and_hotspots() {
        let m = TrafficMatrix::from_pairs(3, &sample_traffic(), rack_of);
        // 5 cells are nonzero out of 9.
        assert!((m.density(0.0) - 5.0 / 9.0).abs() < 1e-12);
        assert_eq!(m.hotspots(0.9), 2); // the 1-2 and 2-1 cells
        assert_eq!(TrafficMatrix::zeros(2).hotspots(0.5), 0);
    }

    #[test]
    fn top_cell_share_concentration() {
        let m = TrafficMatrix::from_pairs(3, &sample_traffic(), rack_of);
        // The two hottest cells (1-2 and 2-1 at 20 each) carry 40/70.
        let share = m.top_cell_share(2.0 / 9.0);
        assert!((share - 40.0 / 70.0).abs() < 1e-9, "share {share}");
        assert_eq!(m.top_cell_share(1.0), 1.0);
        assert_eq!(TrafficMatrix::zeros(2).top_cell_share(0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn top_cell_share_rejects_zero() {
        let _ = TrafficMatrix::zeros(2).top_cell_share(0.0);
    }

    #[test]
    fn normalization() {
        // The CSV's last column is each hot cell over the global maximum.
        let m = TrafficMatrix::from_pairs(3, &sample_traffic(), rack_of);
        let csv = m.to_csv();
        let n: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.rsplit(',').next().unwrap().parse().unwrap())
            .collect();
        assert!(n.iter().all(|&x| (0.0..=1.0).contains(&x)));
        assert_eq!(n.iter().cloned().fold(0.0, f64::max), 1.0);
        assert_eq!(TrafficMatrix::zeros(2).to_csv().lines().count(), 1);
    }

    #[test]
    fn csv_contains_hot_cells() {
        let m = TrafficMatrix::from_pairs(3, &sample_traffic(), rack_of);
        let csv = m.to_csv();
        assert!(csv.starts_with("from_tor,to_tor,rate_bps,normalized"));
        assert!(csv.contains("1,2,20.000"));
        // zero cells are omitted
        assert!(!csv.contains("\n0,2,"));
    }

    #[test]
    fn ascii_heatmap_dimensions() {
        let m = TrafficMatrix::from_pairs(3, &sample_traffic(), rack_of);
        let art = m.to_ascii_heatmap(3);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.chars().count() == 3));
        // the hottest cell renders as the densest shade
        assert!(art.contains('@'));
    }

    #[test]
    fn ascii_heatmap_downsamples() {
        let m = TrafficMatrix::zeros(64);
        let art = m.to_ascii_heatmap(8);
        assert_eq!(art.lines().count(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one rack")]
    fn zero_rack_matrix_rejected() {
        let _ = TrafficMatrix::zeros(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let m = TrafficMatrix::zeros(2);
        let _ = m.get(0, 2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_add_panics() {
        let mut m = TrafficMatrix::zeros(2);
        m.add(0, 1, -1.0);
    }
}
