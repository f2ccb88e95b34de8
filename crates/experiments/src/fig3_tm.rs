//! Fig. 3a–c — ToR-to-ToR traffic-matrix heatmaps at the three workload
//! intensities.
//!
//! The paper's TMs are "sparse and only a handful of ToRs become hotspots"
//! (properties from the DC measurement literature); medium and dense scale
//! the base TM by 10 and 50.

use score_sim::Scenario;
use score_traffic::{TrafficIntensity, TrafficMatrix};
use std::fmt::Write as _;

use crate::write_result;

/// Metrics summarising one TM.
#[derive(Debug, Clone, Copy)]
pub struct TmStats {
    /// Fraction of rack-pair cells with nonzero traffic.
    pub density: f64,
    /// Cells at ≥ 50% of the peak rate.
    pub hotspots: usize,
    /// Share of bytes in the hottest 10% of cells.
    pub top10_share: f64,
    /// Total offered load in Gb/s.
    pub total_gbps: f64,
}

/// The scenario of one intensity.
pub(crate) fn scenario(intensity: TrafficIntensity, paper_scale: bool) -> Scenario {
    crate::canonical(intensity, 7, paper_scale)
}

/// Runs the experiment, writing one CSV per intensity.
pub fn run(paper_scale: bool) -> (Vec<(TrafficIntensity, TmStats)>, String) {
    let mut out = Vec::new();
    let mut summary = String::from("Fig. 3a–c — ToR-to-ToR traffic matrices\n");
    for intensity in TrafficIntensity::all() {
        let scenario = self::scenario(intensity, paper_scale);
        let session = scenario.session().expect("preset scenario is feasible");
        let racks = session.topo().num_racks();
        let alloc = session.cluster().allocation();
        let topo = session.topo().as_ref();
        let tm = TrafficMatrix::from_pairs(racks, session.traffic(), |vm| {
            topo.rack_of(alloc.server_of(vm))
        });
        let stats = TmStats {
            density: tm.density(0.0),
            hotspots: tm.hotspots(0.5),
            top10_share: tm.top_cell_share(0.10),
            total_gbps: tm.total() / 1e9,
        };
        let path = write_result(&format!("fig3_tm_{}.csv", intensity.name()), &tm.to_csv());
        let _ = writeln!(
            summary,
            "  {:<7} density {:>5.1}%  hotspots(>=50% peak) {:>3}  top-10% cells carry {:>5.1}%  total {:>8.2} Gb/s",
            intensity.name(),
            stats.density * 100.0,
            stats.hotspots,
            stats.top10_share * 100.0,
            stats.total_gbps,
        );
        let _ = writeln!(summary, "{}", tm.to_ascii_heatmap(24));
        let _ = writeln!(summary, "  -> {}", path.display());
        out.push((intensity, stats));
    }
    (out, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrices_are_sparse_with_hotspots_and_scale() {
        let (stats, summary) = run(false);
        assert_eq!(stats.len(), 3);
        let sparse = stats[0].1;
        let dense = stats[2].1;
        // A minority of rack pairs is silent even at CI scale (32 racks —
        // the paper's 128-ToR matrix is far sparser in cell terms), and
        // the byte mass concentrates on a handful of hot cells.
        assert!(sparse.density < 0.75, "sparse density {}", sparse.density);
        assert!(
            sparse.top10_share > 0.35,
            "hotspot concentration too weak: top-10% share {}",
            sparse.top10_share
        );
        // Hotspots exist but are a handful.
        assert!(sparse.hotspots >= 1);
        assert!(sparse.hotspots < 110);
        // Load grows steeply with intensity (nominal ×50, compressed by
        // the per-pair line-rate cap).
        assert!(dense.total_gbps > 4.0 * sparse.total_gbps);
        assert!(dense.density >= sparse.density);
        assert!(summary.contains("sparse"));
    }
}
