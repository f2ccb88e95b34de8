//! Constant-bit-rate background traffic (paper §VI-C).
//!
//! The testbed experiments load the migration path with CBR traffic of
//! increasing intensity ("the ratio of 1 Gb/s CBR"). [`CbrLoad`] is that
//! ratio as a validated newtype; the share of the link it leaves a
//! migration flow is `score_xen::migration_throughput_fraction`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Background network load as a fraction of link capacity, in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct CbrLoad(f64);

impl CbrLoad {
    /// No background traffic.
    pub const IDLE: CbrLoad = CbrLoad(0.0);

    /// Creates a load ratio.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not in `[0, 1]`.
    pub fn new(ratio: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&ratio),
            "CBR load must be in [0, 1], got {ratio}"
        );
        CbrLoad(ratio)
    }

    /// The ratio as a plain `f64`.
    pub fn get(self) -> f64 {
        self.0
    }

    /// The load sweep used in Fig. 5c/5d: `0.0, 0.1, …, 1.0`.
    pub fn paper_sweep() -> Vec<CbrLoad> {
        (0..=10).map(|i| CbrLoad(i as f64 / 10.0)).collect()
    }
}

impl Default for CbrLoad {
    fn default() -> Self {
        CbrLoad::IDLE
    }
}

impl fmt::Display for CbrLoad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}%", self.0 * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_validation() {
        assert_eq!(CbrLoad::new(0.5).get(), 0.5);
        assert_eq!(CbrLoad::IDLE.get(), 0.0);
        assert_eq!(CbrLoad::default(), CbrLoad::IDLE);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn load_rejects_out_of_range() {
        let _ = CbrLoad::new(1.5);
    }

    #[test]
    fn paper_sweep_covers_unit_interval() {
        let sweep = CbrLoad::paper_sweep();
        assert_eq!(sweep.len(), 11);
        assert_eq!(sweep[0], CbrLoad::IDLE);
        assert_eq!(sweep[10].get(), 1.0);
    }

    #[test]
    fn display_format() {
        assert_eq!(CbrLoad::new(0.3).to_string(), "30%");
    }
}
