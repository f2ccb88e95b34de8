//! Per-layer link weights `c_i` and the communication-cost kernel.
//!
//! The paper (§II) assigns a representative link weight `c_i` to an i-level
//! link per data unit, with `c1 < c2 < c3` reflecting the increasing cost and
//! over-subscription of higher DC layers. The evaluation (§VI) sets the
//! weights to grow exponentially: `c1 = e^0, c2 = e^1, c3 = e^3`.
//!
//! A communication of level `ℓ` between two VMs traverses two links of every
//! level `1..=ℓ`, so its cost per unit of traffic is `2 · Σ_{i=1..ℓ} c_i`
//! (Eq. 1). [`LinkWeights`] precomputes those prefix sums.

use crate::ids::Level;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned when constructing invalid [`LinkWeights`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeightsError {
    /// No weights were supplied; at least one level is required.
    Empty,
    /// A weight was zero, negative, NaN or infinite.
    NotPositive {
        /// Index (0-based) of the offending weight.
        index: usize,
    },
    /// Weights must be strictly increasing with the level (`c1 < c2 < …`).
    NotIncreasing {
        /// Index (0-based) of the first weight that does not increase.
        index: usize,
    },
}

impl fmt::Display for WeightsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightsError::Empty => write!(f, "link weights must contain at least one level"),
            WeightsError::NotPositive { index } => {
                write!(
                    f,
                    "link weight at index {index} is not a positive finite number"
                )
            }
            WeightsError::NotIncreasing { index } => {
                write!(f, "link weight at index {index} does not strictly increase")
            }
        }
    }
}

impl std::error::Error for WeightsError {}

/// Per-layer link weights with precomputed prefix sums.
///
/// `weights()[i]` is `c_{i+1}`, the weight of an (i+1)-level link. The
/// prefix sum `prefix(ℓ) = Σ_{i=1..ℓ} c_i` is what enters every cost formula
/// of the paper; `pair_cost_per_unit(ℓ) = 2 · prefix(ℓ)` is the weighted cost
/// of moving one unit of traffic at communication level `ℓ`.
///
/// # Examples
///
/// ```
/// use score_topology::{Level, LinkWeights};
///
/// let w = LinkWeights::paper_default();
/// assert_eq!(w.max_level(), Level::CORE);
/// // Level-1 communication uses two 1-level links of weight e^0 = 1.
/// assert!((w.pair_cost_per_unit(Level::RACK) - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkWeights {
    costs: Vec<f64>,
    prefix: Vec<f64>,
}

impl LinkWeights {
    /// Creates link weights from explicit per-level costs `c_1, c_2, …`.
    ///
    /// # Errors
    ///
    /// Returns an error if `costs` is empty, contains non-positive or
    /// non-finite values, or is not strictly increasing (the paper requires
    /// `c1 < c2 < c3` to reflect layer economics).
    pub fn new<I>(costs: I) -> Result<Self, WeightsError>
    where
        I: IntoIterator<Item = f64>,
    {
        let costs: Vec<f64> = costs.into_iter().collect();
        if costs.is_empty() {
            return Err(WeightsError::Empty);
        }
        for (index, &c) in costs.iter().enumerate() {
            if !(c.is_finite() && c > 0.0) {
                return Err(WeightsError::NotPositive { index });
            }
            if index > 0 && costs[index - 1] >= c {
                return Err(WeightsError::NotIncreasing { index });
            }
        }
        let mut prefix = Vec::with_capacity(costs.len() + 1);
        prefix.push(0.0);
        let mut acc = 0.0;
        for &c in &costs {
            acc += c;
            prefix.push(acc);
        }
        Ok(LinkWeights { costs, prefix })
    }

    /// The weights used in the paper's evaluation (§VI): `c1 = e^0 = 1`,
    /// `c2 = e^1`, `c3 = e^3`.
    pub fn paper_default() -> Self {
        LinkWeights::new([1.0, 1f64.exp(), 3f64.exp()]).expect("paper default weights are valid")
    }

    /// Geometrically growing weights `c_i = base^(i-1)` for `levels` layers.
    ///
    /// # Errors
    ///
    /// Returns an error if `levels == 0` or `base <= 1` (weights would not
    /// strictly increase).
    pub fn exponential(levels: u8, base: f64) -> Result<Self, WeightsError> {
        LinkWeights::new((0..levels).map(|i| base.powi(i as i32)))
    }

    /// The raw per-level costs `c_1, c_2, …`.
    pub fn weights(&self) -> &[f64] {
        &self.costs
    }

    /// Prefix sum `Σ_{i=1..ℓ} c_i`; `prefix(Level::ZERO) == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds [`max_level`](Self::max_level).
    pub fn prefix(&self, level: Level) -> f64 {
        self.prefix[level.index()]
    }

    /// Cost per unit of traffic exchanged at communication level `level`:
    /// `2 · Σ_{i=1..ℓ} c_i` (the factor 2 accounts for one link of each
    /// level on either side of the path).
    pub fn pair_cost_per_unit(&self, level: Level) -> f64 {
        2.0 * self.prefix(level)
    }

    /// Difference in per-unit cost when a pair's communication level changes
    /// from `from` to `to` — the kernel of Lemma 2/3:
    /// `Σ_{i≤from} c_i − Σ_{i≤to} c_i`.
    pub fn level_change_saving(&self, from: Level, to: Level) -> f64 {
        self.prefix(from) - self.prefix(to)
    }

    /// Highest expressible communication level.
    pub fn max_level(&self) -> Level {
        Level::new(self.costs.len() as u8)
    }
}

impl Default for LinkWeights {
    fn default() -> Self {
        LinkWeights::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_evaluation_section() {
        let w = LinkWeights::paper_default();
        assert_eq!(w.max_level(), Level::CORE);
        assert!((w.weights()[0] - 1.0).abs() < 1e-12);
        assert!((w.weights()[1] - std::f64::consts::E).abs() < 1e-12);
        assert!((w.weights()[2] - 3f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn prefix_sums() {
        let w = LinkWeights::new([1.0, 2.0, 4.0]).unwrap();
        assert_eq!(w.prefix(Level::ZERO), 0.0);
        assert_eq!(w.prefix(Level::RACK), 1.0);
        assert_eq!(w.prefix(Level::AGGREGATION), 3.0);
        assert_eq!(w.prefix(Level::CORE), 7.0);
        assert_eq!(w.pair_cost_per_unit(Level::CORE), 14.0);
    }

    #[test]
    fn level_change_saving_signs() {
        let w = LinkWeights::new([1.0, 2.0, 4.0]).unwrap();
        // Moving traffic from core level down to rack level saves 2+4 per
        // unit (per direction).
        assert_eq!(w.level_change_saving(Level::CORE, Level::RACK), 6.0);
        // Moving up is a negative saving.
        assert_eq!(w.level_change_saving(Level::RACK, Level::CORE), -6.0);
        assert_eq!(
            w.level_change_saving(Level::AGGREGATION, Level::AGGREGATION),
            0.0
        );
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(LinkWeights::new([]), Err(WeightsError::Empty));
    }

    #[test]
    fn rejects_non_positive() {
        assert_eq!(
            LinkWeights::new([1.0, 0.0]),
            Err(WeightsError::NotPositive { index: 1 })
        );
        assert_eq!(
            LinkWeights::new([-1.0]),
            Err(WeightsError::NotPositive { index: 0 })
        );
        assert_eq!(
            LinkWeights::new([f64::NAN]),
            Err(WeightsError::NotPositive { index: 0 })
        );
    }

    #[test]
    fn rejects_non_increasing() {
        assert_eq!(
            LinkWeights::new([1.0, 1.0]),
            Err(WeightsError::NotIncreasing { index: 1 })
        );
        assert_eq!(
            LinkWeights::new([2.0, 1.0]),
            Err(WeightsError::NotIncreasing { index: 1 })
        );
    }

    #[test]
    fn exponential_family() {
        let w = LinkWeights::exponential(4, 2.0).unwrap();
        assert_eq!(w.weights(), &[1.0, 2.0, 4.0, 8.0]);
        assert!(LinkWeights::exponential(3, 1.0).is_err());
        assert!(LinkWeights::exponential(0, 2.0).is_err());
    }

    #[test]
    fn error_display() {
        assert_eq!(
            WeightsError::Empty.to_string(),
            "link weights must contain at least one level"
        );
        assert!(WeightsError::NotPositive { index: 2 }
            .to_string()
            .contains("index 2"));
        assert!(WeightsError::NotIncreasing { index: 1 }
            .to_string()
            .contains("index 1"));
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(LinkWeights::default(), LinkWeights::paper_default());
    }
}
