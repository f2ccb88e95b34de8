//! Random distributions used by the traffic generator.
//!
//! DC measurement studies (Kandula et al. IMC'09, Benson et al. IMC'10 —
//! the paper's refs \[18\]\[19\]\[23\]) report long-tailed flow populations:
//! *mice* flows dominate in number while a small set of *elephants* carries
//! most bytes. We model rates with a log-normal body and a bounded-Pareto
//! tail. The `rand` crate ships only uniform sampling, so the transforms are
//! implemented here from first principles.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Samples a standard normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling U1 from the half-open (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal distribution parameterised by the underlying normal's
/// mean `mu` and standard deviation `sigma`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use score_traffic::dist::LogNormal;
///
/// let d = LogNormal::from_median_sigma(10_000.0, 1.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let x = d.sample(&mut rng);
/// assert!(x > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates the distribution from the underlying normal parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "invalid log-normal"
        );
        LogNormal { mu, sigma }
    }

    /// Creates the distribution from its median (`e^mu`) and `sigma`,
    /// which is how traffic rates are most naturally specified.
    ///
    /// # Panics
    ///
    /// Panics if `median` is not positive.
    pub fn from_median_sigma(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        LogNormal::new(median.ln(), sigma)
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    /// The distribution median `e^mu`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// The distribution mean `e^(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }
}

/// Bounded Pareto distribution on `[min, max]` with tail index `alpha`.
///
/// Used for elephant-flow rates: heavy-tailed but capped at a physically
/// plausible maximum (e.g. the NIC line rate).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundedPareto {
    alpha: f64,
    min: f64,
    max: f64,
}

impl BoundedPareto {
    /// Creates the distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min < max` and `alpha > 0`.
    pub fn new(alpha: f64, min: f64, max: f64) -> Self {
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        assert!(
            min > 0.0 && min < max && max.is_finite(),
            "need 0 < min < max"
        );
        BoundedPareto { alpha, min, max }
    }

    /// Draws one sample by inverse-transform sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen::<f64>().min(1.0 - 1e-12);
        let la = self.min.powf(self.alpha);
        let ha = self.max.powf(self.alpha);
        // Inverse CDF of the bounded Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha)
    }

    /// Lower bound of the support.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper bound of the support.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// A two-population rate model: log-normal mice with a probability
/// `elephant_prob` of drawing from a bounded-Pareto elephant tail instead.
///
/// This is the distribution behind every pairwise VM rate λ(u, v) the
/// generator produces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateModel {
    /// Mice-rate distribution.
    pub mice: LogNormal,
    /// Elephant-rate distribution.
    pub elephants: BoundedPareto,
    /// Probability that a pair is an elephant pair.
    pub elephant_prob: f64,
}

impl RateModel {
    /// Rates representative of published DC measurements: mice with a
    /// median of ~50 kb/s, 5% elephant pairs between 10 and 400 Mb/s.
    pub fn datacenter_default() -> Self {
        RateModel {
            mice: LogNormal::from_median_sigma(50e3, 1.2),
            elephants: BoundedPareto::new(1.2, 10e6, 400e6),
            elephant_prob: 0.05,
        }
    }

    /// Draws one pairwise rate in bits per second.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if rng.gen::<f64>() < self.elephant_prob {
            self.elephants.sample(rng)
        } else {
            self.mice.sample(rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_median_close() {
        let d = LogNormal::from_median_sigma(100.0, 0.8);
        let mut r = rng();
        let mut samples: Vec<f64> = (0..10_001).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[5000];
        assert!((median / 100.0 - 1.0).abs() < 0.15, "median {median}");
        assert!((d.median() - 100.0).abs() < 1e-9);
        assert!(d.mean() > d.median());
    }

    #[test]
    fn bounded_pareto_support() {
        let d = BoundedPareto::new(1.5, 10.0, 1000.0);
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!(
                x >= d.min() - 1e-9 && x <= d.max() + 1e-9,
                "sample {x} out of bounds"
            );
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed() {
        // With alpha=1.2 a noticeable fraction of mass sits far above min.
        let d = BoundedPareto::new(1.2, 10.0, 10_000.0);
        let mut r = rng();
        let n = 20_000;
        let over = (0..n).filter(|_| d.sample(&mut r) > 100.0).count();
        let frac = over as f64 / n as f64;
        assert!(frac > 0.02 && frac < 0.3, "tail fraction {frac}");
    }

    #[test]
    fn rate_model_mixes_populations() {
        let m = RateModel::datacenter_default();
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| m.sample(&mut r)).collect();
        let elephants = samples.iter().filter(|&&x| x >= 10e6).count();
        let frac = elephants as f64 / n as f64;
        assert!(frac > 0.02 && frac < 0.10, "elephant fraction {frac}");
        // Elephants should dominate the byte count (long-tail property).
        let total: f64 = samples.iter().sum();
        let elephant_bytes: f64 = samples.iter().filter(|&&x| x >= 10e6).sum();
        assert!(elephant_bytes / total > 0.5, "elephants carry most bytes");
    }

    #[test]
    #[should_panic(expected = "median must be positive")]
    fn lognormal_rejects_bad_median() {
        let _ = LogNormal::from_median_sigma(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "0 < min < max")]
    fn pareto_rejects_inverted_bounds() {
        let _ = BoundedPareto::new(1.0, 10.0, 5.0);
    }
}
