//! Short-horizon per-pair rate forecasting (ROADMAP "trace-aware
//! policies").
//!
//! The paper's decision procedure consumes the *current* traffic matrix
//! only, so under time-varying workloads it chases spikes after they
//! land. Predictive dynamic VM management (arXiv:1602.00097) and the
//! migration-timing concerns surveyed in arXiv:1601.03854 both argue
//! for acting on *expected* load instead. [`RateForecaster`] is that
//! contract: an online estimator fed the same absolute re-rates the
//! simulator applies in place, answering "what will λ(u, v) be
//! `horizon_s` seconds from now?".
//!
//! [`EwmaForecaster`] is the measurement-driven implementation: an
//! exponentially weighted linear-trend (Holt-style) estimator per pair,
//! `O(changed pairs)` per observation and deterministic — the same
//! update stream always yields the same predictions, regardless of
//! which thread replays it. The trace-driven *oracle* counterpart
//! (exact lookahead into a compiled trace) lives in
//! `score_trace::OracleForecaster`.

use score_topology::VmId;
use std::collections::HashMap;
use std::fmt;

use crate::pairwise::PairTraffic;

/// An online short-horizon predictor of pairwise traffic rates.
///
/// Implementations are fed the full TM once ([`RateForecaster::prime`])
/// and then the same sparse absolute re-rates and uniform scales the
/// traffic engine applies ([`RateForecaster::observe_updates`],
/// [`RateForecaster::observe_scale`]); in return they answer
/// point predictions ([`RateForecaster::predict`]). Predictions must be
/// non-negative and finite, and `predict` must not mutate state — the
/// decision path reads forecasts between observations and must stay
/// side-effect free (the cost ledger, in particular, must never notice
/// a forecaster).
pub trait RateForecaster: fmt::Debug + Send {
    /// Short name for logs and CSV columns (e.g. `"ewma"`, `"oracle"`).
    fn name(&self) -> &'static str;

    /// Resets the estimator onto a full TM observed at `now_s` (session
    /// start, phase rebinds).
    fn prime(&mut self, traffic: &PairTraffic, now_s: f64);

    /// Folds one batch of absolute re-rates observed at `now_s`; each
    /// `(u, v, new_rate)` entry replaces λ(u, v). The batch is an
    /// iterator, so a caller can map its own records into it without
    /// collecting them first.
    fn observe_updates(&mut self, updates: &mut dyn Iterator<Item = (VmId, VmId, f64)>, now_s: f64);

    /// Folds one uniform scale observed at `now_s`: every λ(u, v) was
    /// multiplied by `factor` (saturating at `f64::MAX`). Equivalent to
    /// [`RateForecaster::observe_updates`] fed every pair the forecaster
    /// tracks at its scaled rate — the traffic engine scales in O(1) and
    /// leaves the per-pair bookkeeping to whoever keeps per-pair state.
    fn observe_scale(&mut self, factor: f64, now_s: f64);

    /// Predicted λ(u, v) in b/s at `now_s + horizon_s`. A horizon of 0
    /// asks for the current estimate.
    fn predict(&self, u: VmId, v: VmId, now_s: f64, horizon_s: f64) -> f64;

    /// Every canonical `(u, v)` pair this forecaster holds state for —
    /// including pairs silent *now* but predicted to appear (a flash
    /// crowd's emerging elephants).
    fn known_pairs(&self) -> Vec<(VmId, VmId)>;
}

/// Per-pair state of the EWMA linear-trend estimator.
#[derive(Debug, Clone, Copy)]
struct PairTrend {
    /// Last observed absolute rate (exact — updates are absolute).
    rate: f64,
    /// Smoothed rate-of-change in b/s per second.
    slope: f64,
    /// Time of the last observation.
    last_s: f64,
}

/// An exponentially weighted linear-trend forecaster (Holt-style double
/// smoothing over absolute re-rates).
///
/// The *level* needs no smoothing — observations are absolute rates, so
/// the current level is exact. The *trend* is smoothed: each update
/// blends the instantaneous slope `(new − old) / Δt` into the running
/// slope with weight `alpha`. Prediction extrapolates linearly from the
/// last observation and clamps at zero:
/// `max(0, rate + slope · (now + horizon − last))`.
///
/// # Examples
///
/// ```
/// use score_topology::VmId;
/// use score_traffic::{EwmaForecaster, PairTrafficBuilder, RateForecaster};
///
/// let mut b = PairTrafficBuilder::new(2);
/// b.add(VmId::new(0), VmId::new(1), 1e6);
/// let tm = b.build();
/// let mut f = EwmaForecaster::new(1.0); // no smoothing: pure trend
/// f.prime(&tm, 0.0);
/// // The pair ramps by 1 Mb/s every 10 s …
/// f.observe_updates(&mut [(VmId::new(0), VmId::new(1), 2e6)].into_iter(), 10.0);
/// // … so 20 s ahead it should sit near 4 Mb/s.
/// let ahead = f.predict(VmId::new(0), VmId::new(1), 10.0, 20.0);
/// assert!((ahead - 4e6).abs() < 1.0);
/// // Horizon 0 returns the current rate exactly.
/// assert_eq!(f.predict(VmId::new(0), VmId::new(1), 10.0, 0.0), 2e6);
/// ```
#[derive(Debug, Clone)]
pub struct EwmaForecaster {
    alpha: f64,
    pairs: HashMap<(u32, u32), PairTrend>,
}

impl EwmaForecaster {
    /// Creates the forecaster with trend-smoothing weight `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1` (1 = no smoothing, track the
    /// instantaneous slope; small values react slowly but resist
    /// noise).
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        EwmaForecaster {
            alpha,
            pairs: HashMap::new(),
        }
    }

    /// The trend-smoothing weight.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of pairs currently tracked.
    pub fn tracked_pairs(&self) -> usize {
        self.pairs.len()
    }

    fn key(u: VmId, v: VmId) -> (u32, u32) {
        if u < v {
            (u.get(), v.get())
        } else {
            (v.get(), u.get())
        }
    }
}

impl PairTrend {
    /// The Holt update: blends the instantaneous slope towards
    /// `new_rate` into the trend with weight `alpha`.
    fn observe(&mut self, alpha: f64, new_rate: f64, now_s: f64) {
        let dt = now_s - self.last_s;
        if dt > 0.0 {
            let inst = (new_rate - self.rate) / dt;
            self.slope = alpha * inst + (1.0 - alpha) * self.slope;
            self.last_s = now_s;
        }
        // Repeated observations at one instant: the last absolute rate
        // wins, the trend keeps its estimate.
        self.rate = new_rate;
    }
}

impl RateForecaster for EwmaForecaster {
    fn name(&self) -> &'static str {
        "ewma"
    }

    fn prime(&mut self, traffic: &PairTraffic, now_s: f64) {
        self.pairs.clear();
        for (u, v, rate) in traffic.pairs() {
            self.pairs.insert(
                Self::key(u, v),
                PairTrend {
                    rate,
                    slope: 0.0,
                    last_s: now_s,
                },
            );
        }
    }

    fn observe_updates(
        &mut self,
        updates: &mut dyn Iterator<Item = (VmId, VmId, f64)>,
        now_s: f64,
    ) {
        for (u, v, new_rate) in updates {
            let key = Self::key(u, v);
            match self.pairs.get_mut(&key) {
                Some(t) => t.observe(self.alpha, new_rate, now_s),
                None => {
                    // A pair appearing out of nowhere carries no trend
                    // information yet; start flat.
                    self.pairs.insert(
                        key,
                        PairTrend {
                            rate: new_rate,
                            slope: 0.0,
                            last_s: now_s,
                        },
                    );
                }
            }
        }
    }

    fn observe_scale(&mut self, factor: f64, now_s: f64) {
        for t in self.pairs.values_mut() {
            t.observe(self.alpha, (t.rate * factor).min(f64::MAX), now_s);
        }
    }

    fn predict(&self, u: VmId, v: VmId, now_s: f64, horizon_s: f64) -> f64 {
        match self.pairs.get(&Self::key(u, v)) {
            Some(t) => (t.rate + t.slope * (now_s + horizon_s - t.last_s)).max(0.0),
            None => 0.0,
        }
    }

    fn known_pairs(&self) -> Vec<(VmId, VmId)> {
        self.pairs
            .keys()
            .map(|&(u, v)| (VmId::new(u), VmId::new(v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairwise::PairTrafficBuilder;

    fn vm(i: u32) -> VmId {
        VmId::new(i)
    }

    fn tm(pairs: &[(u32, u32, f64)]) -> PairTraffic {
        let n = pairs
            .iter()
            .map(|&(u, v, _)| u.max(v) + 1)
            .max()
            .unwrap_or(2);
        let mut b = PairTrafficBuilder::new(n);
        for &(u, v, r) in pairs {
            b.add(vm(u), vm(v), r);
        }
        b.build()
    }

    #[test]
    fn primed_pairs_predict_their_rate_flat() {
        let mut f = EwmaForecaster::new(0.5);
        f.prime(&tm(&[(0, 1, 5e6), (1, 2, 1e6)]), 0.0);
        assert_eq!(f.tracked_pairs(), 2);
        // No updates yet: the forecast is the primed rate at any horizon.
        assert_eq!(f.predict(vm(0), vm(1), 0.0, 0.0), 5e6);
        assert_eq!(f.predict(vm(0), vm(1), 50.0, 100.0), 5e6);
        assert_eq!(f.predict(vm(2), vm(3), 0.0, 10.0), 0.0, "unknown pair");
    }

    #[test]
    fn linear_ramp_is_extrapolated() {
        let mut f = EwmaForecaster::new(1.0);
        f.prime(&tm(&[(0, 1, 0.0 + 1e6)]), 0.0);
        for step in 1..=5u32 {
            let t = f64::from(step) * 10.0;
            f.observe_updates(
                &mut [(vm(0), vm(1), 1e6 + f64::from(step) * 1e6)].into_iter(),
                t,
            );
        }
        // Rate at t=50 is 6 Mb/s climbing 0.1 Mb/s²; 30 s ahead ≈ 9 Mb/s.
        let ahead = f.predict(vm(0), vm(1), 50.0, 30.0);
        assert!((ahead - 9e6).abs() < 1.0, "got {ahead}");
    }

    #[test]
    fn declining_pairs_clamp_at_zero() {
        let mut f = EwmaForecaster::new(1.0);
        f.prime(&tm(&[(0, 1, 1e6)]), 0.0);
        f.observe_updates(&mut [(vm(0), vm(1), 0.5e6)].into_iter(), 10.0);
        // Slope −50 kb/s²: 100 s ahead the linear extrapolation is
        // negative, the forecast is clamped.
        assert_eq!(f.predict(vm(0), vm(1), 10.0, 100.0), 0.0);
    }

    #[test]
    fn direction_is_canonical() {
        let mut f = EwmaForecaster::new(0.5);
        f.prime(&tm(&[(0, 1, 2e6)]), 0.0);
        f.observe_updates(&mut [(vm(1), vm(0), 4e6)].into_iter(), 5.0);
        assert_eq!(f.tracked_pairs(), 1);
        assert_eq!(f.predict(vm(0), vm(1), 5.0, 0.0), 4e6);
        assert_eq!(
            f.predict(vm(0), vm(1), 5.0, 0.0),
            f.predict(vm(1), vm(0), 5.0, 0.0)
        );
    }

    #[test]
    fn smoothing_damps_noise() {
        let mut smooth = EwmaForecaster::new(0.2);
        let mut jumpy = EwmaForecaster::new(1.0);
        let base = tm(&[(0, 1, 1e6)]);
        smooth.prime(&base, 0.0);
        jumpy.prime(&base, 0.0);
        // A steady ramp followed by one spurious dip.
        for (t, r) in [(10.0, 2e6), (20.0, 3e6), (30.0, 4e6), (40.0, 1e6)] {
            smooth.observe_updates(&mut [(vm(0), vm(1), r)].into_iter(), t);
            jumpy.observe_updates(&mut [(vm(0), vm(1), r)].into_iter(), t);
        }
        // α = 1 swings to the dip's full negative slope; α = 0.2 keeps
        // most of the accumulated upward trend.
        let s = smooth.predict(vm(0), vm(1), 40.0, 10.0);
        let j = jumpy.predict(vm(0), vm(1), 40.0, 10.0);
        assert!(s > j, "smoothed {s} vs jumpy {j}");
    }

    #[test]
    fn prime_resets_state() {
        let mut f = EwmaForecaster::new(0.7);
        f.prime(&tm(&[(0, 1, 1e6)]), 0.0);
        f.observe_updates(&mut [(vm(0), vm(1), 9e6)].into_iter(), 10.0);
        f.prime(&tm(&[(0, 1, 2e6)]), 0.0);
        assert_eq!(f.predict(vm(0), vm(1), 0.0, 100.0), 2e6, "trend cleared");
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn invalid_alpha_rejected() {
        let _ = EwmaForecaster::new(0.0);
    }

    #[test]
    fn forecaster_name() {
        assert_eq!(EwmaForecaster::new(0.5).name(), "ewma");
    }
}
