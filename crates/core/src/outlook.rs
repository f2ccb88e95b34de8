//! The forecast-aware decision input: a [`TrafficOutlook`] is what every
//! policy and engine decision consumes — the holder's current
//! [`LocalView`] plus an optional short-horizon forecast of its per-peer
//! rates.
//!
//! The outlook generalizes the paper's pipeline without changing it: a
//! *reactive* outlook (no forecast — [`TrafficOutlook::reactive`]) makes
//! every decision from current rates exactly as before, bit for bit. A
//! *forecasted* outlook additionally carries, for each peer, the
//! predicted rate `horizon_s` seconds ahead (produced by a
//! `score_traffic::RateForecaster`), letting the engine rank candidate
//! hosts by where traffic is *going* rather than where it has been —
//! pre-empting migrations before a spike lands instead of chasing it
//! afterwards.
//!
//! [`OutlookContext`] is the per-step glue: it captures the forecaster,
//! the current clock and the horizon, and predicts the per-peer rates
//! of each observed [`LocalView`] for the ring, which re-rates the
//! engine's scoring view with them and hands the token policy the
//! outlook. Predicting only *reads* the forecaster — the cost ledger
//! and the cluster are never touched, so reading ahead can never dirty
//! them.

use score_topology::VmId;
use score_traffic::RateForecaster;

use crate::view::LocalView;

/// The decision input of one token hold: current local state plus an
/// optional per-peer rate forecast (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficOutlook {
    view: LocalView,
    /// Predicted per-peer rates at `horizon_s` ahead, aligned index-for-
    /// index with `view.peers`; `None` = reactive (no forecast).
    predicted: Option<Vec<f64>>,
    horizon_s: f64,
}

impl TrafficOutlook {
    /// A reactive outlook: decisions read current rates only — the
    /// compatibility mode that reproduces the paper pipeline exactly.
    pub fn reactive(view: LocalView) -> Self {
        TrafficOutlook {
            view,
            predicted: None,
            horizon_s: 0.0,
        }
    }

    /// An outlook carrying predicted per-peer rates (`predicted[i]` is
    /// the forecast for `view.peers[i]` at `horizon_s` ahead).
    ///
    /// # Panics
    ///
    /// Panics if `predicted` is not aligned with the view's peer list
    /// or the horizon is not positive and finite.
    pub fn with_forecast(view: LocalView, predicted: Vec<f64>, horizon_s: f64) -> Self {
        assert_eq!(
            predicted.len(),
            view.peers.len(),
            "forecast must cover every peer"
        );
        assert!(
            horizon_s.is_finite() && horizon_s > 0.0,
            "forecast horizon must be positive and finite, got {horizon_s}"
        );
        TrafficOutlook {
            view,
            predicted: Some(predicted),
            horizon_s,
        }
    }

    /// The holder's current local view.
    pub fn view(&self) -> &LocalView {
        &self.view
    }

    /// Consumes the outlook, returning its buffers — how the ring's
    /// scratch reclaims the view (and predicted-rate slab) it lent to a
    /// policy via an owned outlook.
    pub fn into_parts(self) -> (LocalView, Option<Vec<f64>>) {
        (self.view, self.predicted)
    }

    /// The observing VM.
    pub fn vm(&self) -> VmId {
        self.view.vm
    }

    /// True when a forecast is attached.
    pub fn has_forecast(&self) -> bool {
        self.predicted.is_some()
    }

    /// The lookahead horizon in seconds (0 for reactive outlooks).
    pub fn horizon_s(&self) -> f64 {
        self.horizon_s
    }

    /// The raw forecasted rate of peer `i` at the horizon (the current
    /// rate when no forecast is attached).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn forecast_rate(&self, i: usize) -> f64 {
        match &self.predicted {
            Some(p) => p[i],
            None => self.view.peers[i].rate,
        }
    }

    /// The rate decisions *score* peer `i` at: the peak-demand envelope
    /// `max(current, forecast)` over the lookahead window.
    ///
    /// The max matters: scoring on the raw forecast alone would let the
    /// pipeline "see through" load that is on the wire right now but
    /// predicted to subside within the horizon (a flash crowd ending in
    /// 20 s still hammers the fabric *today*). The envelope adds
    /// pre-emption for predicted load without ever subtracting
    /// reactivity to current load — and degenerates to the current rate
    /// exactly when no forecast is attached.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn expected_rate(&self, i: usize) -> f64 {
        match &self.predicted {
            Some(p) => p[i].max(self.view.peers[i].rate),
            None => self.view.peers[i].rate,
        }
    }

    /// The expected (peak-envelope) rate towards a peer VM (0 for
    /// non-peers).
    pub fn expected_rate_to(&self, vm: VmId) -> f64 {
        self.view
            .peers
            .iter()
            .position(|p| p.vm == vm)
            .map_or(0.0, |i| self.expected_rate(i))
    }

    /// Sum of expected (peak-envelope) per-peer rates — the NIC demand
    /// the decision pipeline provisions for.
    pub fn expected_total_rate(&self) -> f64 {
        (0..self.view.peers.len())
            .map(|i| self.expected_rate(i))
            .sum()
    }
}

/// Per-step outlook factory: forecaster + clock + horizon, borrowed for
/// the duration of one ring step.
///
/// [`OutlookContext::reactive`] is the no-forecast context; every
/// outlook it builds is [`TrafficOutlook::reactive`] and the pipeline
/// behaves exactly as the paper's. A zero or negative horizon also
/// degrades to reactive — "zero-horizon lookahead" and "no lookahead"
/// are the same thing, by construction.
#[derive(Debug, Clone, Copy)]
pub struct OutlookContext<'a> {
    forecaster: Option<&'a dyn RateForecaster>,
    now_s: f64,
    horizon_s: f64,
}

impl<'a> OutlookContext<'a> {
    /// The reactive (no-forecast) context.
    pub fn reactive() -> OutlookContext<'static> {
        OutlookContext {
            forecaster: None,
            now_s: 0.0,
            horizon_s: 0.0,
        }
    }

    /// A forecasting context reading `forecaster` at simulated time
    /// `now_s` with lookahead `horizon_s`. A non-positive horizon
    /// yields the reactive context.
    pub fn forecast(
        forecaster: &'a dyn RateForecaster,
        now_s: f64,
        horizon_s: f64,
    ) -> OutlookContext<'a> {
        if horizon_s > 0.0 {
            OutlookContext {
                forecaster: Some(forecaster),
                now_s,
                horizon_s,
            }
        } else {
            OutlookContext::reactive()
        }
    }

    /// True when outlooks built by this context carry forecasts.
    pub fn is_forecasting(&self) -> bool {
        self.forecaster.is_some()
    }

    /// The lookahead horizon (0 when reactive).
    pub fn horizon_s(&self) -> f64 {
        self.horizon_s
    }

    /// Fills `out` with the forecasted per-peer rates for `view`
    /// (index-aligned), reusing the buffer. Returns `false` without
    /// touching `out` when the context is reactive.
    pub fn predict_into(&self, view: &LocalView, out: &mut Vec<f64>) -> bool {
        match self.forecaster {
            Some(f) => {
                out.clear();
                out.extend(
                    view.peers
                        .iter()
                        .map(|p| f.predict(view.vm, p.vm, self.now_s, self.horizon_s)),
                );
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::PeerInfo;
    use score_topology::{Level, ServerId};
    use score_traffic::{EwmaForecaster, PairTrafficBuilder};

    fn view() -> LocalView {
        LocalView {
            vm: VmId::new(0),
            server: ServerId::new(0),
            peers: vec![
                PeerInfo {
                    vm: VmId::new(1),
                    rate: 10.0,
                    server: ServerId::new(1),
                    level: Level::RACK,
                },
                PeerInfo {
                    vm: VmId::new(2),
                    rate: 5.0,
                    server: ServerId::new(8),
                    level: Level::CORE,
                },
            ],
        }
    }

    #[test]
    fn reactive_outlook_passes_current_rates_through() {
        let o = TrafficOutlook::reactive(view());
        assert!(!o.has_forecast());
        assert_eq!(o.horizon_s(), 0.0);
        assert_eq!(o.expected_rate(0), 10.0);
        assert_eq!(o.expected_rate_to(VmId::new(2)), 5.0);
        assert_eq!(o.expected_rate_to(VmId::new(9)), 0.0);
        assert_eq!(o.expected_total_rate(), 15.0);
    }

    #[test]
    fn forecasted_outlook_rerates_the_decision_view() {
        let o = TrafficOutlook::with_forecast(view(), vec![1.0, 50.0], 30.0);
        assert!(o.has_forecast());
        assert_eq!(o.horizon_s(), 30.0);
        // Raw forecasts pass through …
        assert_eq!(o.forecast_rate(0), 1.0);
        assert_eq!(o.forecast_rate(1), 50.0);
        // … but scoring uses the peak envelope: the pipeline must not
        // "see through" currently heavy pairs predicted to subside.
        assert_eq!(o.expected_rate(0), 10.0);
        assert_eq!(o.expected_rate(1), 50.0);
        assert_eq!(o.expected_total_rate(), 60.0);
        // Re-rating the scoring view the way the ring does it.
        let rates: Vec<f64> = (0..2).map(|i| o.expected_rate(i)).collect();
        let mut dv = LocalView::default();
        dv.assign_with_rates(o.view(), &rates);
        assert_eq!(dv.peers[0].rate, 10.0);
        assert_eq!(dv.peers[1].rate, 50.0);
        // Everything but the rates is preserved.
        assert_eq!(dv.peers[1].server, ServerId::new(8));
        assert_eq!(dv.peers[1].level, Level::CORE);
        // The *current* view is untouched.
        assert_eq!(o.view().peers[0].rate, 10.0);
    }

    #[test]
    #[should_panic(expected = "forecast must cover every peer")]
    fn misaligned_forecast_rejected() {
        let _ = TrafficOutlook::with_forecast(view(), vec![1.0], 30.0);
    }

    #[test]
    fn context_builds_outlooks_from_the_forecaster() {
        let mut b = PairTrafficBuilder::new(3);
        b.add(VmId::new(0), VmId::new(1), 10.0);
        b.add(VmId::new(0), VmId::new(2), 5.0);
        let tm = b.build();
        let mut f = EwmaForecaster::new(1.0);
        f.prime(&tm, 0.0);
        f.observe_updates(&[(VmId::new(0), VmId::new(2), 10.0)], 10.0);

        let ctx = OutlookContext::forecast(&f, 10.0, 10.0);
        assert!(ctx.is_forecasting());
        let mut predicted = Vec::new();
        assert!(ctx.predict_into(&view(), &mut predicted));
        let o = TrafficOutlook::with_forecast(view(), predicted, ctx.horizon_s());
        // (0,1) flat at 10; (0,2) ramping 0.5/s → 15 at the horizon.
        assert_eq!(o.expected_rate(0), 10.0);
        assert!((o.expected_rate(1) - 15.0).abs() < 1e-9);

        // Zero horizon degrades to reactive.
        let ctx0 = OutlookContext::forecast(&f, 10.0, 0.0);
        assert!(!ctx0.is_forecasting());
        let mut untouched = vec![7.0];
        assert!(!ctx0.predict_into(&view(), &mut untouched));
        assert_eq!(untouched, [7.0]);
        assert!(!OutlookContext::reactive().is_forecasting());
    }
}
