//! The forecast-aware decision input: an [`OutlookContext`] fills each
//! peer's [`PeerInfo::expected`](crate::PeerInfo::expected) rate in the
//! holder's one [`LocalView`].
//!
//! The forecast generalizes the paper's pipeline without changing it: a
//! *reactive* context (no forecast — [`OutlookContext::reactive`])
//! leaves every expected rate at the current rate, and every decision is
//! the paper's, bit for bit. A *forecasting* context reads a
//! `score_traffic::RateForecaster` for each peer's rate `horizon_s`
//! seconds ahead, letting the engine rank candidate hosts by where
//! traffic is *going* rather than where it has been — pre-empting
//! migrations before a spike lands instead of chasing it afterwards.
//!
//! Filling only *reads* the forecaster — the cost ledger and the cluster
//! are never touched, so reading ahead can never dirty them.

use score_traffic::RateForecaster;

use crate::view::LocalView;

/// Per-step forecast glue: forecaster + clock + horizon, borrowed for
/// the duration of one ring step.
///
/// [`OutlookContext::reactive`] is the no-forecast context; the pipeline
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

    /// The lookahead horizon (0 when reactive).
    pub fn horizon_s(&self) -> f64 {
        self.horizon_s
    }

    /// Sets each peer's `expected` rate of a freshly observed `view` to
    /// the peak-demand envelope `max(current, forecast)`, one forecaster
    /// read per peer. A reactive context leaves the view as observed.
    ///
    /// The max matters: scoring on the raw forecast alone would let the
    /// pipeline "see through" load that is on the wire right now but
    /// predicted to subside within the horizon (a flash crowd ending in
    /// 20 s still hammers the fabric *today*). The envelope adds
    /// pre-emption for predicted load without ever subtracting
    /// reactivity to current load.
    pub fn fill_expected(&self, view: &mut LocalView) {
        if let Some(f) = self.forecaster {
            for p in &mut view.peers {
                p.expected = f
                    .predict(view.vm, p.vm, self.now_s, self.horizon_s)
                    .max(p.rate);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::PeerInfo;
    use score_topology::{Level, ServerId, VmId};
    use score_traffic::{EwmaForecaster, PairTrafficBuilder};

    fn view() -> LocalView {
        let peer = |vm, rate, server, level| PeerInfo {
            vm: VmId::new(vm),
            rate,
            expected: rate,
            server: ServerId::new(server),
            level,
        };
        LocalView {
            vm: VmId::new(0),
            server: ServerId::new(0),
            peers: vec![peer(1, 10.0, 1, Level::RACK), peer(2, 5.0, 8, Level::CORE)],
        }
    }

    /// A forecaster primed flat on the view's pairs at t = 0.
    fn trending() -> EwmaForecaster {
        let mut b = PairTrafficBuilder::new(3);
        b.add(VmId::new(0), VmId::new(1), 10.0);
        b.add(VmId::new(0), VmId::new(2), 5.0);
        let mut f = EwmaForecaster::new(1.0);
        f.prime(&b.build(), 0.0);
        f
    }

    #[test]
    fn reactive_outlook_passes_current_rates_through() {
        let mut v = view();
        OutlookContext::reactive().fill_expected(&mut v);
        assert_eq!(v, view());
        assert_eq!(OutlookContext::reactive().horizon_s(), 0.0);
        // Zero horizon degrades to reactive.
        let f = trending();
        let ctx0 = OutlookContext::forecast(&f, 10.0, 0.0);
        assert_eq!(ctx0.horizon_s(), 0.0);
        ctx0.fill_expected(&mut v);
        assert_eq!(v, view());
    }

    #[test]
    fn forecasted_outlook_rerates_the_decision_view() {
        let mut f = trending();
        f.observe_updates(
            &mut [
                (VmId::new(0), VmId::new(1), 1.0),
                (VmId::new(0), VmId::new(2), 50.0),
            ]
            .into_iter(),
            10.0,
        );
        let mut v = view();
        OutlookContext::forecast(&f, 10.0, 30.0).fill_expected(&mut v);
        // Scoring uses the peak envelope: the pipeline must not "see
        // through" a currently heavy pair predicted to subside …
        assert_eq!(v.peers[0].expected, 10.0);
        // … while a rising pair is scored at its forecast.
        assert!(v.peers[1].expected > 50.0);
        // Everything but the expected rates is as observed.
        for (p, q) in v.peers.iter().zip(&view().peers) {
            assert_eq!(
                (p.vm, p.rate, p.server, p.level),
                (q.vm, q.rate, q.server, q.level)
            );
        }
    }

    #[test]
    fn context_builds_outlooks_from_the_forecaster() {
        let mut f = trending();
        f.observe_updates(&mut [(VmId::new(0), VmId::new(2), 10.0)].into_iter(), 10.0);
        let ctx = OutlookContext::forecast(&f, 10.0, 10.0);
        assert_eq!(ctx.horizon_s(), 10.0);
        let mut v = view();
        ctx.fill_expected(&mut v);
        // (0,1) flat at 10; (0,2) ramping 0.5/s → 15 at the horizon.
        assert_eq!(v.peers[0].expected, 10.0);
        assert!((v.peers[1].expected - 15.0).abs() < 1e-9);
    }
}
