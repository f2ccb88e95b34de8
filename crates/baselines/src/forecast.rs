//! Forecast-aware baselines: running the centralized algorithms on the
//! *predicted* traffic matrix.
//!
//! The token-ring pipeline became forecast-aware through the expected
//! per-peer rates `score_core::OutlookContext` fills into each token
//! holder's view; the centralized baselines
//! (Remedy, the GA, the exhaustive search) need no such surgery —
//! every one of them ranks placements against a `PairTraffic`, so
//! handing them `score_traffic::predicted_traffic` (each current pair
//! re-rated to its forecast at `now + horizon`) makes them plan for
//! where load is *going*. This module provides the one-line glue for
//! the baseline the paper actually compares against.

use score_core::Cluster;
use score_traffic::{predicted_traffic, PairTraffic, RateForecaster};

use crate::remedy::{Remedy, RemedyResult};

/// Runs Remedy against the forecasted TM: the predicted per-pair rates
/// at `now_s + horizon_s` drive its utilization balancing and its NIC
/// probe, while the cluster's slot/RAM/CPU state stays the live one. The
/// cluster is told of the swap both ways, so it leaves bound to
/// `current` again. With a zero horizon the prediction *is* the current
/// TM and this is exactly `Remedy::run`.
pub fn remedy_on_forecast(
    remedy: &Remedy,
    cluster: &mut Cluster,
    current: &PairTraffic,
    forecaster: &dyn RateForecaster,
    now_s: f64,
    horizon_s: f64,
) -> RemedyResult {
    let ahead = predicted_traffic(forecaster, current, now_s, horizon_s);
    let rebind = "a prediction keeps the population";
    cluster.rebind_traffic(&ahead).expect(rebind);
    let result = remedy.run(cluster, &ahead);
    cluster.rebind_traffic(current).expect(rebind);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::striped_placement;
    use crate::remedy::RemedyConfig;
    use score_core::{ServerSpec, VmSpec};
    use score_topology::{CanonicalTree, VmId};
    use score_traffic::{EwmaForecaster, PairTrafficBuilder};
    use std::sync::Arc;

    fn cluster_for(traffic: &PairTraffic) -> Cluster {
        let topo = Arc::new(CanonicalTree::small());
        let alloc = striped_placement(traffic.num_vms(), 16, 16);
        Cluster::new(
            topo,
            ServerSpec::paper_default(),
            VmSpec::paper_default(),
            traffic,
            alloc,
        )
        .unwrap()
    }

    #[test]
    fn remedy_plans_on_the_predicted_matrix() {
        // Pair (0, 1) is quiet now but ramping hard; (2, 3) is loud now
        // but collapsing. The forecast-aware run must see the former.
        let mut b = PairTrafficBuilder::new(8);
        b.add(VmId::new(0), VmId::new(1), 1e6);
        b.add(VmId::new(2), VmId::new(3), 9e8);
        let earlier = b.build();
        let mut b = PairTrafficBuilder::new(8);
        b.add(VmId::new(0), VmId::new(1), 2e8);
        b.add(VmId::new(2), VmId::new(3), 4e8);
        let current = b.build();

        let mut f = EwmaForecaster::new(1.0);
        f.prime(&earlier, 0.0);
        f.observe_updates(
            &[
                (VmId::new(0), VmId::new(1), 2e8),
                (VmId::new(2), VmId::new(3), 4e8),
            ],
            10.0,
        );
        let ahead = predicted_traffic(&f, &current, 10.0, 20.0);
        // The ramping pair overtakes the collapsing one at the horizon.
        assert!(ahead.rate(VmId::new(0), VmId::new(1)) > ahead.rate(VmId::new(2), VmId::new(3)));

        // Both runs complete on the same cluster shape; the
        // forecast-aware one consumed the predicted TM (its utilization
        // view differs), and a zero horizon reproduces the current-TM
        // run exactly.
        let remedy = Remedy::new(RemedyConfig::paper_default());
        let mut cluster = cluster_for(&current);
        let now = remedy.run(&mut cluster, &current);
        let mut cluster = cluster_for(&current);
        let zero = remedy_on_forecast(&remedy, &mut cluster, &current, &f, 10.0, 0.0);
        assert_eq!(now.steps.len(), zero.steps.len());
        let mut cluster = cluster_for(&current);
        let _ahead_run = remedy_on_forecast(&remedy, &mut cluster, &current, &f, 10.0, 20.0);
        assert!(cluster.allocation().is_consistent());
        // The cluster's memoised NIC loads are the live TM's again.
        #[cfg(debug_assertions)]
        cluster.check_invariants(&current);
    }
}
