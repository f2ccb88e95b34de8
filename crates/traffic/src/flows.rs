//! Discrete flow instantiation of pairwise loads.
//!
//! The simulator and the flow-table experiments need *flows* (5-tuple-like
//! records with byte counts and durations), not just average rates.
//! [`FlowSampler`] turns a [`PairTraffic`] into a set of flows over a
//! measurement window such that each pair's byte total matches
//! `λ(u, v) × window`: elephant pairs become a few long-lived flows, mice
//! pairs a burst of short ones — the long-tail structure S-CORE exploits
//! (paper §V-C).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use score_topology::VmId;
use serde::{Deserialize, Serialize};

use crate::pairwise::PairTraffic;

/// Classification threshold: pairs above 1 Mb/s average are elephants.
pub const ELEPHANT_THRESHOLD_BPS: f64 = 1e6;

/// A single flow between two VMs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Flow {
    /// Source VM.
    pub src: VmId,
    /// Destination VM.
    pub dst: VmId,
    /// Bytes carried by this flow over its lifetime.
    pub bytes: f64,
    /// Start time within the window, seconds.
    pub start_s: f64,
    /// Duration, seconds.
    pub duration_s: f64,
}

impl Flow {
    /// Average throughput of the flow in bits per second.
    ///
    /// # Panics
    ///
    /// Panics if the flow has zero duration.
    pub fn throughput_bps(&self) -> f64 {
        assert!(self.duration_s > 0.0, "flow has zero duration");
        self.bytes * 8.0 / self.duration_s
    }
}

/// Samples concrete flows from pairwise average rates.
#[derive(Debug, Clone)]
pub struct FlowSampler {
    window_s: f64,
    seed: u64,
}

impl FlowSampler {
    /// Creates a sampler for a measurement window of `window_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `window_s` is not positive and finite.
    pub fn new(window_s: f64, seed: u64) -> Self {
        assert!(
            window_s.is_finite() && window_s > 0.0,
            "window must be positive"
        );
        FlowSampler { window_s, seed }
    }

    /// The window length in seconds.
    pub fn window_s(&self) -> f64 {
        self.window_s
    }

    /// Instantiates flows for every communicating pair.
    ///
    /// Per-pair byte conservation: the sampled flows' bytes sum to
    /// `λ(u, v) / 8 × window` exactly. Flows come grouped by pair, the
    /// pairs in [`PairTraffic::pairs`] order, `src < dst`, at least one
    /// flow a pair.
    pub fn sample(&self, traffic: &PairTraffic) -> Vec<Flow> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut flows = Vec::new();
        for (u, v, rate) in traffic.pairs() {
            let pair_bytes = rate / 8.0 * self.window_s;
            let n_flows: i32 = if rate >= ELEPHANT_THRESHOLD_BPS {
                // One to three long-lived elephant flows.
                rng.gen_range(1..=3)
            } else {
                // A handful of mice; heavier pairs burst more often.
                rng.gen_range(2..=8)
            };
            // Split bytes over flows with random positive weights (at
            // most eight of them, so they live on the stack).
            let mut weights = [0.0f64; 8];
            let weights = &mut weights[..n_flows as usize];
            weights.fill_with(|| rng.gen_range(0.2..1.0));
            let weight_sum: f64 = weights.iter().sum();
            for &w in weights.iter() {
                let bytes = pair_bytes * w / weight_sum;
                let duration = if rate >= ELEPHANT_THRESHOLD_BPS {
                    rng.gen_range(0.5..1.0) * self.window_s
                } else {
                    rng.gen_range(0.001..0.1) * self.window_s
                };
                let start = rng.gen_range(0.0..(self.window_s - duration).max(f64::MIN_POSITIVE));
                flows.push(Flow {
                    src: u,
                    dst: v,
                    bytes,
                    start_s: start,
                    duration_s: duration,
                });
            }
        }
        flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairwise::PairTrafficBuilder;

    fn two_pair_traffic() -> PairTraffic {
        let mut b = PairTrafficBuilder::new(4);
        b.add(VmId::new(0), VmId::new(1), 8e6); // elephant pair: 8 Mb/s
        b.add(VmId::new(2), VmId::new(3), 8e3); // mouse pair: 8 kb/s
        b.build()
    }

    #[test]
    fn bytes_conserved_per_pair() {
        let t = two_pair_traffic();
        let flows = FlowSampler::new(10.0, 3).sample(&t);
        let elephant_bytes: f64 = flows
            .iter()
            .filter(|f| f.src == VmId::new(0))
            .map(|f| f.bytes)
            .sum();
        // 8e6 bps / 8 * 10 s = 1e7 bytes
        assert!((elephant_bytes - 1e7).abs() < 1.0, "bytes {elephant_bytes}");
        let mouse_bytes: f64 = flows
            .iter()
            .filter(|f| f.src == VmId::new(2))
            .map(|f| f.bytes)
            .sum();
        assert!((mouse_bytes - 1e4).abs() < 0.01, "bytes {mouse_bytes}");
    }

    #[test]
    fn flows_fit_in_window() {
        let t = two_pair_traffic();
        let sampler = FlowSampler::new(10.0, 4);
        for f in sampler.sample(&t) {
            assert!(f.start_s >= 0.0);
            assert!(f.start_s + f.duration_s <= 10.0 + 1e-9);
            assert!(f.duration_s > 0.0);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let t = two_pair_traffic();
        let a = FlowSampler::new(10.0, 5).sample(&t);
        let b = FlowSampler::new(10.0, 5).sample(&t);
        assert_eq!(a, b);
    }

    #[test]
    fn elephants_get_fewer_longer_flows() {
        let t = two_pair_traffic();
        let flows = FlowSampler::new(10.0, 6).sample(&t);
        let elephant_flows: Vec<_> = flows.iter().filter(|f| f.src == VmId::new(0)).collect();
        let mouse_flows: Vec<_> = flows.iter().filter(|f| f.src == VmId::new(2)).collect();
        assert!(elephant_flows.len() <= 3);
        assert!(mouse_flows.len() >= 2);
        let mean_e: f64 =
            elephant_flows.iter().map(|f| f.duration_s).sum::<f64>() / elephant_flows.len() as f64;
        let mean_m: f64 =
            mouse_flows.iter().map(|f| f.duration_s).sum::<f64>() / mouse_flows.len() as f64;
        assert!(mean_e > mean_m, "elephants should live longer");
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = FlowSampler::new(0.0, 1);
    }

    #[test]
    #[should_panic(expected = "zero duration")]
    fn zero_duration_throughput_panics() {
        let f = Flow {
            src: VmId::new(0),
            dst: VmId::new(1),
            bytes: 1.0,
            start_s: 0.0,
            duration_s: 0.0,
        };
        let _ = f.throughput_bps();
    }
}
