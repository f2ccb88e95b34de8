//! Synthetic DC workload generator (paper §VI, Fig. 3a–c).
//!
//! The paper built "a DC traffic generator to evaluate S-CORE under
//! realistic DC load patterns at increasing intensities, as these have been
//! reported in a number of DC measurement studies". The salient published
//! properties it reproduces:
//!
//! * the ToR-to-ToR TM is **sparse** and "only a handful of ToRs become
//!   hotspots";
//! * the flow population is **long-tailed**: mice flows dominate counts,
//!   elephants dominate bytes;
//! * application traffic is **clustered**: VMs of a service talk mostly to
//!   one another.
//!
//! Our generator builds a clustered communication graph (services of 4–28
//! VMs with ring + chord structure — large enough that a service does not
//! fit one 16-slot server, so even the optimal allocation pays rack-level
//! cost) plus skewed cross-cluster pairs whose endpoints prefer a small
//! "hot" VM subset. VM ids are shuffled so that id order carries no
//! placement hint (in a real DC, VM ids/IPs are uncorrelated with the
//! service structure — and the Round-Robin token policy must not get an
//! artificial advantage from id-adjacent services).
//!
//! The paper's *medium* and *dense* workloads "scale the initial TM by a
//! factor of 10 and 50": we multiply pair rates by the factor, capped at a
//! per-pair line-rate ceiling (two VMs cannot exchange more than their
//! NICs carry), and densify the cross-cluster pair count sub-linearly
//! (`factor^0.6`) — reproducing the reported harder-to-localise behaviour
//! of denser TMs (the 13% → 28% optimality-gap growth).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use score_topology::VmId;
use serde::{Deserialize, Serialize};

use crate::dist::{LogNormal, RateModel};
use crate::pairwise::{PairTraffic, PairTrafficBuilder};

/// Workload intensity presets matching the paper's three TMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficIntensity {
    /// The base TM of Fig. 3a.
    Sparse,
    /// The base TM scaled by 10 (Fig. 3b).
    Medium,
    /// The base TM scaled by 50 (Fig. 3c).
    Dense,
}

impl TrafficIntensity {
    /// The paper's scale factor for this intensity (1, 10, 50).
    fn scale_factor(self) -> f64 {
        match self {
            TrafficIntensity::Sparse => 1.0,
            TrafficIntensity::Medium => 10.0,
            TrafficIntensity::Dense => 50.0,
        }
    }

    /// Lowercase name for file names and CSV columns.
    pub fn name(self) -> &'static str {
        match self {
            TrafficIntensity::Sparse => "sparse",
            TrafficIntensity::Medium => "medium",
            TrafficIntensity::Dense => "dense",
        }
    }

    /// All intensities in increasing order.
    pub fn all() -> [TrafficIntensity; 3] {
        [
            TrafficIntensity::Sparse,
            TrafficIntensity::Medium,
            TrafficIntensity::Dense,
        ]
    }
}

/// Configuration of the clustered workload generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of VMs (ids `0..num_vms`).
    pub num_vms: u32,
    /// Inclusive range of service-cluster sizes.
    pub cluster_size_range: (u32, u32),
    /// Rate model for intra-cluster pairs (the heavy service traffic).
    pub intra_rate: RateModel,
    /// Rate model for cross-cluster pairs (background chatter).
    pub cross_rate: RateModel,
    /// Base number of cross-cluster pairs per VM at `Sparse` intensity.
    pub cross_pairs_per_vm: f64,
    /// Fraction of VMs designated "hot" (hotspot endpoints).
    pub hot_vm_fraction: f64,
    /// Probability that a cross-pair endpoint is drawn from the hot set.
    pub hot_bias: f64,
    /// Per-pair rate ceiling in bits per second (the line-rate two VM NICs
    /// can sustain for one pair).
    pub pair_rate_cap_bps: f64,
    /// Workload intensity (sparse / medium / dense).
    pub intensity: TrafficIntensity,
    /// RNG seed; equal seeds give identical workloads.
    pub seed: u64,
}

impl WorkloadConfig {
    /// A paper-like configuration for `num_vms` virtual machines.
    pub fn new(num_vms: u32, seed: u64) -> Self {
        WorkloadConfig {
            num_vms,
            cluster_size_range: (4, 28),
            intra_rate: RateModel {
                mice: LogNormal::from_median_sigma(1e6, 1.3),
                ..RateModel::datacenter_default()
            },
            cross_rate: RateModel {
                mice: LogNormal::from_median_sigma(50e3, 1.1),
                ..RateModel::datacenter_default()
            },
            cross_pairs_per_vm: 0.25,
            hot_vm_fraction: 0.05,
            hot_bias: 0.35,
            pair_rate_cap_bps: 250e6,
            intensity: TrafficIntensity::Sparse,
            seed,
        }
    }

    /// Returns a copy with the given intensity.
    pub fn with_intensity(mut self, intensity: TrafficIntensity) -> Self {
        self.intensity = intensity;
        self
    }

    /// Generates the pairwise VM traffic for this configuration.
    ///
    /// # Panics
    ///
    /// Panics if `num_vms == 0` or the cluster size range is empty/zero.
    pub fn generate(&self) -> PairTraffic {
        assert!(self.num_vms > 0, "need at least one VM");
        let (lo, hi) = self.cluster_size_range;
        assert!(lo >= 1 && lo <= hi, "invalid cluster size range");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut builder = PairTrafficBuilder::new(self.num_vms);
        let rate_scale = self.intensity.scale_factor();
        let pair_scale = self.intensity.scale_factor().powf(0.6);
        let cap = self.pair_rate_cap_bps;

        // VM ids carry no structure: shuffle the id space before carving
        // it into service clusters.
        let mut ids: Vec<u32> = (0..self.num_vms).collect();
        for i in (1..ids.len()).rev() {
            let j = rng.gen_range(0..=i);
            ids.swap(i, j);
        }

        // 1. Partition the shuffled ids into service clusters and wire each
        //    cluster as a ring plus random chords (a cheap connected
        //    "multi-tier app").
        let mut start = 0u32;
        while start < self.num_vms {
            let size = rng.gen_range(lo..=hi).min(self.num_vms - start);
            if size >= 2 {
                let member = |i: u32| VmId::new(ids[(start + i) as usize]);
                for i in 0..size {
                    let u = member(i);
                    let v = member((i + 1) % size);
                    if u != v {
                        builder.add(
                            u,
                            v,
                            (self.intra_rate.sample(&mut rng) * rate_scale).min(cap),
                        );
                    }
                }
                let chords = size / 2;
                for _ in 0..chords {
                    let a = member(rng.gen_range(0..size));
                    let b = member(rng.gen_range(0..size));
                    if a != b {
                        builder.add(
                            a,
                            b,
                            (self.intra_rate.sample(&mut rng) * rate_scale).min(cap),
                        );
                    }
                }
            }
            start += size.max(1);
        }

        // 2. Hot VM subset: a handful of endpoints that attract
        //    disproportionate cross-cluster traffic (the TM hotspots).
        let hot_count = ((self.num_vms as f64 * self.hot_vm_fraction).ceil() as u32).max(1);
        let hot: Vec<u32> = (0..hot_count)
            .map(|_| rng.gen_range(0..self.num_vms))
            .collect();

        // 3. Cross-cluster chatter; pair count densifies sub-linearly with
        //    intensity, rates scale linearly (capped).
        let cross_pairs =
            (self.num_vms as f64 * self.cross_pairs_per_vm * pair_scale).round() as u64;
        for _ in 0..cross_pairs {
            let a = if rng.gen::<f64>() < self.hot_bias {
                hot[rng.gen_range(0..hot.len())]
            } else {
                rng.gen_range(0..self.num_vms)
            };
            let b = if rng.gen::<f64>() < self.hot_bias {
                hot[rng.gen_range(0..hot.len())]
            } else {
                rng.gen_range(0..self.num_vms)
            };
            if a != b {
                builder.add(
                    VmId::new(a),
                    VmId::new(b),
                    (self.cross_rate.sample(&mut rng) * rate_scale).min(cap),
                );
            }
        }

        // Accumulated duplicates (ring edge + chord on the same pair) may
        // exceed the ceiling; clamp the final per-pair rates.
        builder.build().capped(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(num_vms: u32, seed: u64, intensity: TrafficIntensity) -> PairTraffic {
        WorkloadConfig::new(num_vms, seed)
            .with_intensity(intensity)
            .generate()
    }

    #[test]
    fn deterministic_under_seed() {
        let a = workload(200, 7, TrafficIntensity::Sparse);
        let b = workload(200, 7, TrafficIntensity::Sparse);
        assert_eq!(a, b);
        let c = workload(200, 8, TrafficIntensity::Sparse);
        assert_ne!(a, c);
    }

    #[test]
    fn every_vm_covered() {
        let t = workload(300, 1, TrafficIntensity::Sparse);
        assert_eq!(t.num_vms(), 300);
        // Clusters of >= 2 give nearly every VM at least one peer; allow a
        // single trailing singleton cluster.
        let isolated = (0..300).filter(|&v| t.degree(VmId::new(v)) == 0).count();
        assert!(isolated <= 1, "{isolated} isolated VMs");
    }

    #[test]
    fn densification_with_intensity() {
        let sparse = workload(400, 3, TrafficIntensity::Sparse);
        let medium = workload(400, 3, TrafficIntensity::Medium);
        let dense = workload(400, 3, TrafficIntensity::Dense);
        assert!(medium.num_pairs() > sparse.num_pairs());
        assert!(dense.num_pairs() > medium.num_pairs());
        // Rates scale with the factor, compressed by the line-rate cap.
        assert!(medium.total_rate() > 2.0 * sparse.total_rate());
        assert!(dense.total_rate() > 1.5 * medium.total_rate());
    }

    #[test]
    fn rates_respect_line_rate_cap() {
        for t in [
            workload(300, 9, TrafficIntensity::Sparse),
            workload(300, 9, TrafficIntensity::Dense),
        ] {
            for (_, _, rate) in t.pairs() {
                assert!(rate <= 250e6 + 1e-6, "pair rate {rate} above cap");
            }
        }
    }

    #[test]
    fn long_tail_property() {
        // The heaviest 10% of pairs should carry the majority of bytes.
        let t = workload(2000, 11, TrafficIntensity::Sparse);
        let rates: Vec<f64> = t.pairs().iter().map(|&(_, _, r)| r).collect();
        let total: f64 = rates.iter().sum();
        let mut sorted = rates.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top10pct: f64 = sorted.iter().take(sorted.len() / 10).sum();
        assert!(
            top10pct / total > 0.5,
            "top 10% of pairs carry {:.2} of bytes",
            top10pct / total
        );
    }

    #[test]
    fn hotspot_skew_exists() {
        // At medium intensity the cross-cluster churn concentrates on the
        // hot VM subset, so the busiest VM far exceeds the mean degree.
        let t = workload(1000, 5, TrafficIntensity::Medium);
        let mut degrees: Vec<usize> = (0..1000).map(|v| t.degree(VmId::new(v))).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
        assert!(
            degrees[0] as f64 > 2.0 * mean,
            "max {} mean {mean}",
            degrees[0]
        );
    }

    #[test]
    fn ids_carry_no_cluster_structure() {
        // Consecutive ids should usually NOT be cluster peers: with
        // shuffled ids the probability of adjacency is low.
        let t = workload(1000, 13, TrafficIntensity::Sparse);
        let adjacent_pairs = (0..999)
            .filter(|&v| t.rate(VmId::new(v), VmId::new(v + 1)) > 0.0)
            .count();
        assert!(
            adjacent_pairs < 100,
            "{adjacent_pairs} of 999 consecutive-id pairs communicate — ids leak structure"
        );
    }

    #[test]
    fn intensity_metadata() {
        assert_eq!(TrafficIntensity::Sparse.scale_factor(), 1.0);
        assert_eq!(TrafficIntensity::Medium.scale_factor(), 10.0);
        assert_eq!(TrafficIntensity::Dense.scale_factor(), 50.0);
        assert_eq!(TrafficIntensity::Dense.name(), "dense");
        assert_eq!(TrafficIntensity::all().len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one VM")]
    fn zero_vms_rejected() {
        let _ = WorkloadConfig::new(0, 1).generate();
    }

    #[test]
    fn tiny_population_works() {
        let t = workload(2, 9, TrafficIntensity::Sparse);
        assert_eq!(t.num_vms(), 2);
        assert!(t.num_pairs() <= 1 || t.total_rate() > 0.0);
    }
}
