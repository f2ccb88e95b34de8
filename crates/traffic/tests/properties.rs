//! Property-based tests for the traffic substrate.

use proptest::prelude::*;
use score_topology::{RackId, VmId};
use score_traffic::{
    FlowSampler, PairTrafficBuilder, TrafficIntensity, TrafficMatrix, WorkloadConfig,
};
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pair_rates_symmetric_and_conserved(
        num_vms in 2u32..40,
        edges in prop::collection::vec((0u32..40, 0u32..40, 1.0f64..1e6), 1..60),
        updates in prop::collection::vec((0u32..40, 0u32..40, 0u32..4, 1.0f64..1e6), 0..40),
    ) {
        let mut b = PairTrafficBuilder::new(num_vms);
        let mut expected_total = 0.0;
        for (u, v, r) in edges {
            let (u, v) = (u % num_vms, v % num_vms);
            if u == v { continue; }
            b.add(VmId::new(u), VmId::new(v), r);
            expected_total += r;
        }
        let t = b.build();
        prop_assert!((t.total_rate() - expected_total).abs() < 1e-6 * expected_total.max(1.0));
        for u in 0..num_vms {
            for (peer, rate) in t.peers(VmId::new(u)) {
                prop_assert_eq!(t.rate(VmId::new(u), peer), rate);
                prop_assert_eq!(t.rate(peer, VmId::new(u)), rate);
            }
        }
        // Sum of adjacency rates double-counts each pair exactly once.
        let adj_sum: f64 = (0..num_vms)
            .flat_map(|u| t.peers(VmId::new(u)).map(|(_, r)| r))
            .sum();
        prop_assert!((adj_sum - 2.0 * t.total_rate()).abs() < 1e-6 * adj_sum.max(1.0));
        // Random re-rates, inserts and removes (a quarter are zeros): the
        // adjacency is the store, so every pair of the canonical walk
        // reads bit for bit from both endpoints' sorted peer lists and no
        // row exists outside it.
        let mut t = t;
        // The running total keeps residue of the largest value it held.
        #[cfg(debug_assertions)]
        let mut peak_total = t.total_rate();
        for (u, v, kind, r) in updates {
            let (u, v) = (u % num_vms, v % num_vms);
            if u == v { continue; }
            t.apply_update(VmId::new(u), VmId::new(v), if kind == 0 { 0.0 } else { r });
            #[cfg(debug_assertions)]
            {
                peak_total = peak_total.max(t.total_rate());
                t.check_invariants(peak_total);
            }
        }
        let pairs = t.pairs();
        prop_assert_eq!(pairs.len(), t.num_pairs());
        prop_assert!(pairs.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        for &(u, v, r) in &pairs {
            prop_assert!(u < v);
            for (a, b) in [(u, v), (v, u)] {
                let row = t.peers(a).find(|&(p, _)| p == b).map(|(_, x)| x.to_bits());
                prop_assert_eq!(row, Some(r.to_bits()));
            }
        }
        let mut rows = 0;
        for u in 0..num_vms {
            let ids: Vec<VmId> = t.peers(VmId::new(u)).map(|(p, _)| p).collect();
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "peers of {} unsorted", u);
            rows += ids.len();
        }
        prop_assert_eq!(rows, 2 * pairs.len());
    }

    #[test]
    fn builder_equals_an_ordered_map_accumulator(
        num_vms in 2u32..24,
        adds in prop::collection::vec((0u32..24, 0u32..24, 1e-3f64..1e9), 0..120),
        presorted in 0u8..2,
    ) {
        // Few VMs, many adds: pairs repeat, in both orientations.
        let mut adds: Vec<(u32, u32, f64)> = adds
            .into_iter()
            .map(|(u, v, r)| (u % num_vms, v % num_vms, r))
            .filter(|&(u, v, _)| u != v)
            .collect();
        if presorted == 1 {
            // The builder's no-copy path: adds already in key order.
            adds.sort_by_key(|&(u, v, _)| (u.min(v), u.max(v)));
        }
        let mut b = PairTrafficBuilder::new(num_vms);
        let mut reference: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for &(u, v, r) in &adds {
            b.add(VmId::new(u), VmId::new(v), r);
            *reference.entry((u.min(v), u.max(v))).or_insert(0.0) += r;
        }
        let t = b.build();
        let got: Vec<(u32, u32, u64)> = t
            .pairs()
            .iter()
            .map(|&(u, v, r)| (u.get(), v.get(), r.to_bits()))
            .collect();
        let want: Vec<(u32, u32, u64)> = reference
            .iter()
            .map(|(&(u, v), r)| (u, v, r.to_bits()))
            .collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(t.num_pairs(), reference.len());
        let mut total = 0.0;
        for r in reference.values() {
            total += r;
        }
        prop_assert_eq!(t.total_rate().to_bits(), total.to_bits());
        // Building twice is building once: `build` borrows the adds.
        prop_assert_eq!(b.build(), t);
    }

    #[test]
    fn scaling_is_linear(factor in 0.1f64..100.0, seed in 0u64..50) {
        let t = WorkloadConfig::new(60, seed).generate();
        let s = t.scaled(factor);
        prop_assert_eq!(t.num_pairs(), s.num_pairs());
        prop_assert!((s.total_rate() - factor * t.total_rate()).abs()
            < 1e-9 * s.total_rate().max(1.0));
    }

    #[test]
    fn matrix_total_matches_pairs(seed in 0u64..50, racks in 2usize..10) {
        let t = WorkloadConfig::new(80, seed).generate();
        let racks_u = racks as u32;
        let tm = TrafficMatrix::from_pairs(racks, &t, |v| RackId::new(v.get() % racks_u));
        prop_assert!(tm.is_symmetric(1e-9));
        prop_assert!((tm.total() - t.total_rate()).abs() < 1e-6 * t.total_rate().max(1.0));
    }

    #[test]
    fn flow_sampling_conserves_bytes(seed in 0u64..50, window in 1.0f64..100.0) {
        let t = WorkloadConfig::new(30, seed).generate();
        let flows = FlowSampler::new(window, seed).sample(&t);
        let flow_bytes: f64 = flows.iter().map(|f| f.bytes).sum();
        let expected = t.total_rate() / 8.0 * window;
        prop_assert!((flow_bytes - expected).abs() < 1e-6 * expected.max(1.0),
            "flow bytes {} expected {}", flow_bytes, expected);
    }

    #[test]
    fn intensities_are_ordered(seed in 0u64..30) {
        let base = WorkloadConfig::new(100, seed);
        let sparse = base.clone().with_intensity(TrafficIntensity::Sparse).generate();
        let medium = base.clone().with_intensity(TrafficIntensity::Medium).generate();
        let dense = base.with_intensity(TrafficIntensity::Dense).generate();
        prop_assert!(sparse.total_rate() < medium.total_rate());
        prop_assert!(medium.total_rate() < dense.total_rate());
        prop_assert!(sparse.num_pairs() <= medium.num_pairs());
        prop_assert!(medium.num_pairs() <= dense.num_pairs());
    }
}
