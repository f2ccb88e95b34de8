//! Golden hashes of the workload generator's output: the TM of a
//! `(num_vms, intensity, seed)` is a fixed bit pattern, so a change to
//! how `PairTrafficBuilder` accumulates and freezes rates either
//! reproduces these or says why it does not.

use score_traffic::{PairTraffic, TrafficIntensity, WorkloadConfig};

const NUM_VMS: u32 = 600;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over every pair as `(u, v, rate.to_bits())` in `pairs()`
/// order, then the pair count and the running total's bits.
fn tm_hash(tm: &PairTraffic) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (u, v, rate) in tm.pairs() {
        fnv1a(&mut hash, &u.get().to_le_bytes());
        fnv1a(&mut hash, &v.get().to_le_bytes());
        fnv1a(&mut hash, &rate.to_bits().to_le_bytes());
    }
    fnv1a(&mut hash, &(tm.num_pairs() as u64).to_le_bytes());
    fnv1a(&mut hash, &tm.total_rate().to_bits().to_le_bytes());
    hash
}

#[test]
fn generated_workloads_hash_to_their_golden_values() {
    let golden = [
        (TrafficIntensity::Sparse, 11, 0xfb03_5e5b_918b_e26au64),
        (TrafficIntensity::Sparse, 29, 0xaed8_6158_6178_5956),
        (TrafficIntensity::Medium, 11, 0xfa80_0bb2_76c9_db4d),
        (TrafficIntensity::Medium, 29, 0x198c_34f5_4adf_7dbd),
        (TrafficIntensity::Dense, 11, 0x3823_42a7_7f6c_cfa2),
        (TrafficIntensity::Dense, 29, 0x3bb0_4737_4999_19a3),
    ];
    for (intensity, seed, want) in golden {
        let tm = WorkloadConfig::new(NUM_VMS, seed)
            .with_intensity(intensity)
            .generate();
        assert!(tm.num_pairs() > NUM_VMS as usize / 2);
        let got = tm_hash(&tm);
        assert_eq!(
            got,
            want,
            "{} seed {seed}: hash {got:#018x}",
            intensity.name()
        );
    }
}
