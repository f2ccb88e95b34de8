//! Golden hashes of the three seeded generators' event streams and of
//! what `Trace::compile` makes of them. Generation and compilation are
//! pure functions of `(base, shape, seed)` down to the last bit of every
//! time and rate; a rewrite of either reproduces these hashes or says why
//! it does not.

use score_trace::{
    churn_trace, diurnal_trace, flash_crowd_trace, ChurnShape, CompiledTrace, DiurnalShape,
    FlashCrowdShape, Trace, TrafficDelta,
};
use score_traffic::{PairTraffic, WorkloadConfig};

const NUM_VMS: u32 = 400;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn jsonl_hash(trace: &Trace) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, trace.to_jsonl().as_bytes());
    hash
}

fn tm_into(hash: &mut u64, tm: &PairTraffic) {
    for (u, v, rate) in tm.pairs() {
        fnv1a(hash, &u.get().to_le_bytes());
        fnv1a(hash, &v.get().to_le_bytes());
        fnv1a(hash, &rate.to_bits().to_le_bytes());
    }
    fnv1a(hash, &tm.total_rate().to_bits().to_le_bytes());
}

/// Every segment's label, duration, initial TM and batch stream (firing
/// time, then the re-rates or the scale factor), bit for bit.
fn compiled_hash(compiled: &CompiledTrace) -> u64 {
    let mut hash = FNV_OFFSET;
    for seg in &compiled.segments {
        fnv1a(&mut hash, seg.label.as_deref().unwrap_or("-").as_bytes());
        fnv1a(&mut hash, &seg.duration_s.to_bits().to_le_bytes());
        tm_into(&mut hash, &seg.initial);
        fnv1a(&mut hash, &(seg.shifts.len() as u64).to_le_bytes());
        for batch in seg.shifts.iter() {
            fnv1a(&mut hash, &batch.at_s.to_bits().to_le_bytes());
            match batch.delta {
                TrafficDelta::Rates(range) => {
                    for &(u, v, rate) in seg.shifts.updates(range) {
                        fnv1a(&mut hash, &u.get().to_le_bytes());
                        fnv1a(&mut hash, &v.get().to_le_bytes());
                        fnv1a(&mut hash, &rate.to_bits().to_le_bytes());
                    }
                }
                TrafficDelta::ScaleAll(factor) => {
                    fnv1a(&mut hash, &factor.to_bits().to_le_bytes());
                }
            }
        }
    }
    hash
}

fn check(name: &str, seed: u64, trace: &Trace, events: usize, jsonl: u64, compiled: u64) {
    assert_eq!(trace.num_events(), events, "{name} seed {seed}: events");
    let got = (jsonl_hash(trace), compiled_hash(&trace.compile()));
    assert_eq!(
        got,
        (jsonl, compiled),
        "{name} seed {seed}: hashes ({:#018x}, {:#018x})",
        got.0,
        got.1
    );
}

#[test]
fn churn_traces_hash_to_their_golden_values() {
    let shape = ChurnShape {
        window_s: 30.0,
        windows: 3,
    };
    for (seed, events, jsonl, compiled) in [
        (
            11u64,
            13494usize,
            0x0a9f_ed1a_c964_26fbu64,
            0x851d_a310_df54_e150u64,
        ),
        (29, 14184, 0x229e_4771_265a_bc68, 0x9509_e90d_8c06_a9ca),
    ] {
        let base = WorkloadConfig::new(NUM_VMS, seed).generate();
        let trace = churn_trace(&base, &shape, seed).unwrap();
        check("churn", seed, &trace, events, jsonl, compiled);
    }
}

/// The same churn streams cut into marker-delimited segments (one marker
/// mid-window, two on one instant), so the compiled hash also covers
/// segment closing, boundary folding and per-segment batch stores.
#[test]
fn marked_churn_traces_compile_to_their_golden_values() {
    let shape = ChurnShape {
        window_s: 30.0,
        windows: 3,
    };
    for (seed, events, jsonl, compiled) in [
        (
            11u64,
            13497usize,
            0x8d64_fcd5_a2c5_5eceu64,
            0x17cf_907c_0719_e8c5u64,
        ),
        (29, 14187, 0xf6af_d66c_2b74_ff0f, 0xdf37_0edf_a6df_b1e3),
    ] {
        let base = WorkloadConfig::new(NUM_VMS, seed).generate();
        let churn = churn_trace(&base, &shape, seed).unwrap();
        let mut b = Trace::builder(NUM_VMS, churn.end_s())
            .marker(20.0, "early")
            .marker(45.0, "shadowed")
            .marker(45.0, "mid");
        for ev in churn.events() {
            b = b.event(ev.time_s, ev.event.clone());
        }
        let trace = b.build().unwrap();
        assert_eq!(trace.compile().segments.len(), 3);
        check("marked churn", seed, &trace, events, jsonl, compiled);
    }
}

#[test]
fn flash_crowd_traces_hash_to_their_golden_values() {
    let shape = FlashCrowdShape::default_shape();
    for (seed, events, jsonl, compiled) in [
        (
            11u64,
            96usize,
            0x8bdb_dd13_9064_53acu64,
            0xd505_5e93_cd4e_72f9u64,
        ),
        (29, 96, 0xeda7_1ac9_e6ee_0fc9, 0xb947_2dec_b8fd_7731),
    ] {
        let base = WorkloadConfig::new(NUM_VMS, seed).generate();
        let trace = flash_crowd_trace(&base, &shape, seed).unwrap();
        check("flash", seed, &trace, events, jsonl, compiled);
    }
}

#[test]
fn diurnal_traces_hash_to_their_golden_values() {
    let shape = DiurnalShape::default_shape();
    for (seed, events, jsonl, compiled) in [
        (
            11u64,
            139usize,
            0xbc78_017e_fe63_0cd2u64,
            0xca77_592f_e757_f05eu64,
        ),
        (29, 139, 0xbf4d_5b40_b28b_b32b, 0x4aa2_1f10_2dea_9516),
    ] {
        let base = WorkloadConfig::new(NUM_VMS, seed).generate();
        let trace = diurnal_trace(&base, &shape).unwrap();
        check("diurnal", seed, &trace, events, jsonl, compiled);
    }
}
