//! Property pins for the metrics layer: histogram snapshot math against an
//! exact sorted reference, merge equivalence, and correctness under
//! concurrent recording.

use proptest::prelude::*;
use score_obs::{Histogram, HistogramSnapshot};
use std::sync::Arc;

/// Exact value at quantile `q` of a sorted sample vector, using the same
/// rank convention as `HistogramSnapshot::quantile`.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    /// Quantiles reported by the log-bucket histogram bound the exact
    /// quantile from above, within one bucket width (factor 1.25 + 1).
    #[test]
    fn quantiles_bound_exact_reference(
        samples in prop::collection::vec(0u64..=10_000_000_000, 1..400),
        qs in prop::collection::vec(0.0f64..=1.0, 1..8),
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, samples.len() as u64);
        prop_assert_eq!(snap.sum, samples.iter().sum::<u64>());
        for &q in &qs {
            let approx = snap.quantile(q);
            let truth = exact_quantile(&sorted, q);
            prop_assert!(approx >= truth, "q={} approx {} < exact {}", q, approx, truth);
            prop_assert!(
                approx as f64 <= truth as f64 * 1.25 + 1.0,
                "q={} approx {} > 1.25x exact {}", q, approx, truth
            );
        }
        let max = *sorted.last().unwrap();
        prop_assert!(snap.max_bound() >= max);
        prop_assert!(snap.max_bound() as f64 <= max as f64 * 1.25 + 1.0);
    }
}

/// Concurrent recorders lose nothing: N threads hammer one shared histogram
/// and the final snapshot agrees exactly with a serial reference.
#[test]
fn concurrent_recording_is_exact() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 5_000;
    let shared = Arc::new(Histogram::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = Arc::clone(&shared);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    // Deterministic per-thread stream spanning many buckets.
                    h.record((t * PER_THREAD + i) * 997 % 10_000_000);
                }
            })
        })
        .collect();
    for j in handles {
        j.join().unwrap();
    }
    let reference = Histogram::new();
    let mut sum = 0u64;
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            let v = (t * PER_THREAD + i) * 997 % 10_000_000;
            reference.record(v);
            sum += v;
        }
    }
    let got = shared.snapshot();
    assert_eq!(got, reference.snapshot());
    assert_eq!(got.count, THREADS * PER_THREAD);
    assert_eq!(got.sum, sum);
    assert_eq!(got.buckets.iter().sum::<u64>(), got.count);
}

/// A snapshot taken while writers are mid-flight is still internally sane:
/// quantiles never panic and stay within the recorded value range.
#[test]
fn concurrent_snapshotting_is_sane() {
    let shared = Arc::new(Histogram::new());
    let writer = {
        let h = Arc::clone(&shared);
        std::thread::spawn(move || {
            for i in 0..50_000u64 {
                h.record(i % 1_000_000);
            }
        })
    };
    let mut last_count = 0;
    while !writer.is_finished() {
        let snap = shared.snapshot();
        assert!(snap.count >= last_count, "count went backwards");
        last_count = snap.count;
        let p99 = snap.p99();
        assert!(
            p99 as f64 <= 1_000_000.0 * 1.25 + 1.0,
            "p99 {p99} out of range"
        );
        let _ = HistogramSnapshot::bucket_bound(0);
    }
    writer.join().unwrap();
    assert_eq!(shared.snapshot().count, 50_000);
}
