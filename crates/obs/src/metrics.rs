//! Primitive instruments: monotonic counters, f64 gauges, and fixed
//! log-bucket latency histograms with percentile snapshots.
//!
//! Every instrument is a handful of `AtomicU64`s updated with relaxed
//! ordering — recording never takes a lock, never allocates, and is safe to
//! call from any thread. Precision is traded for speed in the histogram: the
//! bucket ladder is quarter-octave (4 sub-buckets per power of two), so any
//! reported quantile is within ~25% of the true value. That is plenty to
//! tell a 1 µs decision from a 10 µs one, which is what the dashboard needs.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding an `f64` (stored as raw bits in an `AtomicU64`).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// New gauge at `0.0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Sub-buckets per octave (power of two). Two mantissa bits → factor-1.25
/// spacing at the bucket edges, so quantiles are exact to within ~25%.
const SUB: usize = 4;
/// Total buckets: values 0..4 get exact buckets, then 4 per octave up to
/// `u64::MAX` (exponents 2..=63 → 62 octaves).
pub(crate) const BUCKETS: usize = SUB + 62 * SUB;

/// Index of the log bucket containing `v`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros() as usize; // e >= 2
        let m = ((v >> (e - 2)) & 3) as usize;
        (e - 1) * SUB + m
    }
}

/// Inclusive upper bound of bucket `idx` — the representative value reported
/// for quantiles landing in that bucket.
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let e = idx / SUB + 1;
        let m = (idx % SUB) as u128;
        // The very top bucket's bound would be 2^64; saturate to u64::MAX.
        let bound = ((SUB as u128 + m + 1) << (e - 2)) - 1;
        bound.min(u64::MAX as u128) as u64
    }
}

/// Fixed log-bucket histogram for latency-like `u64` samples (nanoseconds).
///
/// Recording is two relaxed `fetch_add`s (bucket, sum); reading is done
/// through an immutable [`HistogramSnapshot`]. Concurrent recorders and
/// snapshotters never block each other. The sample count is not stored: a
/// snapshot derives it from the buckets it read, so `count == Σ buckets`
/// holds in every snapshot however the reads interleave with records, and
/// quantiles always land in a bucket that was seen non-empty (the sum may
/// run ahead or behind by in-flight records, which only perturbs `mean()`
/// transiently).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count)
            .field("sum", &snap.sum)
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Fold every sample of `other` into `self` (bucket-wise addition).
    pub fn merge(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Immutable point-in-time view for quantile math and rendering.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Per-bucket counts (see [`HistogramSnapshot::bucket_bound`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Inclusive upper bound of bucket `idx`.
    pub fn bucket_bound(idx: usize) -> u64 {
        bucket_upper(idx)
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the first bucket
    /// whose cumulative count reaches rank `ceil(q * count)`. Returns 0 for
    /// an empty histogram. Overestimates by at most one bucket width (~25%).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bucket_upper(idx);
            }
        }
        // Unreachable for `Histogram::snapshot` results (count is the
        // bucket sum); a hand-built snapshot whose count leads its buckets
        // gets the highest non-empty bucket, 0 when there is none.
        self.max_bound()
    }

    /// Median (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Upper bound of the highest non-empty bucket (0 when empty).
    pub fn max_bound(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&n| n > 0)
            .map(bucket_upper)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        // Every value maps to a bucket whose bounds contain it, and bucket
        // upper bounds strictly increase.
        let mut prev = None;
        for idx in 0..BUCKETS {
            let ub = bucket_upper(idx);
            if let Some(p) = prev {
                assert!(ub > p, "bucket {idx} bound {ub} <= {p}");
            }
            prev = Some(ub);
        }
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 100, 1023, 1024, u64::MAX / 2] {
            let idx = bucket_of(v);
            assert!(v <= bucket_upper(idx), "v={v} above bucket {idx}");
            if idx > 0 {
                assert!(v > bucket_upper(idx - 1), "v={v} below bucket {idx}");
            }
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_bound_true_percentiles() {
        let h = Histogram::new();
        let mut samples: Vec<u64> = (1..=1000).map(|i| i * 37).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        for (q, p) in [(0.5f64, snap.p50()), (0.95, snap.p95()), (0.99, snap.p99())] {
            let rank = ((q * 1000.0).ceil() as usize).clamp(1, 1000);
            let truth = samples[rank - 1];
            assert!(p >= truth, "q={q}: {p} < exact {truth}");
            assert!(
                (p as f64) <= truth as f64 * 1.25 + 1.0,
                "q={q}: {p} > 1.25x exact {truth}"
            );
        }
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [5u64, 9, 130] {
            a.record(v);
        }
        for v in [5u64, 1_000_000] {
            b.record(v);
        }
        a.merge(&b);
        let snap = a.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 5 + 9 + 130 + 5 + 1_000_000);
        assert_eq!(snap.buckets[bucket_of(5)], 2);
    }

    #[test]
    fn count_leading_the_buckets_stays_in_range() {
        // The shape a torn read used to produce: a count with no (or
        // too few) bucket entries behind it.
        let mut snap = Histogram::new().snapshot();
        snap.count = 3;
        assert_eq!(snap.p99(), 0, "no bucket seen: not u64::MAX");
        snap.buckets[bucket_of(130)] = 1;
        assert_eq!(snap.p99(), bucket_upper(bucket_of(130)));
    }

    #[test]
    fn empty_snapshot_is_zeroes() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.max_bound(), 0);
    }
}
