//! The oracle forecaster: exact lookahead into a compiled trace.
//!
//! Measurement-driven forecasters (`score_traffic::EwmaForecaster`)
//! extrapolate trends; a trace-driven run can do strictly better — the
//! remaining delta stream of the current [`TraceSegment`] *is* the
//! future, so [`OracleForecaster`] simply reads it ahead of the event
//! clock. For a diurnal envelope this is the exact per-pair rate at
//! `now + horizon`; for a flash crowd it is the spike itself, visible
//! one horizon before it lands.
//!
//! The oracle is the upper bound any online estimator can be judged
//! against, and the forecaster the `ForecastSpec::TraceOracle` scenario
//! knob materializes. It indexes one segment at a time (segment-relative
//! clock, like the session that drives it) and is advanced with the
//! same absolute re-rates and uniform scales the session applies —
//! reading ahead never mutates anything, so the cost ledger cannot tell
//! an oracle-driven run from a reactive one until the decisions differ.
//!
//! A `ScaleAll` is indexed as *one* global breakpoint, not one per pair:
//! the rate of a pair at `now + horizon` is its latest absolute
//! breakpoint (or its current rate) times the scales that fire after it.

use score_topology::VmId;
use score_traffic::{PairTraffic, RateForecaster};
use std::collections::HashMap;

use crate::trace::{scaled_rate, TraceSegment, TrafficDelta};

/// One indexed batch: `(segment-relative time, batch index, value)`,
/// the value being an absolute rate or a scale factor.
type Breakpoint = (f64, usize, f64);

/// Exact-lookahead forecaster over one compiled trace segment (see the
/// module docs).
///
/// # Examples
///
/// ```
/// use score_topology::VmId;
/// use score_trace::{OracleForecaster, Trace};
/// use score_traffic::RateForecaster;
///
/// let trace = Trace::builder(2, 100.0)
///     .base_pair(0, 1, 1e6)
///     .set_rate(50.0, 0, 1, 9e6) // flash crowd at t = 50
///     .build()
///     .unwrap();
/// let compiled = trace.compile();
/// let mut oracle = OracleForecaster::new();
/// oracle.load_segment(&compiled.segments[0]);
///
/// let (u, v) = (VmId::new(0), VmId::new(1));
/// // At t = 20 a 10 s horizon sees nothing yet …
/// assert_eq!(oracle.predict(u, v, 20.0, 10.0), 1e6);
/// // … but a 40 s horizon sees the spike exactly.
/// assert_eq!(oracle.predict(u, v, 20.0, 40.0), 9e6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OracleForecaster {
    /// Absolute-rate breakpoints per canonical pair, in firing order.
    breakpoints: HashMap<(u32, u32), Vec<Breakpoint>>,
    /// The segment's uniform scales, in firing order.
    scales: Vec<Breakpoint>,
    /// How many of `scales` have been observed, i.e. are already part of
    /// `current`.
    scales_fired: usize,
    /// Current rates (primed, then patched by every observed update and
    /// multiplied through by every observed scale).
    current: HashMap<(u32, u32), f64>,
}

impl OracleForecaster {
    /// Creates an empty oracle (no segment loaded: predictions fall
    /// back to the current rate).
    pub fn new() -> Self {
        OracleForecaster::default()
    }

    /// Loads one compiled segment: the segment's initial TM becomes the
    /// current rates and its delta batches the lookahead index. The
    /// segment-relative clock starts at 0, exactly like the session
    /// event clock after a segment rebind.
    pub fn load_segment(&mut self, segment: &TraceSegment) {
        self.prime(&segment.initial, 0.0);
        for (index, batch) in segment.shifts.iter().enumerate() {
            match batch.delta {
                TrafficDelta::Rates(range) => {
                    for &(u, v, rate) in segment.shifts.updates(range) {
                        self.breakpoints
                            .entry(Self::key(u, v))
                            .or_default()
                            .push((batch.at_s, index, rate));
                    }
                }
                TrafficDelta::ScaleAll(factor) => self.scales.push((batch.at_s, index, factor)),
            }
        }
        // Batches are compiled in firing order, so every list is already
        // time-sorted; assert it in debug builds.
        debug_assert!(self
            .breakpoints
            .values()
            .chain(std::iter::once(&self.scales))
            .all(|bps| bps.windows(2).all(|w| w[0].0 <= w[1].0)));
    }

    fn key(u: VmId, v: VmId) -> (u32, u32) {
        if u < v {
            (u.get(), v.get())
        } else {
            (v.get(), u.get())
        }
    }
}

impl RateForecaster for OracleForecaster {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn prime(&mut self, traffic: &PairTraffic, _now_s: f64) {
        // A bare prime (no segment) clears the lookahead: nothing is
        // known about the future until `load_segment` indexes it.
        self.breakpoints.clear();
        self.scales.clear();
        self.scales_fired = 0;
        self.current.clear();
        for (u, v, rate) in traffic.pairs() {
            self.current.insert(Self::key(u, v), rate);
        }
    }

    fn observe_updates(
        &mut self,
        updates: &mut dyn Iterator<Item = (VmId, VmId, f64)>,
        _now_s: f64,
    ) {
        for (u, v, rate) in updates {
            let key = Self::key(u, v);
            if rate == 0.0 {
                self.current.remove(&key);
            } else {
                self.current.insert(key, rate);
            }
        }
    }

    fn observe_scale(&mut self, factor: f64, now_s: f64) {
        for rate in self.current.values_mut() {
            *rate = scaled_rate(*rate, factor);
        }
        // The segment's own scales arrive in order; a scale from outside
        // it (a live driver's) moves `current` only.
        if self
            .scales
            .get(self.scales_fired)
            .is_some_and(|&(at_s, _, _)| at_s <= now_s)
        {
            self.scales_fired += 1;
        }
    }

    fn predict(&self, u: VmId, v: VmId, now_s: f64, horizon_s: f64) -> f64 {
        let key = Self::key(u, v);
        let cutoff = now_s + horizon_s;
        // The latest absolute breakpoint at or before now + horizon
        // fixes the rate there (breakpoints already fired agree with
        // `current`); without one the current rate stands. Either way
        // the scales that fire after that point and by the cutoff apply
        // on top. Every list is time-sorted (pinned at load), so these
        // are binary searches plus the few scales inside the window —
        // predict runs per peer per token hold and must not scan the
        // whole future.
        let latest = self.breakpoints.get(&key).and_then(|bps| {
            let idx = bps.partition_point(|&(t, _, _)| t <= cutoff);
            idx.checked_sub(1).map(|i| bps[i])
        });
        let (base, first_scale) = match latest {
            Some((_, index, rate)) => (rate, self.scales.partition_point(|&(_, i, _)| i < index)),
            None => (
                self.current.get(&key).copied().unwrap_or(0.0),
                self.scales_fired,
            ),
        };
        let end = self.scales.partition_point(|&(t, _, _)| t <= cutoff);
        self.scales[first_scale.min(end)..end]
            .iter()
            .fold(base, |rate, &(_, _, factor)| scaled_rate(rate, factor))
    }

    fn known_pairs(&self) -> Vec<(VmId, VmId)> {
        let keys: std::collections::BTreeSet<(u32, u32)> = self
            .current
            .keys()
            .chain(self.breakpoints.keys())
            .copied()
            .collect();
        keys.into_iter()
            .map(|(u, v)| (VmId::new(u), VmId::new(v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    fn vm(i: u32) -> VmId {
        VmId::new(i)
    }

    fn oracle_for(trace: &Trace) -> OracleForecaster {
        let compiled = trace.compile();
        let mut o = OracleForecaster::new();
        o.load_segment(&compiled.segments[0]);
        o
    }

    /// Breakpoints indexed: per-pair absolute re-rates plus one per
    /// uniform scale.
    fn indexed_breakpoints(o: &OracleForecaster) -> usize {
        o.breakpoints.values().map(Vec::len).sum::<usize>() + o.scales.len()
    }

    #[test]
    fn lookahead_is_exact_on_the_delta_stream() {
        let trace = Trace::builder(3, 100.0)
            .base_pair(0, 1, 10.0)
            .set_rate(30.0, 0, 1, 50.0)
            .set_rate(60.0, 0, 1, 5.0)
            .set_rate(40.0, 1, 2, 7.0)
            .build()
            .unwrap();
        let o = oracle_for(&trace);
        assert_eq!(indexed_breakpoints(&o), 3);
        // Horizon stops short of the first breakpoint: current rate.
        assert_eq!(o.predict(vm(0), vm(1), 0.0, 29.9), 10.0);
        // Horizon covers the first but not the second: 50.
        assert_eq!(o.predict(vm(0), vm(1), 0.0, 30.0), 50.0);
        assert_eq!(o.predict(vm(0), vm(1), 25.0, 20.0), 50.0);
        // Covers both: the latest wins.
        assert_eq!(o.predict(vm(0), vm(1), 25.0, 40.0), 5.0);
        // A pair silent now but appearing within the horizon is seen,
        // both by predict and by the known-pairs enumeration (what a
        // session scores at the horizon after a `ScaleAll`).
        assert_eq!(o.predict(vm(1), vm(2), 0.0, 10.0), 0.0);
        assert_eq!(o.predict(vm(2), vm(1), 0.0, 50.0), 7.0);
        assert_eq!(o.known_pairs(), vec![(vm(0), vm(1)), (vm(1), vm(2))]);
    }

    #[test]
    fn observed_updates_keep_current_in_sync() {
        let trace = Trace::builder(2, 100.0)
            .base_pair(0, 1, 10.0)
            .set_rate(30.0, 0, 1, 50.0)
            .build()
            .unwrap();
        let mut o = oracle_for(&trace);
        // The session applies the delta at t = 30 and tells the oracle.
        o.observe_updates(&mut [(vm(0), vm(1), 50.0)].into_iter(), 30.0);
        // Past breakpoints and current agree from then on.
        assert_eq!(o.predict(vm(0), vm(1), 30.0, 0.0), 50.0);
        assert_eq!(o.predict(vm(0), vm(1), 35.0, 60.0), 50.0);
        // A zero re-rate removes the pair from current.
        o.observe_updates(&mut [(vm(0), vm(1), 0.0)].into_iter(), 40.0);
        assert_eq!(o.current.len(), 0);
    }

    #[test]
    fn prime_without_segment_sees_no_future() {
        let mut o = OracleForecaster::new();
        let trace = Trace::builder(2, 10.0)
            .base_pair(0, 1, 3.0)
            .build()
            .unwrap();
        o.prime(&trace.base_traffic(), 0.0);
        assert_eq!(indexed_breakpoints(&o), 0);
        assert_eq!(o.predict(vm(0), vm(1), 0.0, 100.0), 3.0);
        assert_eq!(o.name(), "oracle");
    }

    #[test]
    fn reload_replaces_the_index() {
        let a = Trace::builder(2, 50.0)
            .base_pair(0, 1, 1.0)
            .set_rate(20.0, 0, 1, 2.0)
            .build()
            .unwrap();
        let b = Trace::builder(2, 50.0)
            .base_pair(0, 1, 9.0)
            .set_rate(10.0, 0, 1, 4.0)
            .build()
            .unwrap();
        let mut o = oracle_for(&a);
        o.load_segment(&b.compile().segments[0]);
        assert_eq!(o.predict(vm(0), vm(1), 0.0, 5.0), 9.0);
        assert_eq!(o.predict(vm(0), vm(1), 0.0, 10.0), 4.0);
    }
}
