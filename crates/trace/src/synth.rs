//! Synthetic trace generators — deterministic from a seed.
//!
//! Three canonical time-varying DC load patterns from the measurement
//! literature, each produced as a [`Trace`] over a caller-supplied base
//! TM:
//!
//! * [`diurnal_trace`] — smooth sinusoidal drift of the whole TM (the
//!   day/night cycle every DC study reports), as a stream of
//!   [`TraceEvent::ScaleAll`] increments tracking the envelope;
//! * [`flash_crowd_trace`] — sudden rate surges onto a small hot VM set
//!   that later subside (news spikes, job launches), as paired
//!   [`TraceEvent::SetRate`] surge/restore events;
//! * [`churn_trace`] — flow-level mice/elephant churn built on
//!   [`score_traffic::FlowSampler`]: each sampled flow contributes its
//!   throughput for its lifetime, so the instantaneous TM flickers the
//!   way per-flow measurements do.
//!
//! All three are pure functions of `(base, shape, seed)`; replaying the
//! same inputs yields the identical event stream.

use crate::trace::{TimedEvent, Trace, TraceError, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use score_traffic::{FlowSampler, PairTraffic};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Shape of a [`diurnal_trace`]: a sine envelope
/// `1 + amplitude · sin(2πt / period_s)` sampled every `step_s`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiurnalShape {
    /// Period of one day/night cycle in seconds.
    pub period_s: f64,
    /// Peak-to-mean swing, in `(0, 1)`.
    pub amplitude: f64,
    /// Interval between `ScaleAll` increments.
    pub step_s: f64,
    /// Total trace duration.
    pub horizon_s: f64,
}

impl DiurnalShape {
    /// A CI-friendly default: one full cycle over the paper's 700 s
    /// horizon, ±50 % swing, re-rated every 5 s (139 events).
    pub fn default_shape() -> Self {
        DiurnalShape {
            period_s: 700.0,
            amplitude: 0.5,
            step_s: 5.0,
            horizon_s: 700.0,
        }
    }

    /// Checks a deserialized shape: positive finite durations, amplitude
    /// strictly inside `(0, 1)` so the envelope stays positive.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violation.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("period_s", self.period_s),
            ("step_s", self.step_s),
            ("horizon_s", self.horizon_s),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        if !self.amplitude.is_finite() || self.amplitude <= 0.0 || self.amplitude >= 1.0 {
            return Err(format!(
                "amplitude must lie in (0, 1), got {}",
                self.amplitude
            ));
        }
        Ok(())
    }
}

/// Builds a diurnal-drift trace over `base` (deterministic; the sine
/// envelope needs no randomness).
///
/// # Errors
///
/// Returns [`TraceError`] if the shape is invalid.
pub fn diurnal_trace(base: &PairTraffic, shape: &DiurnalShape) -> Result<Trace, TraceError> {
    shape
        .validate()
        .map_err(|reason| TraceError::BadEvent { index: 0, reason })?;
    let envelope =
        |t: f64| 1.0 + shape.amplitude * (std::f64::consts::TAU * t / shape.period_s).sin();
    let mut b = Trace::builder(base.num_vms(), shape.horizon_s).base_traffic(base);
    let mut prev = envelope(0.0);
    let mut k = 1u64;
    loop {
        let t = shape.step_s * k as f64;
        if t >= shape.horizon_s {
            break;
        }
        let now = envelope(t);
        b = b.scale_all(t, now / prev);
        prev = now;
        k += 1;
    }
    b.build()
}

/// Shape of a [`flash_crowd_trace`]: `spikes` surges, each raising the
/// rates between one hot hub VM and `fanout` partners by `surge_bps`
/// for `hold_s` seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashCrowdShape {
    /// Number of surges over the horizon.
    pub spikes: u32,
    /// Partners each hub VM surges towards.
    pub fanout: u32,
    /// Extra rate per hub–partner pair while the spike holds, b/s.
    pub surge_bps: f64,
    /// How long each spike lasts.
    pub hold_s: f64,
    /// Total trace duration.
    pub horizon_s: f64,
}

impl FlashCrowdShape {
    /// A CI-friendly default: 6 spikes of 8-way 200 Mb/s surges holding
    /// 60 s inside a 700 s horizon.
    pub fn default_shape() -> Self {
        FlashCrowdShape {
            spikes: 6,
            fanout: 8,
            surge_bps: 2e8,
            hold_s: 60.0,
            horizon_s: 700.0,
        }
    }

    /// Checks a deserialized shape.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.spikes == 0 || self.fanout == 0 {
            return Err("spikes and fanout must be positive".into());
        }
        if !self.surge_bps.is_finite() || self.surge_bps <= 0.0 {
            return Err(format!(
                "surge_bps must be positive and finite, got {}",
                self.surge_bps
            ));
        }
        for (name, v) in [("hold_s", self.hold_s), ("horizon_s", self.horizon_s)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        if self.hold_s >= self.horizon_s {
            return Err("hold_s must be shorter than horizon_s".into());
        }
        Ok(())
    }
}

/// Builds a flash-crowd trace over `base`, deterministic from `seed`.
/// Overlapping spikes stack additively; every surge is fully restored,
/// so the TM returns to `base` after the last spike subsides.
///
/// # Errors
///
/// Returns [`TraceError`] if the shape is invalid or `base` has fewer
/// than two VMs.
pub fn flash_crowd_trace(
    base: &PairTraffic,
    shape: &FlashCrowdShape,
    seed: u64,
) -> Result<Trace, TraceError> {
    shape
        .validate()
        .map_err(|reason| TraceError::BadEvent { index: 0, reason })?;
    let n = base.num_vms();
    if n < 2 {
        return Err(TraceError::BadEvent {
            index: 0,
            reason: "flash crowds need at least two VMs".into(),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf1a5_4c20_3d91_77e3);
    // (time, pair, signed surge) edges of every spike, then replayed in
    // time order against a running surge overlay so overlapping spikes
    // emit correct absolute rates.
    let mut edges: Vec<(f64, u32, u32, f64)> = Vec::new();
    let fanout = shape.fanout.min(n - 1);
    for _ in 0..shape.spikes {
        let start = rng.gen_range(0.0..(shape.horizon_s - shape.hold_s));
        let hub = rng.gen_range(0..n);
        let mut partners = Vec::with_capacity(fanout as usize);
        while (partners.len() as u32) < fanout {
            let p = rng.gen_range(0..n);
            if p != hub && !partners.contains(&p) {
                partners.push(p);
            }
        }
        for &p in &partners {
            edges.push((start, hub, p, shape.surge_bps));
            edges.push((start + shape.hold_s, hub, p, -shape.surge_bps));
        }
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0));
    let canon = |u: u32, v: u32| if u < v { (u, v) } else { (v, u) };
    let mut overlay: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    let mut b = Trace::builder(n, shape.horizon_s).base_traffic(base);
    for (t, u, v, surge) in edges {
        let key = canon(u, v);
        let extra = overlay.entry(key).or_insert(0.0);
        *extra += surge;
        if extra.abs() < 1e-9 {
            *extra = 0.0;
        }
        let rate = base.rate(
            score_topology::VmId::new(key.0),
            score_topology::VmId::new(key.1),
        ) + *extra;
        b = b.event(
            t,
            TraceEvent::SetRate {
                u: key.0,
                v: key.1,
                rate: rate.max(0.0),
            },
        );
    }
    b.build()
}

/// Shape of a [`churn_trace`]: `windows` consecutive measurement windows
/// of `window_s` seconds, each instantiated into discrete flows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnShape {
    /// Length of one flow-sampling window.
    pub window_s: f64,
    /// Number of consecutive windows (total horizon =
    /// `windows × window_s`).
    pub windows: u32,
}

impl ChurnShape {
    /// A CI-friendly default: four 60 s windows.
    pub fn default_shape() -> Self {
        ChurnShape {
            window_s: 60.0,
            windows: 4,
        }
    }

    /// Checks a deserialized shape: a positive finite window, at least
    /// one of them, and a total horizon that is still finite.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violation.
    pub fn validate(&self) -> Result<(), String> {
        if !self.window_s.is_finite() || self.window_s <= 0.0 {
            return Err(format!(
                "window_s must be positive and finite, got {}",
                self.window_s
            ));
        }
        if self.windows == 0 {
            return Err("windows must be positive".into());
        }
        let horizon_s = self.window_s * f64::from(self.windows);
        if !horizon_s.is_finite() {
            return Err(format!(
                "window_s × windows must be finite, got {} × {}",
                self.window_s, self.windows
            ));
        }
        Ok(())
    }
}

/// Builds a mice/elephant churn trace from `base`, deterministic from
/// `seed`: every pair's average rate is instantiated into discrete
/// flows per window ([`FlowSampler`]), and the trace's instantaneous TM
/// is the sum of the flows alive at each instant (the base TM itself is
/// only the long-run average — the trace starts empty and flickers).
///
/// # Errors
///
/// Returns [`TraceError`] if the shape is invalid, or if the flows have
/// more than `u32::MAX` edges between them.
pub fn churn_trace(base: &PairTraffic, shape: &ChurnShape, seed: u64) -> Result<Trace, TraceError> {
    shape
        .validate()
        .map_err(|reason| TraceError::BadEvent { index: 0, reason })?;
    let horizon = shape.window_s * f64::from(shape.windows);
    // A sampler hands its flows over grouped by pair in `pairs()` order,
    // so walking the pair list beside them gives every flow its pair's
    // ordinal, and the running rates can live in a vector indexed by it.
    let pairs = base.pairs();
    ordinal(pairs.len())?;
    let mut edges: Vec<FlowEdge> = Vec::new();
    for w in 0..shape.windows {
        let sampler = FlowSampler::new(shape.window_s, seed.wrapping_add(u64::from(w)));
        let offset = shape.window_s * f64::from(w);
        let flows = sampler.sample(base);
        // A flow has at most two edges: once that many more fit, every
        // arrival index this window hands out does.
        ordinal(edges.len() + 2 * flows.len())?;
        edges.reserve(2 * flows.len());
        let mut pair = 0u32;
        for flow in flows {
            while (pairs[pair as usize].0, pairs[pair as usize].1) != (flow.src, flow.dst) {
                pair += 1;
            }
            let thr = flow.throughput_bps();
            let start = offset + flow.start_s;
            let end = (start + flow.duration_s).min(horizon);
            let mut push = |time_s: f64, delta: f64| {
                edges.push(FlowEdge {
                    time_bits: time_s.to_bits(),
                    arrival: edges.len() as u32,
                    pair,
                    delta,
                });
            };
            push(start, thr);
            if end < horizon {
                push(end, -thr);
            }
        }
    }
    sort_by_time(&mut edges);
    let mut rates = vec![0.0f64; pairs.len()];
    let mut events = Vec::with_capacity(edges.len());
    for edge in &edges {
        let rate = &mut rates[edge.pair as usize];
        *rate += edge.delta;
        if *rate < 1e-9 {
            *rate = 0.0;
        }
        let (u, v, _) = pairs[edge.pair as usize];
        events.push(TimedEvent {
            // A flow drawn at exactly t = 0 still becomes an event (nudged
            // off zero) so the base TM stays empty and duplicate same-pair
            // starts cannot double-count.
            time_s: f64::from_bits(edge.time_bits).max(1e-9),
            event: TraceEvent::SetRate {
                u: u.get(),
                v: v.get(),
                rate: *rate,
            },
        });
    }
    // Already in firing order: validated (sortedness included), not
    // sorted a second time.
    Trace::new(base.num_vms(), horizon, Vec::new(), events)
}

/// One end of a flow's lifetime: its pair's rate steps by `delta` at
/// the time whose bits are `time_bits`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlowEdge {
    time_bits: u64,
    /// Position in generation order, the tie-break among equal times.
    arrival: u32,
    /// Index of the pair in `base.pairs()`.
    pair: u32,
    delta: f64,
}

/// `len` as a `u32` — edges and pairs are indexed by one — or the error
/// a churn trace too large for its indices reports.
fn ordinal(len: usize) -> Result<u32, TraceError> {
    u32::try_from(len).map_err(|_| TraceError::BadEvent {
        index: len,
        reason: "a churn trace holds at most 2^32 - 1 pairs and flow edges".into(),
    })
}

/// Orders edges by firing time, ties in generation order — what a stable
/// sort by `f64::total_cmp` gives — as one unstable sort over integer
/// keys. Edge times are finite and never negative (`-0.0` included:
/// they are sums of non-negative terms), and on that range the bit
/// pattern of an `f64` ascends with its value; the arrival index makes
/// every key distinct, so there are no ties left for the sort to
/// reorder.
fn sort_by_time(edges: &mut [FlowEdge]) {
    edges.sort_unstable_by_key(|e| (e.time_bits, e.arrival));
}

/// Shape of a seeded failure storm ([`fault_storm_events`]): how many of
/// each fault kind land inside the horizon, and how long degradations
/// hold before their matching restore.
///
/// The generator draws fault *times and targets* from the seed but the
/// stream itself is a pure function of `(spec, seed)` — the adversity
/// analogue of [`flash_crowd_trace`], and the input the CI fault-replay
/// job regenerates to byte-compare a recorded run against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Servers in the target fabric (crash targets are drawn below it).
    pub num_servers: u32,
    /// Racks in the target fabric (rack-failure targets stay below it;
    /// `0` disables rack failures).
    pub num_racks: u32,
    /// Independent single-host crashes over the horizon.
    pub host_crashes: u32,
    /// Correlated whole-rack failures over the horizon.
    pub rack_fails: u32,
    /// Link-degradation episodes (each paired with a restore).
    pub degradations: u32,
    /// Remaining capacity fraction while degraded, in `(0, 1]`.
    pub degrade_factor: f64,
    /// How long each degradation holds before its restore.
    pub degrade_hold_s: f64,
    /// Highest tier a degradation may hit (0 = host NIC tier only).
    pub max_tier: u32,
    /// Total storm duration.
    pub horizon_s: f64,
}

impl FaultSpec {
    /// A CI-friendly default storm against a fabric of `num_servers`
    /// hosts in `num_racks` racks: 3 host crashes, 1 rack failure and 2
    /// edge-tier degradations to 40 % holding 60 s, inside a 700 s
    /// horizon.
    pub fn default_storm(num_servers: u32, num_racks: u32) -> Self {
        FaultSpec {
            num_servers,
            num_racks,
            host_crashes: 3,
            rack_fails: 1,
            degradations: 2,
            degrade_factor: 0.4,
            degrade_hold_s: 60.0,
            max_tier: 0,
            horizon_s: 700.0,
        }
    }

    /// Checks a deserialized spec.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_servers == 0 {
            return Err("num_servers must be positive".into());
        }
        if self.rack_fails > 0 && self.num_racks == 0 {
            return Err("rack failures need num_racks > 0".into());
        }
        if !self.degrade_factor.is_finite()
            || self.degrade_factor <= 0.0
            || self.degrade_factor > 1.0
        {
            return Err(format!(
                "degrade_factor must lie in (0, 1], got {}",
                self.degrade_factor
            ));
        }
        for (name, v) in [
            ("degrade_hold_s", self.degrade_hold_s),
            ("horizon_s", self.horizon_s),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        if self.degradations > 0 && self.degrade_hold_s >= self.horizon_s {
            return Err("degrade_hold_s must be shorter than horizon_s".into());
        }
        Ok(())
    }
}

/// The timed fault events of a seeded storm, sorted by firing time —
/// deterministic from `(spec, seed)`. Crash times are drawn strictly
/// inside the horizon; each degradation's restore lands `degrade_hold_s`
/// later (clamped inside the window).
///
/// # Errors
///
/// Returns [`TraceError`] if the spec is invalid.
pub fn fault_storm_events(
    spec: &FaultSpec,
    seed: u64,
) -> Result<Vec<crate::trace::TimedEvent>, TraceError> {
    spec.validate()
        .map_err(|reason| TraceError::BadEvent { index: 0, reason })?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xad5e_11f0_57a2_b6c4);
    let mut events: Vec<crate::trace::TimedEvent> = Vec::new();
    let mut push = |time_s: f64, event: TraceEvent| {
        events.push(crate::trace::TimedEvent { time_s, event });
    };
    for _ in 0..spec.host_crashes {
        let t = rng.gen_range(0.0..spec.horizon_s);
        let server = rng.gen_range(0..spec.num_servers);
        push(t, TraceEvent::HostCrash { server });
    }
    for _ in 0..spec.rack_fails {
        let t = rng.gen_range(0.0..spec.horizon_s);
        let rack = rng.gen_range(0..spec.num_racks);
        push(t, TraceEvent::RackFail { rack });
    }
    for _ in 0..spec.degradations {
        let t = rng.gen_range(0.0..(spec.horizon_s - spec.degrade_hold_s));
        let tier = if spec.max_tier == 0 {
            0
        } else {
            rng.gen_range(0..=spec.max_tier)
        };
        push(
            t,
            TraceEvent::LinkDegrade {
                tier,
                factor: spec.degrade_factor,
            },
        );
        push(t + spec.degrade_hold_s, TraceEvent::LinkRestore { tier });
    }
    events.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;
    use proptest::prelude::*;
    use score_topology::VmId;
    use score_traffic::PairTrafficBuilder;

    fn base() -> PairTraffic {
        let mut b = PairTrafficBuilder::new(16);
        b.add(VmId::new(0), VmId::new(1), 4e6);
        b.add(VmId::new(2), VmId::new(3), 2e5);
        b.add(VmId::new(4), VmId::new(5), 9e6);
        b.build()
    }

    /// [`churn_trace`] as it was first written, kept as the oracle: a
    /// stable sort of `(time, u, v, delta)` tuples, the running rates in
    /// an ordered map keyed by pair, the events sorted and validated once
    /// more by [`TraceBuilder::build`].
    fn churn_trace_reference(
        base: &PairTraffic,
        shape: &ChurnShape,
        seed: u64,
    ) -> Result<Trace, TraceError> {
        shape
            .validate()
            .map_err(|reason| TraceError::BadEvent { index: 0, reason })?;
        let horizon = shape.window_s * f64::from(shape.windows);
        let mut edges: Vec<(f64, u32, u32, f64)> = Vec::new();
        for w in 0..shape.windows {
            let sampler = FlowSampler::new(shape.window_s, seed.wrapping_add(u64::from(w)));
            let offset = shape.window_s * f64::from(w);
            for flow in sampler.sample(base) {
                let thr = flow.throughput_bps();
                let start = offset + flow.start_s;
                let end = (start + flow.duration_s).min(horizon);
                edges.push((start, flow.src.get(), flow.dst.get(), thr));
                if end < horizon {
                    edges.push((end, flow.src.get(), flow.dst.get(), -thr));
                }
            }
        }
        edges.sort_by(|a, b| a.0.total_cmp(&b.0));
        let canon = |u: u32, v: u32| if u < v { (u, v) } else { (v, u) };
        let mut rates: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        let mut b = TraceBuilder::new(base.num_vms(), horizon);
        for (t, u, v, delta) in edges {
            let key = canon(u, v);
            let rate = rates.entry(key).or_insert(0.0);
            *rate += delta;
            if *rate < 1e-9 {
                *rate = 0.0;
            }
            b = b.set_rate(t.max(1e-9), key.0, key.1, *rate);
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The pair-ordinal fold over key-sorted edges emits the stream
        /// the ordered-map fold over stably sorted tuples did, event for
        /// event and bit for bit, over random bases (repeated and
        /// reversed pairs, mice and elephants) and shapes.
        #[test]
        fn churn_trace_equals_the_reference_fold(
            num_vms in 2u32..24,
            adds in prop::collection::vec((0u32..24, 0u32..24, 1e3f64..2e7), 0..40),
            window_s in 0.5f64..90.0,
            windows in 1u32..5,
            seed in 0u64..1_000_000,
        ) {
            let mut b = PairTrafficBuilder::new(num_vms);
            for (u, v, rate) in adds {
                let (u, v) = (u % num_vms, v % num_vms);
                if u != v {
                    b.add(VmId::new(u), VmId::new(v), rate);
                }
            }
            let base = b.build();
            let shape = ChurnShape { window_s, windows };
            let got = churn_trace(&base, &shape, seed).unwrap();
            let want = churn_trace_reference(&base, &shape, seed).unwrap();
            prop_assert_eq!(&got, &want);
            // `==` lets `0.0 == -0.0` through; the JSONL text (shortest
            // round-trip floats) is equal only when every bit is.
            prop_assert_eq!(got.to_jsonl(), want.to_jsonl());
        }
    }

    #[test]
    fn key_sort_orders_tied_times_like_a_stable_total_cmp_sort() {
        // Few distinct times (zero among them) over many edges: nearly
        // everything ties, in runs the arrival index must keep in order.
        let times = [0.0f64, 1e-9, 0.25, 0.25000000000000006, 1.0, 59.5, 7e8];
        let mut rng = StdRng::seed_from_u64(3);
        let mut edges = Vec::new();
        for arrival in 0..500u32 {
            edges.push(FlowEdge {
                time_bits: times[rng.gen_range(0..times.len())].to_bits(),
                arrival,
                pair: rng.gen_range(0..9),
                delta: f64::from(arrival) - 250.0,
            });
        }
        let mut want = edges.clone();
        want.sort_by(|a, b| f64::from_bits(a.time_bits).total_cmp(&f64::from_bits(b.time_bits)));
        sort_by_time(&mut edges);
        assert_eq!(edges, want);
        assert!(edges.windows(2).any(|w| w[0].time_bits == w[1].time_bits));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn ordinals_that_do_not_fit_are_an_error_not_a_wrap() {
        assert_eq!(ordinal(0), Ok(0));
        assert_eq!(ordinal(u32::MAX as usize), Ok(u32::MAX));
        assert!(matches!(
            ordinal(u32::MAX as usize + 1),
            Err(TraceError::BadEvent { .. })
        ));
    }

    #[test]
    fn churn_rejects_a_horizon_that_overflows() {
        let shape = ChurnShape {
            window_s: 1e308,
            windows: 4,
        };
        assert!(shape.validate().unwrap_err().contains("finite"));
        assert!(matches!(
            churn_trace(&base(), &shape, 1),
            Err(TraceError::BadEvent { .. })
        ));
    }

    #[test]
    fn diurnal_tracks_the_envelope() {
        let shape = DiurnalShape {
            period_s: 100.0,
            amplitude: 0.5,
            step_s: 5.0,
            horizon_s: 200.0,
        };
        let t = diurnal_trace(&base(), &shape).unwrap();
        assert_eq!(t.num_events(), 39); // steps at 5, 10, …, 195
                                        // Compound all factors: after exactly two periods the envelope
                                        // returns to 1 at t = 195 relative to... the product of ratios
                                        // telescopes to envelope(195)/envelope(0).
        let mut product = 1.0f64;
        for ev in t.events() {
            match ev.event {
                TraceEvent::ScaleAll { factor } => product *= factor,
                ref other => panic!("unexpected event {other:?}"),
            }
        }
        let expected = 1.0 + 0.5 * (std::f64::consts::TAU * 195.0 / 100.0).sin();
        assert!((product - expected).abs() < 1e-9, "{product} vs {expected}");
        // Deterministic: identical on regeneration.
        assert_eq!(diurnal_trace(&base(), &shape).unwrap(), t);
    }

    #[test]
    fn diurnal_rejects_bad_shapes() {
        let mut shape = DiurnalShape::default_shape();
        shape.amplitude = 1.5;
        assert!(diurnal_trace(&base(), &shape).is_err());
        shape = DiurnalShape::default_shape();
        shape.step_s = 0.0;
        assert!(diurnal_trace(&base(), &shape).is_err());
    }

    #[test]
    fn flash_crowd_surges_and_restores() {
        let shape = FlashCrowdShape {
            spikes: 3,
            fanout: 4,
            surge_bps: 1e8,
            hold_s: 50.0,
            horizon_s: 500.0,
        };
        let t = flash_crowd_trace(&base(), &shape, 7).unwrap();
        // 3 spikes × 4 partners × (surge + restore).
        assert_eq!(t.num_events(), 24);
        assert_eq!(flash_crowd_trace(&base(), &shape, 7).unwrap(), t);
        assert_ne!(flash_crowd_trace(&base(), &shape, 8).unwrap(), t);
        // Replaying the compiled trace ends back on the base TM.
        let compiled = t.compile();
        assert_eq!(compiled.segments.len(), 1);
        let seg = &compiled.segments[0];
        let mut tm = seg.initial.clone();
        for batch in seg.shifts.iter() {
            seg.shifts.apply_to(batch.delta, &mut tm);
        }
        assert_eq!(
            tm.pairs(),
            t.base_traffic().pairs(),
            "surges must fully subside"
        );
    }

    #[test]
    fn churn_conserves_flow_structure() {
        let shape = ChurnShape {
            window_s: 10.0,
            windows: 3,
        };
        let t = churn_trace(&base(), &shape, 21).unwrap();
        assert_eq!(t.end_s(), 30.0);
        assert!(t.num_events() > 0);
        assert_eq!(churn_trace(&base(), &shape, 21).unwrap(), t);
        // All rates stay non-negative by construction; validation agrees.
        t.validate().unwrap();
        // The trace starts empty: flows begin strictly after t = 0.
        assert!(t.base().is_empty());
    }

    #[test]
    fn fault_storm_is_deterministic_and_bounded() {
        let spec = FaultSpec::default_storm(160, 32);
        let events = fault_storm_events(&spec, 9).unwrap();
        assert_eq!(fault_storm_events(&spec, 9).unwrap(), events);
        assert_ne!(fault_storm_events(&spec, 10).unwrap(), events);
        // 3 crashes + 1 rack fail + 2 × (degrade + restore).
        assert_eq!(events.len(), 8);
        let mut degrades = 0;
        for ev in &events {
            assert!(ev.time_s >= 0.0 && ev.time_s <= spec.horizon_s);
            match ev.event {
                TraceEvent::HostCrash { server } => assert!(server < spec.num_servers),
                TraceEvent::RackFail { rack } => assert!(rack < spec.num_racks),
                TraceEvent::LinkDegrade { tier, factor } => {
                    assert_eq!(tier, 0);
                    assert_eq!(factor, spec.degrade_factor);
                    degrades += 1;
                }
                TraceEvent::LinkRestore { tier } => assert_eq!(tier, 0),
                ref other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(degrades, 2);
        // Played over a base TM, the storm is a fault trace, and its
        // JSONL round trip survives.
        let t = events
            .iter()
            .fold(
                Trace::builder(16, spec.horizon_s).base_traffic(&base()),
                |b, ev| b.event(ev.time_s, ev.event.clone()),
            )
            .build()
            .unwrap();
        assert!(t.has_faults());
        assert_eq!(Trace::from_jsonl(&t.to_jsonl()).unwrap(), t);
    }

    #[test]
    fn fault_storm_rejects_bad_specs() {
        let mut spec = FaultSpec::default_storm(160, 32);
        spec.degrade_factor = 1.5;
        assert!(fault_storm_events(&spec, 1).is_err());
        spec = FaultSpec::default_storm(160, 0);
        assert!(
            fault_storm_events(&spec, 1).is_err(),
            "rack fails need racks"
        );
        spec = FaultSpec::default_storm(0, 32);
        assert!(fault_storm_events(&spec, 1).is_err());
        spec = FaultSpec::default_storm(160, 32);
        spec.degrade_hold_s = spec.horizon_s;
        assert!(fault_storm_events(&spec, 1).is_err());
    }

    #[test]
    fn default_shapes_are_valid() {
        DiurnalShape::default_shape().validate().unwrap();
        FlashCrowdShape::default_shape().validate().unwrap();
        ChurnShape::default_shape().validate().unwrap();
        assert!(diurnal_trace(&base(), &DiurnalShape::default_shape()).is_ok());
        assert!(flash_crowd_trace(&base(), &FlashCrowdShape::default_shape(), 1).is_ok());
        assert!(churn_trace(&base(), &ChurnShape::default_shape(), 1).is_ok());
    }
}
