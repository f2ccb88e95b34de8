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

use crate::trace::{Trace, TraceBuilder, TraceError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use score_traffic::{FlowSampler, PairTraffic};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::trace::TraceEvent;

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

    /// Checks a deserialized shape.
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
/// Returns [`TraceError`] if the shape is invalid.
pub fn churn_trace(base: &PairTraffic, shape: &ChurnShape, seed: u64) -> Result<Trace, TraceError> {
    shape
        .validate()
        .map_err(|reason| TraceError::BadEvent { index: 0, reason })?;
    let horizon = shape.window_s * f64::from(shape.windows);
    // (time, pair, signed throughput) edges from every flow's lifetime.
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
        let new = *rate;
        // A flow drawn at exactly t = 0 still becomes an event (nudged
        // off zero) so the base TM stays empty and duplicate same-pair
        // starts cannot double-count.
        b = b.event(
            t.max(1e-9),
            TraceEvent::SetRate {
                u: key.0,
                v: key.1,
                rate: new,
            },
        );
    }
    b.build()
}

/// Shape of a seeded failure storm ([`fault_storm_trace`]): how many of
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

/// Builds a full adversity trace: the storm of [`fault_storm_events`]
/// played over `base` as the initial TM. The result replays through the
/// raw event stream ([`Trace::has_faults`] is true).
///
/// # Errors
///
/// Returns [`TraceError`] if the spec is invalid.
pub fn fault_storm_trace(
    base: &PairTraffic,
    spec: &FaultSpec,
    seed: u64,
) -> Result<Trace, TraceError> {
    let mut b = Trace::builder(base.num_vms(), spec.horizon_s).base_traffic(base);
    for ev in fault_storm_events(spec, seed)? {
        b = b.event(ev.time_s, ev.event);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use score_topology::VmId;
    use score_traffic::PairTrafficBuilder;

    fn base() -> PairTraffic {
        let mut b = PairTrafficBuilder::new(16);
        b.add(VmId::new(0), VmId::new(1), 4e6);
        b.add(VmId::new(2), VmId::new(3), 2e5);
        b.add(VmId::new(4), VmId::new(5), 9e6);
        b.build()
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
        let t = fault_storm_trace(&base(), &spec, 9).unwrap();
        assert!(t.has_faults());
        assert_eq!(fault_storm_trace(&base(), &spec, 9).unwrap(), t);
        assert_ne!(fault_storm_trace(&base(), &spec, 10).unwrap(), t);
        // 3 crashes + 1 rack fail + 2 × (degrade + restore).
        assert_eq!(t.num_events(), 8);
        let mut degrades = 0;
        for ev in t.events() {
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
        // JSONL round trip survives.
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
