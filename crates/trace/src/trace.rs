//! The trace model: a time-ordered stream of traffic deltas over a base
//! TM, and its compilation into replayable segments.
//!
//! A [`Trace`] is the time-varying analogue of a single
//! `score_traffic::PairTraffic`: it fixes the VM population, an initial
//! communication graph (`base`), a total duration (`end_s`), and a
//! time-sorted list of [`TraceEvent`]s mutating the pairwise rates —
//! absolute re-rates ([`TraceEvent::SetRate`]), multiplicative drift
//! ([`TraceEvent::ScaleAll`] / [`TraceEvent::ScalePair`]), and
//! [`TraceEvent::Marker`]s splitting the stream into coarse phases.
//!
//! Consumers never walk the raw events: [`Trace::compile`] folds the
//! stream into a [`CompiledTrace`] — one [`TraceSegment`] per marker
//! interval, each carrying the exact `PairTraffic` active at its start
//! plus the in-segment [`DeltaBatch`]es, one per event: absolute rates
//! ready to feed a sparse rebind path such as
//! `Session::apply_traffic_deltas`, or a uniform scale for
//! `Session::apply_traffic_scale`. A segment's batches are a
//! [`ShiftRun`]: small `Copy` records in firing order beside one flat
//! vector of every re-rate, so a million-event trace compiles into two
//! allocations per segment and replays as one sorted run.

use score_topology::VmId;
use score_traffic::{PairTraffic, PairTrafficBuilder};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One mutation of the offered traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Sets λ(u, v) to an absolute rate in bits per second; `0` removes
    /// the pair from the communication graph.
    SetRate {
        /// First endpoint VM id.
        u: u32,
        /// Second endpoint VM id.
        v: u32,
        /// New absolute rate (b/s), `>= 0`.
        rate: f64,
    },
    /// Multiplies λ(u, v) by a factor (`0` removes the pair; a factor on
    /// a non-communicating pair is a no-op).
    ScalePair {
        /// First endpoint VM id.
        u: u32,
        /// Second endpoint VM id.
        v: u32,
        /// Multiplicative factor, `>= 0`.
        factor: f64,
    },
    /// Multiplies every current pair rate by a factor — diurnal drift,
    /// load ramps.
    ScaleAll {
        /// Multiplicative factor, `> 0`.
        factor: f64,
    },
    /// Phase boundary: closes the current segment — a report barrier the
    /// allocation carries over — and labels the next one.
    Marker {
        /// Human-readable phase label.
        label: String,
    },
    /// A VM arrives: the population grows by one dense id (`vm` must be
    /// the next unused id) on the given server. The newcomer starts with
    /// zero traffic; its rates arrive as later [`TraceEvent::SetRate`]s.
    /// Churn events make a trace an *audit log* (a `scored` daemon
    /// session, or a churn workload): they replay through the raw event
    /// stream, not through [`Trace::compile`].
    PlaceVm {
        /// The arriving VM's id — exactly the current population.
        vm: u32,
        /// The hosting server id.
        server: u32,
    },
    /// A VM departs: `vm` must be live (placed or initial, not yet
    /// removed). Any rates it still has are implicitly zeroed; recorded
    /// audit logs emit the explicit zeroing [`TraceEvent::SetRate`]s
    /// just before this event.
    RemoveVm {
        /// The departing VM's id.
        vm: u32,
    },
    /// A host fails abruptly: every VM it carries is force-evacuated by
    /// the deterministic placement manager (VMs with no feasible target
    /// are retired and counted as unplaceable). Fault events make a
    /// trace an *adversity log*: like churn, they replay through the
    /// raw event stream, never through [`Trace::compile`]. The consumer
    /// (a `Session`) owns the server-id space; the trace only records
    /// the fault.
    HostCrash {
        /// The failing server's id.
        server: u32,
    },
    /// A whole rack fails: a correlated [`TraceEvent::HostCrash`] sweep
    /// over every server in the rack, in ascending server-id order.
    RackFail {
        /// The failing rack's id.
        rack: u32,
    },
    /// Link capacity at one topology tier degrades to a fraction of
    /// nominal (tier 0 = host NICs, 1 = ToR–aggregation uplinks, 2 =
    /// aggregation–core). Admission checks see the reduced capacity
    /// until a matching [`TraceEvent::LinkRestore`].
    LinkDegrade {
        /// The affected tier index.
        tier: u32,
        /// Remaining capacity fraction, in `(0, 1]`.
        factor: f64,
    },
    /// Restores the named tier to its nominal capacity.
    LinkRestore {
        /// The tier to restore.
        tier: u32,
    },
}

impl TraceEvent {
    /// Checks the event's own numbers — rates, scale factors, capacity
    /// fractions — against the ranges their variants document. This is
    /// the one rule every consumer applies before acting on an event
    /// ([`Trace::validate`], `Session::apply_trace_event`, the `scored`
    /// daemon), so a value one of them refuses can never be recorded by
    /// another. Which VMs, servers or racks an event may name depends on
    /// the consumer's state and is checked there.
    ///
    /// # Errors
    ///
    /// Returns what is wrong with the payload.
    pub fn check_payload(&self) -> Result<(), String> {
        match *self {
            TraceEvent::SetRate { rate, .. } if !rate.is_finite() || rate < 0.0 => {
                Err(format!("rate {rate} must be finite and >= 0"))
            }
            TraceEvent::ScalePair { factor, .. } if !factor.is_finite() || factor < 0.0 => {
                Err(format!("factor {factor} must be finite and >= 0"))
            }
            TraceEvent::ScaleAll { factor } if !factor.is_finite() || factor <= 0.0 => {
                Err(format!("factor {factor} must be finite and > 0"))
            }
            TraceEvent::LinkDegrade { factor, .. }
                if !factor.is_finite() || factor <= 0.0 || factor > 1.0 =>
            {
                Err(format!("degrade factor {factor} must lie in (0, 1]"))
            }
            _ => Ok(()),
        }
    }

    /// True for the adversity events ([`TraceEvent::HostCrash`],
    /// [`TraceEvent::RackFail`], [`TraceEvent::LinkDegrade`],
    /// [`TraceEvent::LinkRestore`]).
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            TraceEvent::HostCrash { .. }
                | TraceEvent::RackFail { .. }
                | TraceEvent::LinkDegrade { .. }
                | TraceEvent::LinkRestore { .. }
        )
    }
}

/// A [`TraceEvent`] with its firing time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Absolute trace time in seconds, in `[0, end_s]`.
    pub time_s: f64,
    /// The mutation firing at that time.
    pub event: TraceEvent,
}

/// Error validating a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The duration is non-positive or non-finite.
    BadDuration(f64),
    /// A base pair is invalid (self-pair, out-of-range id, bad rate).
    BadBasePair(u32, u32, f64),
    /// An event fires outside `[0, end_s]` or at a non-finite time.
    BadEventTime(f64),
    /// Events are not sorted by time.
    Unsorted {
        /// Index of the first out-of-order event.
        index: usize,
    },
    /// An event payload is invalid (self-pair, out-of-range id,
    /// negative/non-finite rate or factor).
    BadEvent {
        /// Index of the offending event.
        index: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A line of a JSONL stream failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The underlying parse error.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadDuration(d) => {
                write!(f, "trace duration must be positive and finite, got {d}")
            }
            TraceError::BadBasePair(u, v, r) => {
                write!(f, "invalid base pair ({u}, {v}) with rate {r}")
            }
            TraceError::BadEventTime(t) => {
                write!(f, "event time {t} outside the trace window")
            }
            TraceError::Unsorted { index } => {
                write!(f, "event {index} fires before its predecessor")
            }
            TraceError::BadEvent { index, reason } => write!(f, "invalid event {index}: {reason}"),
            TraceError::Parse { line, reason } => write!(f, "JSONL line {line}: {reason}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A complete time-varying workload: initial TM plus a delta stream
/// (see the module docs).
///
/// # Examples
///
/// ```
/// use score_trace::{Trace, TraceEvent};
///
/// let trace = Trace::builder(4, 100.0)
///     .base_pair(0, 1, 2e6)
///     .base_pair(2, 3, 1e6)
///     .set_rate(25.0, 0, 1, 8e6) // flash crowd on (0, 1)
///     .scale_all(50.0, 0.5)      // off-peak dip
///     .marker(75.0, "evening")
///     .build()
///     .unwrap();
/// assert_eq!(trace.num_vms(), 4);
/// assert_eq!(trace.num_events(), 3);
/// let compiled = trace.compile();
/// assert_eq!(compiled.segments.len(), 2); // the marker splits the run
/// assert_eq!(compiled.segments[0].shifts.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    num_vms: u32,
    end_s: f64,
    base: Vec<(u32, u32, f64)>,
    events: Vec<TimedEvent>,
}

/// The rate a `ScalePair`/`ScaleAll` event leaves behind: `rate ×
/// factor`, saturated at `f64::MAX`. Per-event values are validated
/// finite, but a *composed* rate (rate × factor × factor …) can still
/// overflow; saturating keeps every lowering of a valid scale event —
/// the trace compiler's, the session's and the daemon's — finite,
/// applicable, and equal to the others bit for bit.
#[inline]
pub fn scaled_rate(rate: f64, factor: f64) -> f64 {
    (rate * factor).min(f64::MAX)
}

/// Appends a wholesale TM shift at `at_s` to `events`: a
/// [`TraceEvent::Marker`] followed by the per-pair re-rates turning
/// `old` into `new` (pairs vanishing from `new` are set to 0, unchanged
/// pairs are skipped). The one old→new pair diff: [`Trace::piecewise`]
/// scripts boundaries with it and `TraceRecorder::record_rebind`
/// records them with it.
pub(crate) fn push_rebind(
    events: &mut Vec<TimedEvent>,
    at_s: f64,
    label: String,
    old: &PairTraffic,
    new: &PairTraffic,
) {
    events.push(TimedEvent {
        time_s: at_s,
        event: TraceEvent::Marker { label },
    });
    let changed = old.pairs().into_iter().filter_map(|(u, v, was)| {
        let now = new.rate(u, v);
        (now != was).then_some((u, v, now))
    });
    let added = new
        .pairs()
        .into_iter()
        .filter(|&(u, v, _)| old.rate(u, v) == 0.0);
    events.extend(changed.chain(added).map(|(u, v, rate)| TimedEvent {
        time_s: at_s,
        event: TraceEvent::SetRate {
            u: u.get(),
            v: v.get(),
            rate,
        },
    }));
}

impl Trace {
    /// Starts a builder for a trace over `num_vms` VMs lasting `end_s`
    /// seconds.
    pub fn builder(num_vms: u32, end_s: f64) -> TraceBuilder {
        TraceBuilder::new(num_vms, end_s)
    }

    /// The piecewise-constant trace of a sequence of `(duration_s, TM)`
    /// phases — the one way to script wholesale TM shifts. TM 0 is the
    /// base; every later phase opens with a marker labelled `phase-i`
    /// and the re-rates turning TM `i − 1` into TM `i`, all at the
    /// boundary, so [`Trace::compile`] folds them into segment `i`'s
    /// initial TM and a session replaying the trace starts each phase
    /// from the allocation the previous one ended on. Boundaries sit at
    /// the running sum of the durations, so a compiled segment lasts the
    /// difference of two such sums: `duration_s` exactly for dyadic
    /// values (whole seconds), within rounding otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] for an empty phase list
    /// ([`TraceError::BadDuration`]), phases over different populations
    /// ([`TraceError::BadEvent`]) and whatever [`Trace::validate`]
    /// finds in the result (negative or non-finite durations).
    pub fn piecewise(phases: &[(f64, PairTraffic)]) -> Result<Trace, TraceError> {
        let Some((_, base)) = phases.first() else {
            return Err(TraceError::BadDuration(0.0));
        };
        let end_s = phases.iter().map(|(duration_s, _)| duration_s).sum();
        let mut builder = Trace::builder(base.num_vms(), end_s).base_traffic(base);
        let mut at_s = 0.0;
        for (i, shift) in phases.windows(2).enumerate() {
            let ((duration_s, old), (_, new)) = (&shift[0], &shift[1]);
            if new.num_vms() != base.num_vms() {
                return Err(TraceError::BadEvent {
                    index: builder.events.len(),
                    reason: format!(
                        "phase {} has {} VMs, the base TM {}",
                        i + 1,
                        new.num_vms(),
                        base.num_vms()
                    ),
                });
            }
            at_s += duration_s;
            push_rebind(
                &mut builder.events,
                at_s,
                format!("phase-{}", i + 1),
                old,
                new,
            );
        }
        builder.build()
    }

    /// Builds a trace from parts, validating everything.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on any invariant violation (see
    /// [`Trace::validate`]).
    pub fn new(
        num_vms: u32,
        end_s: f64,
        base: Vec<(u32, u32, f64)>,
        events: Vec<TimedEvent>,
    ) -> Result<Self, TraceError> {
        let trace = Trace {
            num_vms,
            end_s,
            base,
            events,
        };
        trace.validate()?;
        Ok(trace)
    }

    /// The VM population (ids are dense `0..num_vms`).
    pub fn num_vms(&self) -> u32 {
        self.num_vms
    }

    /// Total trace duration in seconds.
    pub fn end_s(&self) -> f64 {
        self.end_s
    }

    /// The initial `(u, v, rate)` communication graph.
    pub fn base(&self) -> &[(u32, u32, f64)] {
        &self.base
    }

    /// The delta stream in firing order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Number of events (markers included).
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Number of phase markers in the stream.
    pub fn num_markers(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Marker { .. }))
            .count()
    }

    /// The initial TM as a [`PairTraffic`].
    pub fn base_traffic(&self) -> PairTraffic {
        let mut b = PairTrafficBuilder::new(self.num_vms);
        for &(u, v, rate) in &self.base {
            b.add(VmId::new(u), VmId::new(v), rate);
        }
        b.build()
    }

    /// Checks every invariant a deserialized trace might violate:
    /// positive finite duration, valid base pairs, time-sorted events
    /// inside the window, valid event payloads.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), TraceError> {
        if !self.end_s.is_finite() || self.end_s <= 0.0 {
            return Err(TraceError::BadDuration(self.end_s));
        }
        for &(u, v, rate) in &self.base {
            let ok =
                u != v && u < self.num_vms && v < self.num_vms && rate.is_finite() && rate > 0.0;
            if !ok {
                return Err(TraceError::BadBasePair(u, v, rate));
            }
        }
        // Churn events change the live population as the stream plays,
        // so endpoint checks run against the *running* liveness, not the
        // initial `num_vms`.
        let mut live = vec![true; self.num_vms as usize];
        let mut prev = 0.0f64;
        for (index, ev) in self.events.iter().enumerate() {
            if !ev.time_s.is_finite() || ev.time_s < 0.0 || ev.time_s > self.end_s {
                return Err(TraceError::BadEventTime(ev.time_s));
            }
            if ev.time_s < prev {
                return Err(TraceError::Unsorted { index });
            }
            prev = ev.time_s;
            let bad = |reason: String| TraceError::BadEvent { index, reason };
            ev.event.check_payload().map_err(bad)?;
            let pair_live = |u: u32, v: u32, live: &[bool]| {
                u != v
                    && live.get(u as usize).copied().unwrap_or(false)
                    && live.get(v as usize).copied().unwrap_or(false)
            };
            match &ev.event {
                TraceEvent::SetRate { u, v, .. } => {
                    if !pair_live(*u, *v, &live) {
                        return Err(bad(format!(
                            "pair ({u}, {v}) names a dead or out-of-range VM"
                        )));
                    }
                }
                // A dead or out-of-range endpoint makes a `ScalePair` a
                // validated *no-op* rather than an error: a factor on a
                // non-communicating pair was always a no-op, and a
                // departed (or crash-evicted) VM has no rate left to
                // scale — erroring here would reject otherwise-sound
                // recorded adversity logs, while applying it could
                // silently resurrect the pair. Self-pairs stay no-ops for
                // the same reason; only the factor is checked.
                TraceEvent::ScalePair { .. }
                | TraceEvent::ScaleAll { .. }
                | TraceEvent::Marker { .. } => {}
                TraceEvent::PlaceVm { vm, .. } => {
                    if *vm as usize != live.len() {
                        return Err(bad(format!(
                            "PlaceVm id {vm} must be the next dense id {}",
                            live.len()
                        )));
                    }
                    live.push(true);
                }
                TraceEvent::RemoveVm { vm } => {
                    if !live.get(*vm as usize).copied().unwrap_or(false) {
                        return Err(bad(format!("RemoveVm names dead or out-of-range VM {vm}")));
                    }
                    live[*vm as usize] = false;
                }
                // Server/rack ids live in the consumer's topology, which
                // the trace does not know — they are bound at apply time.
                // Which VMs a crash retires (the unplaceable ones) is a
                // consumer decision too, so crashes do not alter `live`.
                TraceEvent::HostCrash { .. }
                | TraceEvent::RackFail { .. }
                | TraceEvent::LinkDegrade { .. }
                | TraceEvent::LinkRestore { .. } => {}
            }
        }
        Ok(())
    }

    /// True when the stream contains population churn
    /// ([`TraceEvent::PlaceVm`] / [`TraceEvent::RemoveVm`]). Churn
    /// traces replay through the raw event stream (the `scored` daemon
    /// replay path) — they cannot be compiled into fixed-population
    /// segments.
    pub fn has_churn(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e.event,
                TraceEvent::PlaceVm { .. } | TraceEvent::RemoveVm { .. }
            )
        })
    }

    /// True when the stream contains adversity events
    /// ([`TraceEvent::is_fault`]). Like churn traces, fault traces
    /// replay through the raw event stream — a crash's evacuation
    /// rewrites the allocation, which fixed-TM segments cannot express.
    pub fn has_faults(&self) -> bool {
        self.events.iter().any(|e| e.event.is_fault())
    }

    /// Folds the event stream into replayable segments: one
    /// [`TraceSegment`] per marker interval, each with the exact TM
    /// active at its start and one in-segment [`DeltaBatch`] per event
    /// that changes a rate, at segment-relative times. A `ScaleAll` stays
    /// one O(1) batch — the compiler's running TM scales as lazily as a
    /// session's does, and no pair is visited for it. Rate events landing
    /// exactly on a segment boundary fold into the *next* segment's
    /// initial TM (they carry no in-run duration in the closing one).
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) on an unvalidated trace; run
    /// [`Trace::validate`] on untrusted input first. Panics on a churn
    /// trace ([`Trace::has_churn`]) — segments have a fixed population;
    /// churn traces replay through the raw event stream instead.
    pub fn compile(&self) -> CompiledTrace {
        debug_assert!(self.validate().is_ok(), "compile needs a valid trace");
        assert!(
            !self.has_churn(),
            "churn traces (PlaceVm/RemoveVm) cannot be compiled into \
             fixed-population segments; replay the raw event stream instead"
        );
        assert!(
            !self.has_faults(),
            "fault traces (HostCrash/RackFail/LinkDegrade/LinkRestore) cannot \
             be compiled into fixed-allocation segments; replay the raw event \
             stream instead"
        );
        // A segment's initial TM is a fresh build of the running one:
        // peer lists sized to fit, no pending scale.
        let snapshot = |tm: &PairTraffic| {
            let mut b = PairTrafficBuilder::new(self.num_vms);
            for (u, v, rate) in tm.pairs() {
                b.add(u, v, rate);
            }
            b.build()
        };

        let mut running = self.base_traffic();
        let mut segments = Vec::new();
        let mut seg_start = 0.0f64;
        let mut seg_label: Option<String> = None;
        // `None` while the running TM still is the segment's initial one
        // (no in-segment batch yet); taken just before the first lands.
        let mut seg_initial: Option<PairTraffic> = None;
        let mut shifts = ShiftRun::default();
        let mut close =
            |duration_s: f64, label: Option<String>, initial: PairTraffic, mut shifts: ShiftRun| {
                shifts.truncate_at(duration_s);
                segments.push(TraceSegment {
                    label,
                    duration_s,
                    initial,
                    shifts,
                });
            };

        for (index, ev) in self.events.iter().enumerate() {
            if let TraceEvent::Marker { label } = &ev.event {
                if ev.time_s > seg_start {
                    let initial = seg_initial.take().unwrap_or_else(|| snapshot(&running));
                    close(
                        ev.time_s - seg_start,
                        seg_label.take(),
                        initial,
                        std::mem::take(&mut shifts),
                    );
                    seg_start = ev.time_s;
                }
                seg_label = Some(label.clone());
                continue;
            }
            let Some(change) = Self::event_change(&running, &ev.event) else {
                continue;
            };
            // Boundary events fold into the segment's initial TM.
            let in_segment = ev.time_s > seg_start;
            if in_segment && seg_initial.is_none() {
                seg_initial = Some(snapshot(&running));
            }
            match change {
                Change::Rate(u, v, rate) => running.apply_update(u, v, rate),
                Change::ScaleAll(factor) => running.scale_all(factor),
            }
            if in_segment {
                if shifts.is_empty() {
                    shifts.reserve_until_marker(&self.events[index..]);
                }
                shifts.push(ev.time_s - seg_start, change);
            }
        }
        if self.end_s > seg_start {
            let initial = seg_initial.unwrap_or_else(|| snapshot(&running));
            close(self.end_s - seg_start, seg_label, initial, shifts);
        }
        CompiledTrace {
            num_vms: self.num_vms,
            segments,
        }
    }

    /// The change one rate event makes to the running TM, or `None` when
    /// it changes nothing (re-rates are canonical `u < v`).
    fn event_change(running: &PairTraffic, event: &TraceEvent) -> Option<Change> {
        let canon = |u: u32, v: u32| (VmId::new(u.min(v)), VmId::new(u.max(v)));
        let rerate = |(u, v): (VmId, VmId), new: f64| {
            (new != running.rate(u, v)).then_some(Change::Rate(u, v, new))
        };
        match *event {
            TraceEvent::SetRate { u, v, rate } => rerate(canon(u, v), rate),
            TraceEvent::ScalePair { u, v, factor } => {
                // `validate` lets a `ScalePair` name any endpoints;
                // outside the population there is nothing to scale.
                if u == v || u.max(v) >= running.num_vms() {
                    return None;
                }
                let (u, v) = canon(u, v);
                rerate((u, v), scaled_rate(running.rate(u, v), factor))
            }
            TraceEvent::ScaleAll { factor } => {
                (factor != 1.0 && running.num_pairs() > 0).then_some(Change::ScaleAll(factor))
            }
            TraceEvent::Marker { .. } => None,
            TraceEvent::PlaceVm { .. } | TraceEvent::RemoveVm { .. } => {
                unreachable!("compile rejects churn traces up front")
            }
            TraceEvent::HostCrash { .. }
            | TraceEvent::RackFail { .. }
            | TraceEvent::LinkDegrade { .. }
            | TraceEvent::LinkRestore { .. } => {
                unreachable!("compile rejects fault traces up front")
            }
        }
    }
}

/// What one event does to the compiler's running TM.
#[derive(Clone, Copy)]
enum Change {
    /// λ(u, v) becomes this absolute rate (`u < v`).
    Rate(VmId, VmId, f64),
    /// Every rate is multiplied by this factor.
    ScaleAll(f64),
}

/// Incremental construction of a [`Trace`] (times may be pushed in any
/// order; [`TraceBuilder::build`] sorts stably and validates).
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    num_vms: u32,
    end_s: f64,
    base: Vec<(u32, u32, f64)>,
    events: Vec<TimedEvent>,
}

impl TraceBuilder {
    /// Starts an empty trace over `num_vms` VMs lasting `end_s` seconds.
    pub fn new(num_vms: u32, end_s: f64) -> Self {
        TraceBuilder {
            num_vms,
            end_s,
            base: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Adds one pair to the initial TM.
    pub fn base_pair(mut self, u: u32, v: u32, rate: f64) -> Self {
        self.base.push((u, v, rate));
        self
    }

    /// Seeds the initial TM from an existing [`PairTraffic`].
    pub fn base_traffic(mut self, traffic: &PairTraffic) -> Self {
        self.base.extend(
            traffic
                .pairs()
                .iter()
                .map(|&(u, v, r)| (u.get(), v.get(), r)),
        );
        self
    }

    /// Pushes an arbitrary event.
    pub fn event(mut self, time_s: f64, event: TraceEvent) -> Self {
        self.events.push(TimedEvent { time_s, event });
        self
    }

    /// Pushes a [`TraceEvent::SetRate`].
    pub fn set_rate(self, time_s: f64, u: u32, v: u32, rate: f64) -> Self {
        self.event(time_s, TraceEvent::SetRate { u, v, rate })
    }

    /// Pushes a [`TraceEvent::ScalePair`].
    pub fn scale_pair(self, time_s: f64, u: u32, v: u32, factor: f64) -> Self {
        self.event(time_s, TraceEvent::ScalePair { u, v, factor })
    }

    /// Pushes a [`TraceEvent::ScaleAll`].
    pub fn scale_all(self, time_s: f64, factor: f64) -> Self {
        self.event(time_s, TraceEvent::ScaleAll { factor })
    }

    /// Pushes a [`TraceEvent::PlaceVm`] arrival.
    pub fn place_vm(self, time_s: f64, vm: u32, server: u32) -> Self {
        self.event(time_s, TraceEvent::PlaceVm { vm, server })
    }

    /// Pushes a [`TraceEvent::RemoveVm`] departure.
    pub fn remove_vm(self, time_s: f64, vm: u32) -> Self {
        self.event(time_s, TraceEvent::RemoveVm { vm })
    }

    /// Pushes a [`TraceEvent::HostCrash`] fault.
    pub fn host_crash(self, time_s: f64, server: u32) -> Self {
        self.event(time_s, TraceEvent::HostCrash { server })
    }

    /// Pushes a [`TraceEvent::RackFail`] fault.
    pub fn rack_fail(self, time_s: f64, rack: u32) -> Self {
        self.event(time_s, TraceEvent::RackFail { rack })
    }

    /// Pushes a [`TraceEvent::LinkDegrade`] fault.
    pub fn link_degrade(self, time_s: f64, tier: u32, factor: f64) -> Self {
        self.event(time_s, TraceEvent::LinkDegrade { tier, factor })
    }

    /// Pushes a [`TraceEvent::LinkRestore`] recovery.
    pub fn link_restore(self, time_s: f64, tier: u32) -> Self {
        self.event(time_s, TraceEvent::LinkRestore { tier })
    }

    /// Pushes a [`TraceEvent::Marker`] phase boundary.
    pub fn marker(self, time_s: f64, label: impl Into<String>) -> Self {
        self.event(
            time_s,
            TraceEvent::Marker {
                label: label.into(),
            },
        )
    }

    /// Sorts the events stably by time and validates the result — the
    /// path of every trace whose events were pushed in any order. (A
    /// generator that emits its events in firing order hands them to
    /// [`Trace::new`], which checks sortedness and never sorts.)
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on any invariant violation.
    pub fn build(mut self) -> Result<Trace, TraceError> {
        self.events.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
        Trace::new(self.num_vms, self.end_s, self.base, self.events)
    }
}

/// The replayable form of a [`Trace`]: marker-delimited segments.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTrace {
    /// The VM population.
    pub num_vms: u32,
    /// Segments in play order; never empty for a valid trace.
    pub segments: Vec<TraceSegment>,
}

impl CompiledTrace {
    /// Total number of in-segment delta batches across all segments.
    pub fn num_shifts(&self) -> usize {
        self.segments.iter().map(|s| s.shifts.len()).sum()
    }
}

/// One marker-delimited interval of a compiled trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSegment {
    /// The label of the marker that opened this segment (`None` for the
    /// unlabeled head segment).
    pub label: Option<String>,
    /// Segment duration in seconds (always positive).
    pub duration_s: f64,
    /// The exact TM active when the segment starts.
    pub initial: PairTraffic,
    /// In-segment delta batches at segment-relative times in
    /// `(0, duration_s)`, one per trace event that changed a rate, in
    /// firing order.
    pub shifts: ShiftRun,
}

/// A segment's delta batches in firing order, stored struct-of-arrays:
/// the [`DeltaBatch`] records (read through `Deref<Target = [DeltaBatch]>`
/// — `iter()`, `len()`, indexing) beside one flat store holding every
/// `Rates` payload back to back, which the batches name ranges of. A
/// million single-pair batches are two vectors, not a million and one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShiftRun {
    batches: Vec<DeltaBatch>,
    updates: Vec<(VmId, VmId, f64)>,
}

impl std::ops::Deref for ShiftRun {
    type Target = [DeltaBatch];

    fn deref(&self) -> &[DeltaBatch] {
        &self.batches
    }
}

impl ShiftRun {
    /// The canonical `(u, v, new_rate)` updates a
    /// [`TrafficDelta::Rates`] of this run names.
    ///
    /// # Panics
    ///
    /// Panics on a range taken from another run that does not fit this
    /// one's store.
    pub fn updates(&self, range: UpdateRange) -> &[(VmId, VmId, f64)] {
        &self.updates[range.start as usize..][..range.len as usize]
    }

    /// Applies one of this run's batches to `tm` in place — how a
    /// consumer without a cluster around the TM replays a segment.
    pub fn apply_to(&self, delta: TrafficDelta, tm: &mut PairTraffic) {
        match delta {
            TrafficDelta::Rates(range) => tm.apply_updates(self.updates(range)),
            TrafficDelta::ScaleAll(factor) => tm.scale_all(factor),
        }
    }

    /// Sizes both stores, once, for the segment whose first in-segment
    /// event heads `events`: every event before the next marker is at
    /// most one batch, and every pair re-rate among them one update.
    /// (The marker closes the segment — it fires later than the segment
    /// started, or the events before it would not be in-segment.) Exact
    /// when none of them turns out a no-op; a vector grown by doubling
    /// instead ends up to twice the size and copies itself on the way.
    fn reserve_until_marker(&mut self, events: &[TimedEvent]) {
        let segment = events
            .iter()
            .take_while(|e| !matches!(e.event, TraceEvent::Marker { .. }));
        let (mut batches, mut updates) = (0, 0);
        for ev in segment {
            batches += 1;
            updates += usize::from(matches!(
                ev.event,
                TraceEvent::SetRate { .. } | TraceEvent::ScalePair { .. }
            ));
        }
        self.batches.reserve_exact(batches);
        self.updates.reserve_exact(updates);
    }

    /// Appends the batch of one compiled event.
    fn push(&mut self, at_s: f64, change: Change) {
        let delta = match change {
            Change::Rate(u, v, rate) => {
                let start = u32::try_from(self.updates.len())
                    .expect("a segment holds fewer than 2^32 rate updates");
                self.updates.push((u, v, rate));
                TrafficDelta::Rates(UpdateRange { start, len: 1 })
            }
            Change::ScaleAll(factor) => TrafficDelta::ScaleAll(factor),
        };
        self.batches.push(DeltaBatch { at_s, delta });
    }

    /// Drops the batches firing at or after `horizon_s` (they never fire
    /// in-run), and their updates with them. Batches are in firing order,
    /// so this cuts a tail off both vectors.
    fn truncate_at(&mut self, horizon_s: f64) {
        let keep = self.batches.partition_point(|b| b.at_s < horizon_s);
        let first_cut = self.batches[keep..].iter().find_map(|b| match b.delta {
            TrafficDelta::Rates(range) => Some(range.start as usize),
            TrafficDelta::ScaleAll(_) => None,
        });
        if let Some(start) = first_cut {
            self.updates.truncate(start);
        }
        self.batches.truncate(keep);
    }
}

/// One traffic change firing at a single instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaBatch {
    /// Firing time relative to the segment start.
    pub at_s: f64,
    /// What changes.
    pub delta: TrafficDelta,
}

/// The two forms a compiled traffic change takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficDelta {
    /// Canonical `(u, v, new_rate)` absolute updates (a rate of `0`
    /// removes the pair), held in the owning run's flat store:
    /// [`ShiftRun::updates`] hands the slice back.
    Rates(UpdateRange),
    /// Every live pair's rate is multiplied by this factor (positive and
    /// finite), saturating at `f64::MAX`.
    ScaleAll(f64),
}

/// Which consecutive entries of its [`ShiftRun`]'s update store a
/// [`TrafficDelta::Rates`] batch owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateRange {
    start: u32,
    len: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_trace() -> TraceBuilder {
        Trace::builder(4, 100.0)
            .base_pair(0, 1, 10.0)
            .base_pair(2, 3, 20.0)
    }

    /// The updates of `seg`'s `i`-th batch, which must be a `Rates` one.
    fn rates_of(seg: &TraceSegment, i: usize) -> &[(VmId, VmId, f64)] {
        match seg.shifts[i].delta {
            TrafficDelta::Rates(range) => seg.shifts.updates(range),
            TrafficDelta::ScaleAll(f) => panic!("batch {i} is ScaleAll({f})"),
        }
    }

    fn rate(u: u32, v: u32, rate: f64) -> (VmId, VmId, f64) {
        (VmId::new(u), VmId::new(v), rate)
    }

    #[test]
    fn builder_sorts_and_validates() {
        let t = base_trace()
            .scale_all(60.0, 2.0)
            .set_rate(30.0, 0, 2, 5.0)
            .build()
            .unwrap();
        assert_eq!(t.num_events(), 2);
        assert!(t.events()[0].time_s < t.events()[1].time_s);
        assert_eq!(t.base_traffic().total_rate(), 30.0);
    }

    #[test]
    fn invalid_traces_are_rejected() {
        assert!(matches!(
            Trace::builder(4, 0.0).build(),
            Err(TraceError::BadDuration(_))
        ));
        assert!(matches!(
            Trace::builder(4, 10.0).base_pair(0, 0, 1.0).build(),
            Err(TraceError::BadBasePair(0, 0, _))
        ));
        assert!(matches!(
            base_trace().set_rate(200.0, 0, 1, 1.0).build(),
            Err(TraceError::BadEventTime(_))
        ));
        assert!(matches!(
            base_trace().set_rate(5.0, 0, 9, 1.0).build(),
            Err(TraceError::BadEvent { .. })
        ));
        assert!(matches!(
            base_trace().set_rate(5.0, 0, 1, -1.0).build(),
            Err(TraceError::BadEvent { .. })
        ));
        for bad in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                base_trace().scale_all(5.0, bad).build(),
                Err(TraceError::BadEvent { .. })
            ));
        }
        // Unsorted events reach Trace::new directly.
        let events = vec![
            TimedEvent {
                time_s: 50.0,
                event: TraceEvent::ScaleAll { factor: 2.0 },
            },
            TimedEvent {
                time_s: 10.0,
                event: TraceEvent::ScaleAll { factor: 2.0 },
            },
        ];
        assert!(matches!(
            Trace::new(4, 100.0, vec![], events),
            Err(TraceError::Unsorted { index: 1 })
        ));
    }

    #[test]
    fn compile_single_segment() {
        let t = base_trace()
            .set_rate(25.0, 0, 1, 50.0)
            .scale_pair(75.0, 2, 3, 0.5)
            .build()
            .unwrap();
        let c = t.compile();
        assert_eq!(c.segments.len(), 1);
        let seg = &c.segments[0];
        assert_eq!(seg.duration_s, 100.0);
        assert_eq!(seg.initial, t.base_traffic());
        assert_eq!(seg.shifts.len(), 2);
        assert_eq!(rates_of(seg, 0), [rate(0, 1, 50.0)]);
        assert_eq!(rates_of(seg, 1), [rate(2, 3, 10.0)]);
        assert_eq!(c.num_shifts(), 2);
    }

    #[test]
    fn compile_splits_at_markers_and_folds_boundary_events() {
        // SetRate exactly at the marker time lands in the next segment's
        // initial TM, regardless of list order.
        let t = base_trace()
            .set_rate(40.0, 0, 1, 99.0)
            .marker(40.0, "shift")
            .build()
            .unwrap();
        let c = t.compile();
        assert_eq!(c.segments.len(), 2);
        assert_eq!(c.segments[0].duration_s, 40.0);
        assert!(c.segments[0].shifts.is_empty(), "boundary event folded");
        assert_eq!(c.segments[1].label.as_deref(), Some("shift"));
        assert_eq!(c.segments[1].duration_s, 60.0);
        assert_eq!(c.segments[1].initial.rate(VmId::new(0), VmId::new(1)), 99.0);
    }

    #[test]
    fn compile_marker_at_zero_relabels_without_empty_segment() {
        let t = base_trace().marker(0.0, "head").build().unwrap();
        let c = t.compile();
        assert_eq!(c.segments.len(), 1);
        assert_eq!(c.segments[0].label.as_deref(), Some("head"));
    }

    #[test]
    fn piecewise_phases_compile_to_their_own_tms() {
        let tm = |pairs: &[(u32, u32, f64)]| {
            let mut b = PairTrafficBuilder::new(4);
            for &(u, v, r) in pairs {
                b.add(VmId::new(u), VmId::new(v), r);
            }
            b.build()
        };
        // (0,1) re-rated, (2,3) dropped, (1,2) new; then (0,1) kept as is.
        let phases = [
            (30.0, tm(&[(0, 1, 10.0), (2, 3, 5.0)])),
            (20.0, tm(&[(0, 1, 20.0), (1, 2, 4.0)])),
            (50.0, tm(&[(0, 1, 20.0)])),
        ];
        let trace = Trace::piecewise(&phases).unwrap();
        assert_eq!(trace.end_s(), 100.0);
        assert_eq!(trace.num_markers(), 2);
        assert_eq!(trace.num_events(), 2 + 3 + 1, "unchanged pairs are skipped");
        let compiled = trace.compile();
        assert_eq!(compiled.segments.len(), 3);
        for (seg, (duration_s, tm)) in compiled.segments.iter().zip(&phases) {
            assert_eq!(seg.duration_s, *duration_s);
            assert_eq!(&seg.initial, tm);
            assert!(seg.shifts.is_empty());
        }
        assert_eq!(compiled.segments[2].label.as_deref(), Some("phase-2"));
        // Horizons are differences of boundary times: exact above, within
        // rounding for durations a running sum cannot carry exactly.
        let uneven = [(0.1, phases[0].1.clone()), (0.2, phases[1].1.clone())];
        let compiled = Trace::piecewise(&uneven).unwrap().compile();
        assert_eq!(compiled.segments[0].duration_s, 0.1);
        assert!((compiled.segments[1].duration_s - 0.2).abs() <= 1e-15);

        assert_eq!(Trace::piecewise(&[]), Err(TraceError::BadDuration(0.0)));
        let other = PairTrafficBuilder::new(5).build();
        assert!(matches!(
            Trace::piecewise(&[phases[0].clone(), (10.0, other)]),
            Err(TraceError::BadEvent { .. })
        ));
        assert!(Trace::piecewise(&[(-1.0, phases[0].1.clone())]).is_err());
    }

    #[test]
    fn compile_drops_noop_events() {
        let t = base_trace()
            .scale_all(10.0, 1.0) // identity
            .set_rate(20.0, 0, 1, 10.0) // already the rate
            .scale_pair(30.0, 0, 2, 3.0) // pair does not communicate
            .build()
            .unwrap();
        assert_eq!(t.compile().num_shifts(), 0);
    }

    #[test]
    fn scale_all_stays_one_batch_and_matches_the_expanded_reference() {
        let t = base_trace()
            .scale_all(50.0, 2.0)
            .set_rate(60.0, 0, 2, 7.0)
            .scale_all(70.0, 0.3)
            .scale_pair(80.0, 2, 3, 5.0)
            .marker(90.0, "tail")
            .scale_all(95.0, 1.7)
            .build()
            .unwrap();
        let c = t.compile();
        // One batch per event — a scale names its factor, never a pair.
        let head = &c.segments[0];
        assert_eq!(head.shifts.len(), 4);
        assert_eq!(head.shifts[0].delta, TrafficDelta::ScaleAll(2.0));
        assert_eq!(rates_of(head, 1), [rate(0, 2, 7.0)]);
        assert_eq!(head.shifts[2].delta, TrafficDelta::ScaleAll(0.3));
        assert_eq!(rates_of(head, 3).len(), 1);
        assert_eq!(c.segments[1].shifts[0].delta, TrafficDelta::ScaleAll(1.7));

        // The reference: every scale expanded to one re-rate per pair.
        let mut reference: std::collections::BTreeMap<(u32, u32), f64> =
            t.base().iter().map(|&(u, v, r)| ((u, v), r)).collect();
        let mut check = |seg: &TraceSegment, events: &[TimedEvent]| {
            let mut tm = seg.initial.clone();
            let mut shifts = seg.shifts.iter();
            for ev in events {
                match ev.event {
                    TraceEvent::ScaleAll { factor } => {
                        reference
                            .values_mut()
                            .for_each(|r| *r = scaled_rate(*r, factor));
                    }
                    TraceEvent::ScalePair { u, v, factor } => {
                        let r = reference.get_mut(&(u, v)).unwrap();
                        *r = scaled_rate(*r, factor);
                    }
                    TraceEvent::SetRate { u, v, rate } => {
                        reference.insert((u, v), rate);
                    }
                    _ => continue,
                }
                seg.shifts.apply_to(shifts.next().unwrap().delta, &mut tm);
                assert_eq!(tm.num_pairs(), reference.len());
                for (&(u, v), &want) in &reference {
                    let got = tm.rate(VmId::new(u), VmId::new(v));
                    assert!(
                        (got - want).abs() <= 1e-12 * want,
                        "({u}, {v}): {got} vs {want}"
                    );
                }
            }
        };
        check(&c.segments[0], &t.events()[..4]);
        check(&c.segments[1], &t.events()[5..]);
    }

    #[test]
    fn set_rate_zero_removes_pair_from_next_snapshot() {
        let t = base_trace()
            .set_rate(10.0, 0, 1, 0.0)
            .marker(20.0, "after")
            .build()
            .unwrap();
        let c = t.compile();
        assert_eq!(c.segments[1].initial.num_pairs(), 1);
        assert_eq!(c.segments[1].initial.total_rate(), 20.0);
    }

    #[test]
    fn composed_rate_overflow_saturates() {
        // Each value is individually finite and passes validation, but
        // the composed rate overflows — compile must saturate instead
        // of emitting an unapplicable infinite update.
        let t = Trace::builder(2, 10.0)
            .base_pair(0, 1, 1e300)
            .scale_all(2.0, 1e10)
            .scale_pair(4.0, 0, 1, 1e10)
            .build()
            .unwrap();
        let c = t.compile();
        let mut tm = c.segments[0].initial.clone();
        assert_eq!(c.segments[0].shifts[0].delta, TrafficDelta::ScaleAll(1e10));
        c.segments[0]
            .shifts
            .apply_to(c.segments[0].shifts[0].delta, &mut tm);
        assert_eq!(tm.rate(VmId::new(0), VmId::new(1)), f64::MAX);
        // Saturated-to-MAX rates are a fixpoint: the second scale is a
        // no-op, not a fresh overflow.
        assert_eq!(c.num_shifts(), 1);
    }

    #[test]
    fn churn_events_validate_against_running_population() {
        // Place 4 (next id), rate it up, remove 1, then remove 4 again.
        let t = base_trace()
            .place_vm(10.0, 4, 7)
            .set_rate(20.0, 0, 4, 5.0)
            .remove_vm(30.0, 1)
            .set_rate(35.0, 0, 4, 0.0)
            .remove_vm(40.0, 4)
            .build()
            .unwrap();
        assert!(t.has_churn());
        assert!(!base_trace().build().unwrap().has_churn());

        // PlaceVm must use the next dense id …
        assert!(matches!(
            base_trace().place_vm(10.0, 9, 0).build(),
            Err(TraceError::BadEvent { .. })
        ));
        // … removing a dead or unknown VM is rejected …
        assert!(matches!(
            base_trace().remove_vm(10.0, 1).remove_vm(20.0, 1).build(),
            Err(TraceError::BadEvent { .. })
        ));
        assert!(matches!(
            base_trace().remove_vm(10.0, 99).build(),
            Err(TraceError::BadEvent { .. })
        ));
        // … and rating a departed VM is rejected.
        assert!(matches!(
            base_trace()
                .remove_vm(10.0, 1)
                .set_rate(20.0, 0, 1, 5.0)
                .build(),
            Err(TraceError::BadEvent { .. })
        ));
        // A placed VM becomes a legal endpoint only after its arrival.
        assert!(matches!(
            base_trace()
                .set_rate(5.0, 0, 4, 1.0)
                .place_vm(10.0, 4, 0)
                .build(),
            Err(TraceError::BadEvent { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "churn traces")]
    fn compile_rejects_churn_traces() {
        let t = base_trace().place_vm(10.0, 4, 0).build().unwrap();
        let _ = t.compile();
    }

    #[test]
    fn churn_trace_jsonl_round_trip() {
        let t = base_trace()
            .place_vm(10.0, 4, 3)
            .set_rate(20.0, 1, 4, 2.5)
            .set_rate(30.0, 1, 4, 0.0)
            .remove_vm(30.0, 4)
            .build()
            .unwrap();
        let jsonl = t.to_jsonl();
        let back = Trace::from_jsonl(&jsonl).unwrap();
        assert_eq!(back, t);
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn fault_events_validate_and_round_trip() {
        let t = base_trace()
            .host_crash(10.0, 3)
            .link_degrade(20.0, 1, 0.25)
            .rack_fail(30.0, 2)
            .link_restore(40.0, 1)
            .build()
            .unwrap();
        assert!(t.has_faults());
        assert!(!t.has_churn());
        assert!(!base_trace().build().unwrap().has_faults());
        let jsonl = t.to_jsonl();
        assert_eq!(Trace::from_jsonl(&jsonl).unwrap(), t);
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);

        // Degrade factors outside (0, 1] are rejected.
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                base_trace().link_degrade(5.0, 0, bad).build(),
                Err(TraceError::BadEvent { .. })
            ));
        }
    }

    #[test]
    #[should_panic(expected = "fault traces")]
    fn compile_rejects_fault_traces() {
        let t = base_trace().host_crash(10.0, 0).build().unwrap();
        let _ = t.compile();
    }

    #[test]
    fn scale_pair_on_dead_endpoint_is_validated_noop() {
        // ScalePair naming a removed or out-of-range VM validates as a
        // no-op (the pair has no rate left to scale) …
        let t = base_trace()
            .remove_vm(10.0, 1)
            .scale_pair(20.0, 0, 1, 2.0)
            .scale_pair(25.0, 0, 99, 2.0)
            .build()
            .unwrap();
        assert_eq!(t.num_events(), 3);
        // … while SetRate on the same endpoints still errors (it would
        // silently resurrect the pair).
        assert!(matches!(
            base_trace()
                .remove_vm(10.0, 1)
                .set_rate(20.0, 0, 1, 5.0)
                .build(),
            Err(TraceError::BadEvent { .. })
        ));
        // The factor is still checked even on a dead pair.
        assert!(matches!(
            base_trace()
                .remove_vm(10.0, 1)
                .scale_pair(20.0, 0, 1, -1.0)
                .build(),
            Err(TraceError::BadEvent { .. })
        ));
    }

    #[test]
    fn serde_round_trip() {
        let t = base_trace()
            .set_rate(10.0, 0, 2, 5.0)
            .marker(50.0, "phase-2")
            .scale_all(60.0, 3.0)
            .build()
            .unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        back.validate().unwrap();
    }
}
