//! `score_obs` — observability primitives for the S-CORE reproduction.
//!
//! The simulation pipeline is deterministic by contract: a [`crate::ObsHandle`]
//! may be attached to a `Session`, `TokenRing`, `CostLedger` or the `scored`
//! daemon, and the attached run must produce byte-identical results to a bare
//! run. The crate enforces the shape of that contract:
//!
//! - **Instruments are write-only side channels.** Counters, gauges,
//!   histograms ([`Counter`], [`Gauge`], [`Histogram`]) and the decision
//!   [`Journal`] absorb observations; nothing in the simulation ever reads
//!   them back to make a decision.
//! - **Wall-clock reads live here, not in simulation state.** Instrumented
//!   code asks the handle for a [`Stopwatch`]; when observability is
//!   disabled the stopwatch is inert and `Instant::now()` is never called.
//!   The simulation crates read no clock of their own (CI checks it), so
//!   a report holds simulated state only and is byte-stable across runs.
//! - **Disabled means free.** [`ObsHandle::disabled`] is an `Option::None`
//!   inside — every instrumentation site is one branch on a cold `None`.
//!
//! Attached layers pre-resolve their series (`handle.counter(..)` once at
//! attach time, lock-free `Arc` updates afterwards), so the hot-path cost of
//! an enabled handle is a few relaxed atomic adds.

#![warn(missing_docs)]

pub mod journal;
pub mod metrics;
pub mod registry;

pub use journal::{DecisionTrace, Journal, JournalEntry, ObsEvent};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricsSnapshot, Registry};

use std::sync::Arc;
use std::time::Instant;

/// The shared observability state behind an enabled [`ObsHandle`]:
/// a metric [`Registry`] plus a bounded decision [`Journal`].
#[derive(Debug)]
pub struct Obs {
    registry: Registry,
    journal: Journal,
}

impl Obs {
    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The decision journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }
}

/// Default bound on retained journal entries.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// Cloneable, zero-cost-when-disabled attachment point for instrumentation.
///
/// A handle is either *disabled* (the default — every operation is a no-op
/// branch) or *enabled*, in which case all clones share one [`Obs`]. Clones
/// may carry extra labels ([`ObsHandle::with_label`]) that are appended to
/// every series resolved through them, which is how the daemon gives each
/// tenant its own series without separate registries.
#[derive(Debug, Clone, Default)]
pub struct ObsHandle {
    inner: Option<Arc<Obs>>,
    labels: String,
}

impl ObsHandle {
    /// An enabled handle with a fresh registry and a journal bounded at
    /// [`DEFAULT_JOURNAL_CAPACITY`].
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(Obs {
                registry: Registry::new(),
                journal: Journal::new(DEFAULT_JOURNAL_CAPACITY),
            })),
            labels: String::new(),
        }
    }

    /// A disabled handle: every operation is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// True when observations are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The shared state, when enabled.
    pub fn obs(&self) -> Option<&Obs> {
        self.inner.as_deref()
    }

    /// A clone of this handle with `key="value"` appended to the label set
    /// applied to every series resolved through it. No-op when disabled.
    pub fn with_label(&self, key: &str, value: &str) -> Self {
        if self.inner.is_none() {
            return Self::default();
        }
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        let mut labels = self.labels.clone();
        if !labels.is_empty() {
            labels.push(',');
        }
        labels.push_str(&format!("{key}=\"{escaped}\""));
        Self {
            inner: self.inner.clone(),
            labels,
        }
    }

    /// Format `name` with this handle's labels merged in. A `name` that
    /// already carries inline labels keeps them, handle labels first.
    pub fn series(&self, name: &str) -> String {
        if self.labels.is_empty() {
            return name.to_string();
        }
        match name.find('{') {
            Some(open) if name.ends_with('}') => {
                let (family, rest) = name.split_at(open);
                let inline = &rest[1..rest.len() - 1];
                format!("{family}{{{},{inline}}}", self.labels)
            }
            _ => format!("{name}{{{}}}", self.labels),
        }
    }

    /// Resolve (get-or-create) a counter; `None` when disabled.
    pub fn counter(&self, name: &str) -> Option<Arc<Counter>> {
        self.inner
            .as_ref()
            .map(|o| o.registry.counter(&self.series(name)))
    }

    /// Resolve (get-or-create) a gauge; `None` when disabled.
    pub fn gauge(&self, name: &str) -> Option<Arc<Gauge>> {
        self.inner
            .as_ref()
            .map(|o| o.registry.gauge(&self.series(name)))
    }

    /// Resolve (get-or-create) a histogram; `None` when disabled.
    pub fn histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        self.inner
            .as_ref()
            .map(|o| o.registry.histogram(&self.series(name)))
    }

    /// The shared journal; `None` when disabled.
    pub fn journal(&self) -> Option<&Journal> {
        self.inner.as_ref().map(|o| o.journal())
    }

    /// Append `event` to the journal, if enabled.
    #[inline]
    pub fn journal_push(&self, event: ObsEvent) {
        if let Some(o) = &self.inner {
            o.journal.push(event);
        }
    }

    /// Start a stopwatch. Reads the wall clock only when enabled — this is
    /// the single doorway through which instrumented code may observe time.
    #[inline]
    pub fn stopwatch(&self) -> Stopwatch {
        Stopwatch {
            start: self.inner.as_ref().map(|_| Instant::now()),
        }
    }

    /// Snapshot the registry as JSON; `None` when disabled.
    pub fn snapshot_json(&self) -> Option<String> {
        self.inner.as_ref().map(|o| o.registry.snapshot().to_json())
    }

    /// Render the registry in Prometheus text format; `None` when disabled.
    pub fn prometheus(&self) -> Option<String> {
        self.inner
            .as_ref()
            .map(|o| o.registry.snapshot().to_prometheus())
    }
}

/// A wall-clock stopwatch handed out by [`ObsHandle::stopwatch`]. Inert
/// (never touches the clock) when the handle is disabled; the `Default`
/// stopwatch is inert too.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stopwatch {
    start: Option<Instant>,
}

impl Stopwatch {
    /// Nanoseconds since the stopwatch started; `None` when inert.
    #[inline]
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.start.map(|s| s.elapsed().as_nanos() as u64)
    }

    /// Record the elapsed time into `hist` (no-op when inert or `hist` is
    /// `None`).
    #[inline]
    pub fn observe(&self, hist: &Option<Arc<Histogram>>) {
        if let (Some(ns), Some(h)) = (self.elapsed_ns(), hist.as_ref()) {
            h.record(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let h = ObsHandle::disabled();
        assert!(!h.is_enabled());
        assert!(h.counter("c").is_none());
        assert!(h.snapshot_json().is_none());
        assert!(h.stopwatch().elapsed_ns().is_none());
        h.journal_push(ObsEvent::Note("dropped".into()));
        assert!(h.with_label("tenant", "t").counter("c").is_none());
    }

    #[test]
    fn clones_share_state() {
        let h = ObsHandle::new();
        let c = h.counter("hits_total").unwrap();
        c.inc();
        let h2 = h.clone();
        h2.counter("hits_total").unwrap().add(2);
        assert_eq!(c.get(), 3);
        h2.journal_push(ObsEvent::Note("x".into()));
        assert_eq!(h.journal().unwrap().len(), 1);
    }

    #[test]
    fn labels_compose_and_merge_inline() {
        let h = ObsHandle::new().with_label("tenant", "edge");
        assert_eq!(h.series("a_total"), "a_total{tenant=\"edge\"}");
        assert_eq!(
            h.series("a_total{verb=\"place\"}"),
            "a_total{tenant=\"edge\",verb=\"place\"}"
        );
        let h2 = h.with_label("zone", "z\"1");
        assert_eq!(h2.series("g"), "g{tenant=\"edge\",zone=\"z\\\"1\"}");
    }

    #[test]
    fn stopwatch_records_into_histogram() {
        let h = ObsHandle::new();
        let hist = h.histogram("lat_ns");
        let sw = h.stopwatch();
        sw.observe(&hist);
        let snap = hist.unwrap().snapshot();
        assert_eq!(snap.count, 1);
    }
}
