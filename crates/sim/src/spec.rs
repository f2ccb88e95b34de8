//! The declarative experiment API: a [`Scenario`] is a fully
//! serde-round-trippable description of one S-CORE experiment — fabric,
//! workload, resources, token policy, decision engine, forecasting and
//! timing — with nothing materialized yet. The initial placement is the
//! paper's traffic-agnostic random one, drawn from the workload seed.
//!
//! `Scenario` is the single entry point for every experiment binary,
//! example, bench and test in this repository: declare the scenario
//! (by builder, preset, or JSON), then [`Scenario::session`] it into a
//! running [`crate::Session`]. Because the spec is plain data, a sweep
//! over policies × topologies × intensities is a loop over values, and
//! any run can be reproduced from its serialized spec alone.

use score_core::{ClusterError, ScoreConfig, ServerSpec, TokenPolicy, VmSpec};
use score_topology::{
    CanonicalTreeBuilder, FatTreeBuilder, LinkCapacities, LinkWeights, StarTopology, Topology,
};
use score_trace::{ChurnShape, DiurnalShape, FlashCrowdShape, Trace};
use score_traffic::{CbrLoad, PairTraffic, TrafficIntensity, WorkloadConfig};
use score_xen::PreCopyConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

use crate::session::Session;

/// Which family of DC fabric a scenario runs on (CSV columns, file
/// names, figure selection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologyKind {
    /// Canonical layered tree (paper Fig. 1a).
    CanonicalTree,
    /// k-ary fat-tree (paper Fig. 1b).
    FatTree,
    /// Single-switch star (degenerate baseline fabric).
    Star,
}

impl TopologyKind {
    /// Lowercase name for CSV columns and file names.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::CanonicalTree => "canonical-tree",
            TopologyKind::FatTree => "fat-tree",
            TopologyKind::Star => "star",
        }
    }
}

/// Errors materializing a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The topology dimensions are invalid (zero counts, odd `k`, …).
    Topology(String),
    /// The resource spec is unusable, or the VMs do not fit the servers.
    Placement(String),
    /// The workload description is unusable (out-of-range VM ids,
    /// self-pairs, non-positive rates in an explicit pair list).
    Workload(String),
    /// The timing parameters are unusable (non-finite, non-positive
    /// horizon/interval, negative delays).
    Timing(String),
    /// The engine parameters are unusable (non-finite decision costs).
    Engine(String),
    /// Building the cluster failed (capacity violated by the placement).
    Cluster(ClusterError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Topology(msg) => write!(f, "invalid topology spec: {msg}"),
            ScenarioError::Workload(msg) => write!(f, "invalid workload spec: {msg}"),
            ScenarioError::Placement(msg) => write!(f, "invalid placement: {msg}"),
            ScenarioError::Timing(msg) => write!(f, "invalid timing spec: {msg}"),
            ScenarioError::Engine(msg) => write!(f, "invalid engine spec: {msg}"),
            ScenarioError::Cluster(e) => write!(f, "cluster construction failed: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ClusterError> for ScenarioError {
    fn from(e: ClusterError) -> Self {
        ScenarioError::Cluster(e)
    }
}

/// Declarative fabric description.
///
/// Every variant can carry per-tier [`LinkCapacities`] overrides
/// (`None` = the family's defaults: 1 GbE edge with 10 GbE uplinks on
/// the canonical tree, uniform 1 GbE on fat-tree and star) — this is
/// what lets capacity sweeps like the oversubscription experiment run
/// through `ScenarioMatrix` instead of hand-rolled topology loops.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// Canonical layered tree (paper Fig. 1a).
    CanonicalTree {
        /// Number of racks.
        racks: u32,
        /// Hosts per rack.
        hosts_per_rack: u32,
        /// Racks per aggregation switch.
        racks_per_agg: u32,
        /// Core switches.
        cores: u32,
        /// Per-tier link-capacity overrides (`None` = family default).
        capacities: Option<LinkCapacities>,
    },
    /// k-ary fat-tree (paper Fig. 1b).
    FatTree {
        /// Fat-tree arity (must be even and positive).
        k: u32,
        /// Per-tier link-capacity overrides (`None` = uniform 1 GbE).
        capacities: Option<LinkCapacities>,
    },
    /// Single-switch star.
    Star {
        /// Number of hosts on the switch.
        hosts: u32,
        /// Capacity overrides; only `host_bps` applies (`None` = 1 GbE).
        capacities: Option<LinkCapacities>,
    },
}

impl TopologySpec {
    /// The fabric family.
    pub fn kind(&self) -> TopologyKind {
        match self {
            TopologySpec::CanonicalTree { .. } => TopologyKind::CanonicalTree,
            TopologySpec::FatTree { .. } => TopologyKind::FatTree,
            TopologySpec::Star { .. } => TopologyKind::Star,
        }
    }

    /// Lowercase fabric name.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Canonical tree with derived aggregation grouping: racks per
    /// aggregation switch is the largest divisor of `racks` no bigger
    /// than a quarter of them (so the spec always materializes), with
    /// 2 cores. The one shared derivation for builder and CLI defaults.
    pub fn canonical(racks: u32, hosts_per_rack: u32) -> Self {
        let target = (racks / 4).max(1);
        let racks_per_agg = (1..=target)
            .rev()
            .find(|d| racks.is_multiple_of(*d))
            .unwrap_or(1);
        TopologySpec::CanonicalTree {
            racks,
            hosts_per_rack,
            racks_per_agg,
            cores: 2,
            capacities: None,
        }
    }

    /// Scaled-down canonical tree (32 racks × 5 hosts) preserving the
    /// paper's structure at CI-friendly size.
    pub fn small_canonical() -> Self {
        TopologySpec::CanonicalTree {
            racks: 32,
            hosts_per_rack: 5,
            racks_per_agg: 8,
            cores: 2,
            capacities: None,
        }
    }

    /// The paper's full-scale canonical tree: 128 racks × 20 hosts
    /// (2560 servers).
    pub fn paper_canonical() -> Self {
        TopologySpec::CanonicalTree {
            racks: 128,
            hosts_per_rack: 20,
            racks_per_agg: 16,
            cores: 2,
            capacities: None,
        }
    }

    /// Scaled-down fat-tree (k = 8: 128 hosts).
    pub fn small_fattree() -> Self {
        TopologySpec::FatTree {
            k: 8,
            capacities: None,
        }
    }

    /// The paper's full-scale fat-tree: k = 16 (1024 hosts).
    pub fn paper_fattree() -> Self {
        TopologySpec::FatTree {
            k: 16,
            capacities: None,
        }
    }

    /// The capacity overrides carried by the spec, if any.
    fn capacities(&self) -> Option<LinkCapacities> {
        match *self {
            TopologySpec::CanonicalTree { capacities, .. }
            | TopologySpec::FatTree { capacities, .. }
            | TopologySpec::Star { capacities, .. } => capacities,
        }
    }

    /// Returns a copy with per-tier capacity overrides.
    #[must_use]
    pub fn with_capacities(mut self, caps: LinkCapacities) -> Self {
        match &mut self {
            TopologySpec::CanonicalTree { capacities, .. }
            | TopologySpec::FatTree { capacities, .. }
            | TopologySpec::Star { capacities, .. } => *capacities = Some(caps),
        }
        self
    }

    /// Materializes the fabric.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Topology`] when the dimensions or the
    /// capacity overrides are invalid.
    pub fn build(&self) -> Result<Arc<dyn Topology>, ScenarioError> {
        if let Some(caps) = self.capacities() {
            for (name, bps) in [
                ("host_bps", caps.host_bps),
                ("tor_agg_bps", caps.tor_agg_bps),
                ("agg_core_bps", caps.agg_core_bps),
            ] {
                if !bps.is_finite() || bps <= 0.0 {
                    return Err(ScenarioError::Topology(format!(
                        "link capacity {name} must be positive and finite, got {bps}"
                    )));
                }
            }
        }
        match *self {
            TopologySpec::CanonicalTree {
                racks,
                hosts_per_rack,
                racks_per_agg,
                cores,
                capacities,
            } => {
                let mut b = CanonicalTreeBuilder::new();
                b.racks(racks)
                    .hosts_per_rack(hosts_per_rack)
                    .racks_per_agg(racks_per_agg)
                    .cores(cores);
                if let Some(caps) = capacities {
                    b.capacities(caps);
                }
                b.build()
                    .map(|t| Arc::new(t) as Arc<dyn Topology>)
                    .map_err(|e| ScenarioError::Topology(e.to_string()))
            }
            TopologySpec::FatTree { k, capacities } => {
                let mut b = FatTreeBuilder::new();
                b.k(k);
                if let Some(caps) = capacities {
                    b.capacities(caps);
                }
                b.build()
                    .map(|t| Arc::new(t) as Arc<dyn Topology>)
                    .map_err(|e| ScenarioError::Topology(e.to_string()))
            }
            TopologySpec::Star { hosts, capacities } => {
                if hosts == 0 {
                    return Err(ScenarioError::Topology(
                        "star needs at least one host".into(),
                    ));
                }
                let bps = capacities.map_or(1e9, |c| c.host_bps);
                Ok(Arc::new(StarTopology::new(hosts, bps)))
            }
        }
    }
}

/// Declarative workload description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The paper's clustered synthetic workload, sized relative to the
    /// fabric (`vms_per_host × servers` VMs).
    Synthetic {
        /// Workload intensity (sparse / medium / dense TM).
        intensity: TrafficIntensity,
        /// Mean VMs per host (the paper packs up to 16).
        vms_per_host: f64,
        /// RNG seed for workload generation.
        seed: u64,
    },
    /// The same synthetic workload over an explicit VM population,
    /// independent of fabric size.
    FixedVms {
        /// Workload intensity.
        intensity: TrafficIntensity,
        /// VM population.
        num_vms: u32,
        /// RNG seed for workload generation.
        seed: u64,
    },
    /// A fully explicit communication graph: `(u, v, rate)` entries over
    /// VMs `0..num_vms` — replayed traces, hand-crafted patterns, or
    /// matrices imported from measurement. Rates of duplicate pairs
    /// accumulate, exactly as in `PairTrafficBuilder`.
    ExplicitPairs {
        /// VM population (ids in `pairs` must stay below it).
        num_vms: u32,
        /// `(u, v, rate)` entries; `u != v`, rates positive and finite.
        pairs: Vec<(u32, u32, f64)>,
        /// RNG seed for downstream randomness (initial placement, the
        /// random token policy) — the pairs themselves are literal.
        seed: u64,
    },
    /// A **time-varying** workload: a stream of traffic deltas replayed
    /// against the session's event clock (`score_trace`). The session
    /// starts on the trace's initial TM and applies each delta in place
    /// mid-run — O(changed-pairs) ledger re-pricing, no cluster rebuild.
    Trace {
        /// Where the trace comes from (inline literal or a seeded
        /// synthetic generator).
        spec: TraceSpec,
    },
}

/// Source of a [`WorkloadSpec::Trace`] workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceSpec {
    /// A literal, fully explicit trace (e.g. loaded from JSONL).
    Literal {
        /// The trace itself (validated at materialization).
        trace: Trace,
        /// RNG seed for downstream randomness (initial placement, the
        /// random token policy) — the trace events are literal.
        seed: u64,
    },
    /// Diurnal sine drift over a synthetic base workload.
    Diurnal {
        /// VM population of the base workload.
        num_vms: u32,
        /// Base workload intensity.
        intensity: TrafficIntensity,
        /// Seed for base-workload generation and downstream randomness.
        seed: u64,
        /// Envelope shape.
        shape: DiurnalShape,
    },
    /// Flash-crowd spikes onto hot VM sets over a synthetic base.
    FlashCrowd {
        /// VM population of the base workload.
        num_vms: u32,
        /// Base workload intensity.
        intensity: TrafficIntensity,
        /// Seed for base-workload generation, spike placement, and
        /// downstream randomness.
        seed: u64,
        /// Spike shape.
        shape: FlashCrowdShape,
    },
    /// Mice/elephant flow churn (via `score_traffic::FlowSampler`) over
    /// a synthetic base.
    Churn {
        /// VM population of the base workload.
        num_vms: u32,
        /// Base workload intensity.
        intensity: TrafficIntensity,
        /// Seed for base-workload generation, flow sampling, and
        /// downstream randomness.
        seed: u64,
        /// Churn shape.
        shape: ChurnShape,
    },
}

impl TraceSpec {
    /// The spec's RNG seed.
    pub fn seed(&self) -> u64 {
        match *self {
            TraceSpec::Literal { seed, .. }
            | TraceSpec::Diurnal { seed, .. }
            | TraceSpec::FlashCrowd { seed, .. }
            | TraceSpec::Churn { seed, .. } => seed,
        }
    }

    /// The base-workload intensity; `None` for literal traces.
    pub fn intensity(&self) -> Option<TrafficIntensity> {
        match *self {
            TraceSpec::Literal { .. } => None,
            TraceSpec::Diurnal { intensity, .. }
            | TraceSpec::FlashCrowd { intensity, .. }
            | TraceSpec::Churn { intensity, .. } => Some(intensity),
        }
    }

    /// The VM population the trace plays over.
    pub fn num_vms(&self) -> u32 {
        match self {
            TraceSpec::Literal { trace, .. } => trace.num_vms(),
            TraceSpec::Diurnal { num_vms, .. }
            | TraceSpec::FlashCrowd { num_vms, .. }
            | TraceSpec::Churn { num_vms, .. } => *num_vms,
        }
    }

    /// Checks a deserialized spec: the literal trace's own invariants,
    /// or the generator shape's.
    pub(crate) fn validate(&self) -> Result<(), ScenarioError> {
        let shape_err = |e: String| ScenarioError::Workload(format!("invalid trace shape: {e}"));
        match self {
            TraceSpec::Literal { trace, .. } => trace
                .validate()
                .map_err(|e| ScenarioError::Workload(format!("invalid trace: {e}"))),
            TraceSpec::Diurnal { shape, .. } => shape.validate().map_err(shape_err),
            TraceSpec::FlashCrowd { shape, .. } => shape.validate().map_err(shape_err),
            TraceSpec::Churn { shape, .. } => shape.validate().map_err(shape_err),
        }
    }

    /// Materializes the trace: clones the literal or runs the seeded
    /// generator over its synthetic base workload.
    ///
    /// # Panics
    ///
    /// Panics on a spec its generator refuses; [`Scenario::session`]
    /// reports a [`ScenarioError::Workload`] instead.
    pub fn build_trace(&self) -> Trace {
        self.try_build_trace().expect("validated shape generates")
    }

    /// [`TraceSpec::build_trace`] with a generator's refusal as an error:
    /// `TraceSpec::validate` checks a shape's own numbers, but what the
    /// generator derives from them (a flow's throughput over a 1e308 s
    /// window, say) can still leave the range a trace accepts.
    pub(crate) fn try_build_trace(&self) -> Result<Trace, ScenarioError> {
        let base = |num_vms: u32, intensity: TrafficIntensity, seed: u64| {
            WorkloadConfig::new(num_vms, seed)
                .with_intensity(intensity)
                .generate()
        };
        match self {
            TraceSpec::Literal { trace, .. } => Ok(trace.clone()),
            TraceSpec::Diurnal {
                num_vms,
                intensity,
                seed,
                shape,
            } => score_trace::diurnal_trace(&base(*num_vms, *intensity, *seed), shape),
            TraceSpec::FlashCrowd {
                num_vms,
                intensity,
                seed,
                shape,
            } => score_trace::flash_crowd_trace(&base(*num_vms, *intensity, *seed), shape, *seed),
            TraceSpec::Churn {
                num_vms,
                intensity,
                seed,
                shape,
            } => score_trace::churn_trace(&base(*num_vms, *intensity, *seed), shape, *seed),
        }
        .map_err(|e| ScenarioError::Workload(format!("trace generator: {e}")))
    }
}

impl WorkloadSpec {
    /// The workload's RNG seed.
    pub fn seed(&self) -> u64 {
        match self {
            WorkloadSpec::Synthetic { seed, .. }
            | WorkloadSpec::FixedVms { seed, .. }
            | WorkloadSpec::ExplicitPairs { seed, .. } => *seed,
            WorkloadSpec::Trace { spec } => spec.seed(),
        }
    }

    /// The workload intensity; `None` for explicit pair lists and
    /// literal traces, which have no generator to parameterize.
    pub fn intensity(&self) -> Option<TrafficIntensity> {
        match self {
            WorkloadSpec::Synthetic { intensity, .. }
            | WorkloadSpec::FixedVms { intensity, .. } => Some(*intensity),
            WorkloadSpec::ExplicitPairs { .. } => None,
            WorkloadSpec::Trace { spec } => spec.intensity(),
        }
    }

    /// Returns a copy with the given intensity, where the variant has
    /// one to set (explicit pair lists and literal traces are returned
    /// unchanged).
    #[must_use]
    pub fn with_intensity(mut self, new: TrafficIntensity) -> Self {
        match &mut self {
            WorkloadSpec::Synthetic { intensity, .. }
            | WorkloadSpec::FixedVms { intensity, .. } => *intensity = new,
            WorkloadSpec::ExplicitPairs { .. } => {}
            WorkloadSpec::Trace { spec } => match spec {
                TraceSpec::Literal { .. } => {}
                TraceSpec::Diurnal { intensity, .. }
                | TraceSpec::FlashCrowd { intensity, .. }
                | TraceSpec::Churn { intensity, .. } => *intensity = new,
            },
        }
        self
    }

    /// Returns a copy with the given RNG seed.
    #[must_use]
    pub fn with_seed(mut self, new: u64) -> Self {
        match &mut self {
            WorkloadSpec::Synthetic { seed, .. }
            | WorkloadSpec::FixedVms { seed, .. }
            | WorkloadSpec::ExplicitPairs { seed, .. } => *seed = new,
            WorkloadSpec::Trace { spec } => match spec {
                TraceSpec::Literal { seed, .. }
                | TraceSpec::Diurnal { seed, .. }
                | TraceSpec::FlashCrowd { seed, .. }
                | TraceSpec::Churn { seed, .. } => *seed = new,
            },
        }
        self
    }

    /// Number of VMs the workload instantiates on `topo`.
    pub fn num_vms(&self, topo: &dyn Topology) -> u32 {
        match self {
            WorkloadSpec::Synthetic { vms_per_host, .. } => {
                ((topo.num_servers() as f64) * vms_per_host).round() as u32
            }
            WorkloadSpec::FixedVms { num_vms, .. }
            | WorkloadSpec::ExplicitPairs { num_vms, .. } => *num_vms,
            WorkloadSpec::Trace { spec } => spec.num_vms(),
        }
    }

    /// The materialized trace for time-varying workloads; `None` for
    /// static ones. Validate first (an invalid generator shape panics).
    pub fn build_trace(&self) -> Option<Trace> {
        match self {
            WorkloadSpec::Trace { spec } => Some(spec.build_trace()),
            _ => None,
        }
    }

    /// Checks the invariants a deserialized explicit pair list or trace
    /// might violate (the synthetic variants are valid by construction).
    pub(crate) fn validate(&self) -> Result<(), ScenarioError> {
        if let WorkloadSpec::Trace { spec } = self {
            return spec.validate();
        }
        let WorkloadSpec::ExplicitPairs { num_vms, pairs, .. } = self else {
            return Ok(());
        };
        for &(u, v, rate) in pairs {
            if u == v {
                return Err(ScenarioError::Workload(format!(
                    "self-pair ({u}, {v}) is not part of a communication graph"
                )));
            }
            if u >= *num_vms || v >= *num_vms {
                return Err(ScenarioError::Workload(format!(
                    "pair ({u}, {v}) exceeds the population of {num_vms} VMs"
                )));
            }
            if !rate.is_finite() || rate <= 0.0 {
                return Err(ScenarioError::Workload(format!(
                    "pair ({u}, {v}) has non-positive rate {rate}"
                )));
            }
        }
        Ok(())
    }

    /// Generates the pairwise VM traffic for `topo`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid explicit pair list; [`Scenario::session`]
    /// runs `WorkloadSpec::validate` first and reports a
    /// [`ScenarioError::Workload`] instead.
    pub fn generate(&self, topo: &dyn Topology) -> PairTraffic {
        match self {
            WorkloadSpec::Synthetic { .. } | WorkloadSpec::FixedVms { .. } => {
                WorkloadConfig::new(self.num_vms(topo), self.seed())
                    .with_intensity(self.intensity().expect("synthetic workloads have one"))
                    .generate()
            }
            WorkloadSpec::ExplicitPairs { num_vms, pairs, .. } => {
                let mut b = score_traffic::PairTrafficBuilder::new(*num_vms);
                for &(u, v, rate) in pairs {
                    b.add(
                        score_topology::VmId::new(u),
                        score_topology::VmId::new(v),
                        rate,
                    );
                }
                b.build()
            }
            // The *initial* TM; the deltas replay through the session's
            // event clock.
            WorkloadSpec::Trace { spec } => spec.build_trace().base_traffic(),
        }
    }
}

/// Declarative server/VM capacity description: what every server offers
/// and what every VM demands. Carrying it on the [`Scenario`] makes the
/// capacities declarable (and serializable) like every other experiment
/// dimension. Every VM has the one shape `vm`, so a server hosts
/// [`ServerSpec::vm_capacity`] of them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceSpec {
    /// Capacity of each physical server.
    pub server: ServerSpec,
    /// Demand of each VM.
    pub vm: VmSpec,
}

impl ResourceSpec {
    /// The paper's §VI capacities: 16 VM slots on a 1 GbE host, 196 MB
    /// VMs.
    pub fn paper_default() -> Self {
        ResourceSpec {
            server: ServerSpec::paper_default(),
            vm: VmSpec::paper_default(),
        }
    }

    /// Checks the invariants a deserialized spec might violate: a server
    /// with zero slots or a non-finite/non-positive NIC capacity can
    /// never host anything.
    pub(crate) fn validate(&self) -> Result<(), ScenarioError> {
        if self.server.vm_slots == 0 {
            return Err(ScenarioError::Placement(
                "servers with zero VM slots cannot host anything".into(),
            ));
        }
        if !self.server.nic_bps.is_finite() || self.server.nic_bps <= 0.0 {
            return Err(ScenarioError::Placement(format!(
                "server NIC capacity must be positive and finite, got {}",
                self.server.nic_bps
            )));
        }
        Ok(())
    }
}

impl Default for ResourceSpec {
    fn default() -> Self {
        ResourceSpec::paper_default()
    }
}

/// Declarative short-horizon forecasting description: whether (and how)
/// the decision pipeline looks ahead of the current TM.
///
/// The forecaster fills the expected per-peer rates of every token
/// hold's view; see `score_core::outlook`. The compatibility contract is strict:
/// `ForecastSpec::None` — and any variant with a zero horizon — runs
/// the reactive pipeline bit for bit (pinned by the proptests in
/// `crates/sim/tests/forecast_properties.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum ForecastSpec {
    /// No lookahead: decisions read current rates only (the paper
    /// pipeline).
    #[default]
    None,
    /// Online EWMA linear-trend estimation
    /// (`score_traffic::EwmaForecaster`) over the applied traffic
    /// deltas — works on any workload, static ones included (where it
    /// predicts "no change" and changes nothing).
    Ewma {
        /// Trend-smoothing weight in `(0, 1]`.
        alpha: f64,
        /// Lookahead horizon in seconds (0 disables forecasting).
        horizon_s: f64,
    },
    /// Exact lookahead into the compiled trace delta stream
    /// (`score_trace::OracleForecaster`) — requires a
    /// [`WorkloadSpec::Trace`] workload.
    TraceOracle {
        /// Lookahead horizon in seconds (0 disables forecasting).
        horizon_s: f64,
    },
}

impl ForecastSpec {
    /// Lowercase name for CSV columns (`none` / `ewma` / `oracle`).
    pub fn name(&self) -> &'static str {
        match self {
            ForecastSpec::None => "none",
            ForecastSpec::Ewma { .. } => "ewma",
            ForecastSpec::TraceOracle { .. } => "oracle",
        }
    }

    /// The lookahead horizon in seconds (0 for `None`).
    pub fn horizon_s(&self) -> f64 {
        match *self {
            ForecastSpec::None => 0.0,
            ForecastSpec::Ewma { horizon_s, .. } | ForecastSpec::TraceOracle { horizon_s } => {
                horizon_s
            }
        }
    }

    /// True when the spec actually forecasts: a variant other than
    /// `None` *and* a positive horizon. Zero-horizon lookahead and no
    /// lookahead are the same pipeline, by construction.
    pub fn is_active(&self) -> bool {
        self.horizon_s() > 0.0
    }

    /// Checks the invariants a deserialized spec might violate: a
    /// finite non-negative horizon, and `alpha` in `(0, 1]`.
    pub(crate) fn validate(&self) -> Result<(), ScenarioError> {
        let horizon = self.horizon_s();
        if !horizon.is_finite() || horizon < 0.0 {
            return Err(ScenarioError::Engine(format!(
                "forecast horizon must be finite and non-negative, got {horizon}"
            )));
        }
        if let ForecastSpec::Ewma { alpha, .. } = *self {
            if !alpha.is_finite() || alpha <= 0.0 || alpha > 1.0 {
                return Err(ScenarioError::Engine(format!(
                    "forecast alpha must be in (0, 1], got {alpha}"
                )));
            }
        }
        Ok(())
    }
}

/// Token policy selector for configuration files and CSV columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Round-Robin (§V-A1).
    RoundRobin,
    /// Highest-Level-First (§V-A2, Algorithm 1).
    HighestLevelFirst,
    /// Highest-Cost-First (TR-2013-338-inspired extension).
    HighestCostFirst,
    /// Forecast-Cost-First: Highest-Cost-First over the view's
    /// *expected* rates — routes the token to predicted elephants
    /// (identical to `HighestCostFirst` without an active
    /// [`ForecastSpec`]).
    ForecastCostFirst,
    /// Uniform random (ablation).
    Random,
}

/// Spec-style alias for [`PolicyKind`] — the policy member of a
/// [`Scenario`] alongside `TopologySpec`/`WorkloadSpec`/etc.
pub type PolicySpec = PolicyKind;

impl PolicyKind {
    /// Lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::RoundRobin => "rr",
            PolicyKind::HighestLevelFirst => "hlf",
            PolicyKind::HighestCostFirst => "hcf",
            PolicyKind::ForecastCostFirst => "fcf",
            PolicyKind::Random => "random",
        }
    }

    /// Instantiates the policy (runtime selection — the ring holds the
    /// policy behind `dyn TokenPolicy`).
    pub fn build(self, seed: u64) -> Box<dyn TokenPolicy> {
        match self {
            PolicyKind::RoundRobin => Box::new(score_core::RoundRobin::new()),
            PolicyKind::HighestLevelFirst => Box::new(score_core::HighestLevelFirst::new()),
            PolicyKind::HighestCostFirst => Box::new(score_core::HighestCostFirst::paper_default()),
            PolicyKind::ForecastCostFirst => {
                Box::new(score_core::ForecastCostFirst::paper_default())
            }
            PolicyKind::Random => Box::new(score_core::RandomNext::new(seed)),
        }
    }

    /// Both paper policies.
    pub fn paper_policies() -> [PolicyKind; 2] {
        [PolicyKind::HighestLevelFirst, PolicyKind::RoundRobin]
    }

    /// Every implemented policy (paper pair + extensions/ablations).
    pub fn all() -> [PolicyKind; 5] {
        [
            PolicyKind::HighestLevelFirst,
            PolicyKind::RoundRobin,
            PolicyKind::HighestCostFirst,
            PolicyKind::ForecastCostFirst,
            PolicyKind::Random,
        ]
    }
}

/// Declarative decision-engine description: the S-CORE parameters and
/// the cost model's link weights. Migration overheads always follow the
/// testbed-calibrated pre-copy model under idle background load
/// (§VI-C): see [`EngineSpec::precopy`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EngineSpec {
    /// The paper's evaluation defaults (`c_m = 0`, `e^ℓ` link weights).
    Paper,
    /// Fully explicit parameters.
    Custom {
        /// S-CORE decision parameters (`c_m`, bandwidth threshold).
        score: ScoreConfig,
        /// Per-level link weights of the cost model.
        weights: LinkWeights,
    },
}

impl EngineSpec {
    /// An explicit spec initialized to the paper defaults (convenient
    /// starting point for overrides).
    pub fn custom() -> Self {
        EngineSpec::Custom {
            score: ScoreConfig::paper_default(),
            weights: LinkWeights::paper_default(),
        }
    }

    /// The S-CORE decision parameters.
    pub fn score(&self) -> ScoreConfig {
        match self {
            EngineSpec::Paper => ScoreConfig::paper_default(),
            EngineSpec::Custom { score, .. } => *score,
        }
    }

    /// The cost-model link weights.
    pub fn weights(&self) -> LinkWeights {
        match self {
            EngineSpec::Paper => LinkWeights::paper_default(),
            EngineSpec::Custom { weights, .. } => weights.clone(),
        }
    }

    /// The pre-copy migration model parameters: the paper's testbed
    /// calibration, whatever the spec.
    pub fn precopy(&self) -> PreCopyConfig {
        PreCopyConfig::paper_default()
    }

    /// The background load migrations compete with: none, whatever the
    /// spec.
    pub fn background(&self) -> CbrLoad {
        CbrLoad::IDLE
    }

    /// Returns a copy with the given migration cost `c_m` (Theorem 1's
    /// knob), promoting `Paper` to `Custom`.
    pub fn with_migration_cost(self, cm: f64) -> Self {
        EngineSpec::Custom {
            score: self.score().with_migration_cost(cm),
            weights: self.weights(),
        }
    }

    /// Returns a copy with the given cost-model link weights, promoting
    /// `Paper` to `Custom`.
    pub fn with_weights(self, weights: LinkWeights) -> Self {
        EngineSpec::Custom {
            score: self.score(),
            weights,
        }
    }

    /// Checks the invariants a deserialized or flag-built spec might
    /// violate: the decision parameters must be finite (the JSON writer
    /// renders non-finite floats as `null`, which would make an emitted
    /// spec impossible to reload), and none may silently disable S-CORE
    /// — a bandwidth threshold ≤ 0 admits no target, so it would load
    /// and never migrate.
    pub(crate) fn validate(&self) -> Result<(), ScenarioError> {
        let score = self.score();
        if !score.migration_cost.is_finite() {
            return Err(ScenarioError::Engine(format!(
                "migration cost must be finite, got {}",
                score.migration_cost
            )));
        }
        if !score.bandwidth_threshold.is_finite() || score.bandwidth_threshold <= 0.0 {
            return Err(ScenarioError::Engine(format!(
                "bandwidth threshold must be positive and finite, got {}",
                score.bandwidth_threshold
            )));
        }
        Ok(())
    }
}

/// Timing parameters of a simulated run.
///
/// All durations must be finite; the horizon and sampling interval must
/// be positive and the token delays non-negative
/// ([`Scenario::session`] validates this before materializing).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingSpec {
    /// Simulation horizon in seconds (the paper plots 700–800 s).
    pub t_end_s: f64,
    /// Cost sampling interval in seconds.
    pub sample_interval_s: f64,
    /// Time a dom0 holds the token: flow-table aggregation + probes +
    /// decision.
    pub token_hold_s: f64,
    /// Network latency of passing the token to the next dom0.
    pub token_pass_s: f64,
}

impl TimingSpec {
    /// Defaults that let a few thousand token holds fit the paper's
    /// 700 s horizon.
    pub fn paper_default() -> Self {
        TimingSpec {
            t_end_s: 700.0,
            sample_interval_s: 5.0,
            token_hold_s: 0.08,
            token_pass_s: 0.02,
        }
    }

    /// Checks the invariants a deserialized spec might violate: finite
    /// durations, positive horizon and sampling interval, non-negative
    /// token delays. A zero sampling interval would spin the event loop
    /// forever; negative times would panic inside the event queue.
    pub(crate) fn validate(&self) -> Result<(), ScenarioError> {
        let all_finite = self.t_end_s.is_finite()
            && self.sample_interval_s.is_finite()
            && self.token_hold_s.is_finite()
            && self.token_pass_s.is_finite();
        if !all_finite {
            return Err(ScenarioError::Timing("durations must be finite".into()));
        }
        if self.t_end_s <= 0.0 {
            return Err(ScenarioError::Timing(format!(
                "horizon must be positive, got {}",
                self.t_end_s
            )));
        }
        if self.sample_interval_s <= 0.0 {
            return Err(ScenarioError::Timing(format!(
                "sample interval must be positive, got {}",
                self.sample_interval_s
            )));
        }
        if self.token_hold_s < 0.0 || self.token_pass_s < 0.0 {
            return Err(ScenarioError::Timing(format!(
                "token delays must be non-negative, got hold {} / pass {}",
                self.token_hold_s, self.token_pass_s
            )));
        }
        if self.token_hold_s + self.token_pass_s <= 0.0 {
            return Err(ScenarioError::Timing(
                "token hold + pass must be positive or simulated time never advances".into(),
            ));
        }
        Ok(())
    }
}

impl Default for TimingSpec {
    fn default() -> Self {
        TimingSpec::paper_default()
    }
}

/// A complete, serializable experiment description.
///
/// # Example
///
/// ```
/// use score_sim::{PolicyKind, Scenario};
///
/// let scenario = Scenario::builder()
///     .fat_tree(4)
///     .dense_traffic(7)
///     .policy(PolicyKind::HighestLevelFirst)
///     .migration_cost(1e8)
///     .horizon(60.0)
///     .build();
/// // Round-trips through JSON …
/// let json = scenario.to_json();
/// assert_eq!(Scenario::from_json(&json).unwrap(), scenario);
/// // … and materializes into a runnable session.
/// let mut session = scenario.session().unwrap();
/// session.run_to_horizon();
/// assert!(session.report().final_cost <= session.report().initial_cost);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Scenario {
    /// Fabric to simulate.
    pub topology: TopologySpec,
    /// Workload to offer.
    pub workload: WorkloadSpec,
    /// Server capacities and VM demands.
    pub resources: ResourceSpec,
    /// Token-passing policy.
    pub policy: PolicySpec,
    /// Decision engine and migration-overhead model.
    pub engine: EngineSpec,
    /// Short-horizon rate forecasting feeding every decision
    /// (`ForecastSpec::None` = the reactive paper pipeline).
    pub forecast: ForecastSpec,
    /// Simulation timing.
    pub timing: TimingSpec,
    /// Master seed for simulation randomness (migration-model noise, the
    /// random policy). The workload seed, which also draws the initial
    /// placement, lives in the workload spec.
    pub seed: u64,
}

// Hand-written (instead of derived) so that scenario JSON written
// before the forecast layer existed — with no `forecast` key — still
// loads, defaulting to the reactive pipeline. The offline serde shim's
// derive has no `#[serde(default)]`. Keys this type no longer has (an
// older file's `placement`) are ignored.
impl serde::Deserialize for Scenario {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for Scenario"))?;
        let req = |name: &str| serde::field(obj, name);
        Ok(Scenario {
            topology: serde::Deserialize::from_value(req("topology")?)?,
            workload: serde::Deserialize::from_value(req("workload")?)?,
            resources: serde::Deserialize::from_value(req("resources")?)?,
            policy: serde::Deserialize::from_value(req("policy")?)?,
            engine: serde::Deserialize::from_value(req("engine")?)?,
            forecast: match serde::field(obj, "forecast") {
                Ok(v) => serde::Deserialize::from_value(v)?,
                Err(_) => ForecastSpec::None,
            },
            timing: serde::Deserialize::from_value(req("timing")?)?,
            seed: serde::Deserialize::from_value(req("seed")?)?,
        })
    }
}

impl Scenario {
    /// Starts a builder initialized to the CI-scale canonical tree with a
    /// sparse workload under HLF and paper parameters.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// Scaled-down canonical-tree scenario (32 racks × 5 hosts, 2 VMs
    /// per host) preserving the paper's structure at CI-friendly size.
    pub fn small_canonical(intensity: TrafficIntensity, seed: u64) -> Self {
        Scenario::builder()
            .topology(TopologySpec::small_canonical())
            .intensity(intensity)
            .workload_seed(seed)
            .seed(seed)
            .build()
    }

    /// Scaled-down fat-tree scenario (k = 8: 128 hosts).
    pub fn small_fattree(intensity: TrafficIntensity, seed: u64) -> Self {
        Scenario::builder()
            .topology(TopologySpec::small_fattree())
            .intensity(intensity)
            .workload_seed(seed)
            .seed(seed)
            .build()
    }

    /// The paper's full-scale canonical tree (2560 servers).
    pub fn paper_canonical(intensity: TrafficIntensity, seed: u64) -> Self {
        Scenario::builder()
            .topology(TopologySpec::paper_canonical())
            .intensity(intensity)
            .workload_seed(seed)
            .seed(seed)
            .build()
    }

    /// The paper's full-scale fat-tree (k = 16: 1024 hosts).
    pub fn paper_fattree(intensity: TrafficIntensity, seed: u64) -> Self {
        Scenario::builder()
            .topology(TopologySpec::paper_fattree())
            .intensity(intensity)
            .workload_seed(seed)
            .seed(seed)
            .build()
    }

    /// Materializes the scenario into a runnable [`Session`]: builds the
    /// fabric, generates the workload, applies the initial placement and
    /// validates capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] when the topology dimensions are invalid
    /// or the placement violates capacity.
    pub fn session(&self) -> Result<Session, ScenarioError> {
        self.workload.validate()?;
        let topo = self.topology.build()?;
        // Compiled inside the closure: the raw event list is freed before
        // the session is built, not held across it.
        if let WorkloadSpec::Trace { spec } = &self.workload {
            let compiled = spec.try_build_trace()?.compile();
            return Session::materialize_trace(self.clone(), topo, compiled);
        }
        let traffic = self.workload.generate(topo.as_ref());
        Session::materialize(self.clone(), topo, traffic, None)
    }

    /// Materializes with an externally built fabric and workload —
    /// the bring-your-own-topology path (custom `Topology`
    /// implementations, hand-crafted traffic). Placement, policy, engine
    /// and timing still come from the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] when the placement violates capacity.
    pub fn session_with(
        &self,
        topo: Arc<dyn Topology>,
        traffic: PairTraffic,
    ) -> Result<Session, ScenarioError> {
        Session::materialize(self.clone(), topo, traffic, None)
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("scenario serialization is infallible")
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serialization is infallible")
    }

    /// Parses a scenario from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Fluent construction of [`Scenario`]s.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    topology: TopologySpec,
    intensity: TrafficIntensity,
    vms_per_host: f64,
    fixed_vms: Option<u32>,
    explicit_workload: Option<WorkloadSpec>,
    workload_seed: u64,
    resources: ResourceSpec,
    policy: PolicySpec,
    engine: EngineSpec,
    forecast: ForecastSpec,
    timing: TimingSpec,
    seed: u64,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            topology: TopologySpec::small_canonical(),
            intensity: TrafficIntensity::Sparse,
            vms_per_host: 2.0,
            fixed_vms: None,
            explicit_workload: None,
            workload_seed: 42,
            resources: ResourceSpec::paper_default(),
            policy: PolicyKind::HighestLevelFirst,
            engine: EngineSpec::Paper,
            forecast: ForecastSpec::None,
            timing: TimingSpec::paper_default(),
            seed: 42,
        }
    }
}

impl ScenarioBuilder {
    /// Sets the fabric spec.
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        self.topology = spec;
        self
    }

    /// Selects a canonical tree with the given shape (aggregation
    /// grouping derived by [`TopologySpec::canonical`], 2 cores).
    pub fn canonical_tree(self, racks: u32, hosts_per_rack: u32) -> Self {
        self.topology(TopologySpec::canonical(racks, hosts_per_rack))
    }

    /// Selects a k-ary fat-tree.
    pub fn fat_tree(self, k: u32) -> Self {
        self.topology(TopologySpec::FatTree {
            k,
            capacities: None,
        })
    }

    /// Selects a single-switch star.
    pub fn star(self, hosts: u32) -> Self {
        self.topology(TopologySpec::Star {
            hosts,
            capacities: None,
        })
    }

    /// Sets the workload intensity. Order-independent with the other
    /// workload knobs: an already-set wholesale workload is updated in
    /// place (a no-op for explicit pair lists, which have no
    /// intensity).
    pub fn intensity(mut self, intensity: TrafficIntensity) -> Self {
        self.intensity = intensity;
        if let Some(w) = self.explicit_workload.take() {
            self.explicit_workload = Some(w.with_intensity(intensity));
        }
        self
    }

    /// Sparse workload with the given seed.
    pub fn sparse_traffic(self, seed: u64) -> Self {
        self.intensity(TrafficIntensity::Sparse).workload_seed(seed)
    }

    /// Dense workload with the given seed.
    pub fn dense_traffic(self, seed: u64) -> Self {
        self.intensity(TrafficIntensity::Dense).workload_seed(seed)
    }

    /// Sets the mean VMs per host (sizing the synthetic population).
    pub fn vms_per_host(mut self, vms_per_host: f64) -> Self {
        self.vms_per_host = vms_per_host;
        self.fixed_vms = None;
        self.explicit_workload = None;
        self
    }

    /// Fixes the VM population independently of fabric size.
    pub fn num_vms(mut self, num_vms: u32) -> Self {
        self.fixed_vms = Some(num_vms);
        self.explicit_workload = None;
        self
    }

    /// Sets the workload seed. Order-independent with the other
    /// workload knobs: an already-set wholesale workload is re-seeded
    /// in place.
    pub fn workload_seed(mut self, seed: u64) -> Self {
        self.workload_seed = seed;
        if let Some(w) = self.explicit_workload.take() {
            self.explicit_workload = Some(w.with_seed(seed));
        }
        self
    }

    /// Sets the workload spec wholesale — the entry point for
    /// [`WorkloadSpec::ExplicitPairs`] and other non-synthetic
    /// workloads (overrides the intensity/population knobs).
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.explicit_workload = Some(workload);
        self
    }

    /// Sets an explicit `(u, v, rate)` communication graph over
    /// `num_vms` VMs.
    pub fn explicit_pairs(self, num_vms: u32, pairs: Vec<(u32, u32, f64)>) -> Self {
        let seed = self.workload_seed;
        self.workload(WorkloadSpec::ExplicitPairs {
            num_vms,
            pairs,
            seed,
        })
    }

    /// Sets a time-varying trace workload from a [`TraceSpec`].
    pub fn trace(self, spec: TraceSpec) -> Self {
        self.workload(WorkloadSpec::Trace { spec })
    }

    /// Sets a literal time-varying trace workload (the placement seed is
    /// the current workload seed).
    pub fn literal_trace(self, trace: Trace) -> Self {
        let seed = self.workload_seed;
        self.trace(TraceSpec::Literal { trace, seed })
    }

    /// Sets the per-server capacity spec.
    pub fn server_spec(mut self, server: ServerSpec) -> Self {
        self.resources.server = server;
        self
    }

    /// Sets the per-VM demand spec.
    pub fn vm_spec(mut self, vm: VmSpec) -> Self {
        self.resources.vm = vm;
        self
    }

    /// Sets the token policy.
    pub fn policy(mut self, policy: PolicySpec) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the engine spec wholesale.
    pub fn engine(mut self, engine: EngineSpec) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the forecast spec (how far and by what estimator the
    /// decision pipeline looks ahead).
    pub fn forecast(mut self, forecast: ForecastSpec) -> Self {
        self.forecast = forecast;
        self
    }

    /// Sets the migration cost `c_m` (Theorem 1's knob).
    pub fn migration_cost(mut self, cm: f64) -> Self {
        self.engine = self.engine.with_migration_cost(cm);
        self
    }

    /// Sets the timing spec wholesale.
    pub fn timing(mut self, timing: TimingSpec) -> Self {
        self.timing = timing;
        self
    }

    /// Sets the simulation horizon in seconds.
    pub fn horizon(mut self, t_end_s: f64) -> Self {
        self.timing.t_end_s = t_end_s;
        self
    }

    /// Sets the master simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Finalizes the scenario.
    pub fn build(self) -> Scenario {
        let workload = match (self.explicit_workload, self.fixed_vms) {
            (Some(workload), _) => workload,
            (None, Some(num_vms)) => WorkloadSpec::FixedVms {
                intensity: self.intensity,
                num_vms,
                seed: self.workload_seed,
            },
            (None, None) => WorkloadSpec::Synthetic {
                intensity: self.intensity,
                vms_per_host: self.vms_per_host,
                seed: self.workload_seed,
            },
        };
        Scenario {
            topology: self.topology,
            workload,
            resources: self.resources,
            policy: self.policy,
            engine: self.engine,
            forecast: self.forecast,
            timing: self.timing,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_dimensions() {
        let topo = TopologySpec::paper_canonical().build().unwrap();
        assert_eq!(topo.num_servers(), 2560);
        let topo = TopologySpec::paper_fattree().build().unwrap();
        assert_eq!(topo.num_servers(), 1024);
        let topo = TopologySpec::small_canonical().build().unwrap();
        assert_eq!(topo.num_servers(), 160);
    }

    #[test]
    fn builder_example_from_issue_shape() {
        let scenario = Scenario::builder()
            .fat_tree(4)
            .dense_traffic(9)
            .policy(PolicyKind::HighestLevelFirst)
            .migration_cost(2e8)
            .build();
        assert_eq!(
            scenario.topology,
            TopologySpec::FatTree {
                k: 4,
                capacities: None
            }
        );
        assert_eq!(scenario.workload.intensity(), Some(TrafficIntensity::Dense));
        assert_eq!(scenario.workload.seed(), 9);
        assert_eq!(scenario.engine.score().migration_cost, 2e8);
        // Everything else stays at paper defaults.
        assert_eq!(scenario.engine.weights(), LinkWeights::paper_default());
        assert_eq!(scenario.timing, TimingSpec::paper_default());
    }

    #[test]
    fn invalid_topologies_are_errors_not_panics() {
        assert!(matches!(
            TopologySpec::FatTree {
                k: 3,
                capacities: None
            }
            .build(),
            Err(ScenarioError::Topology(_))
        ));
        assert!(matches!(
            TopologySpec::CanonicalTree {
                racks: 0,
                hosts_per_rack: 1,
                racks_per_agg: 1,
                cores: 1,
                capacities: None
            }
            .build(),
            Err(ScenarioError::Topology(_))
        ));
        assert!(matches!(
            TopologySpec::Star {
                hosts: 0,
                capacities: None
            }
            .build(),
            Err(ScenarioError::Topology(_))
        ));
    }

    #[test]
    fn workload_sizes_follow_fabric() {
        let topo = TopologySpec::small_canonical().build().unwrap();
        let spec = WorkloadSpec::Synthetic {
            intensity: TrafficIntensity::Sparse,
            vms_per_host: 2.0,
            seed: 1,
        };
        assert_eq!(spec.num_vms(topo.as_ref()), 320);
        let fixed = WorkloadSpec::FixedVms {
            intensity: TrafficIntensity::Sparse,
            num_vms: 17,
            seed: 1,
        };
        assert_eq!(fixed.num_vms(topo.as_ref()), 17);
        assert_eq!(fixed.generate(topo.as_ref()).num_vms(), 17);
    }

    #[test]
    fn placements_are_deterministic_and_feasible() {
        use rand::SeedableRng;
        // The initial placement is `random_placement` seeded from the
        // workload seed xor a fixed constant: the draw every scenario
        // has always made, so every allocation stays what it was.
        let place = |seed| {
            let scenario = Scenario::builder()
                .star(16)
                .num_vms(64)
                .workload_seed(seed)
                .build();
            scenario.session().unwrap().cluster().allocation().clone()
        };
        let a = place(7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7 ^ 0x9e37_79b9_7f4a_7c15);
        let slots = ResourceSpec::paper_default().server.vm_slots;
        assert_eq!(
            a,
            score_baselines::random_placement(64, 16, slots, &mut rng)
        );
        assert_eq!(a, place(7));
        assert!(score_baselines::respects_slots(&a, slots));
        assert_ne!(a, place(8), "the workload seed draws the placement");
    }

    #[test]
    fn policy_kind_metadata() {
        assert_eq!(PolicyKind::RoundRobin.name(), "rr");
        assert_eq!(PolicyKind::HighestLevelFirst.name(), "hlf");
        assert_eq!(PolicyKind::Random.name(), "random");
        assert_eq!(PolicyKind::ForecastCostFirst.name(), "fcf");
        assert_eq!(PolicyKind::paper_policies().len(), 2);
        assert_eq!(PolicyKind::all().len(), 5);
    }

    #[test]
    fn engine_spec_promotion() {
        let spec = EngineSpec::Paper.with_migration_cost(5e8);
        assert_eq!(spec.score().migration_cost, 5e8);
        assert_eq!(spec.weights(), LinkWeights::paper_default());
        assert_eq!(
            EngineSpec::custom(),
            EngineSpec::Paper.with_migration_cost(0.0)
        );
    }

    #[test]
    fn explicit_pairs_round_trip_and_materialize() {
        let scenario = Scenario::builder()
            .star(4)
            .explicit_pairs(3, vec![(0, 1, 100.0), (1, 2, 50.0), (0, 1, 10.0)])
            .build();
        // Serde round-trip is identity for the new variant.
        let back = Scenario::from_json(&scenario.to_json()).unwrap();
        assert_eq!(back, scenario);
        // The generated traffic is the literal graph (duplicates
        // accumulate, builder semantics).
        let topo = scenario.topology.build().unwrap();
        let traffic = scenario.workload.generate(topo.as_ref());
        assert_eq!(traffic.num_vms(), 3);
        assert_eq!(
            traffic.rate(score_topology::VmId::new(0), score_topology::VmId::new(1)),
            110.0
        );
        assert_eq!(scenario.workload.intensity(), None);
        assert_eq!(scenario.workload.num_vms(topo.as_ref()), 3);
        // And it materializes into a runnable session.
        let mut session = scenario.session().unwrap();
        session.run_to_horizon();
        assert!(session.report().final_cost <= session.report().initial_cost);
    }

    #[test]
    fn workload_knobs_are_order_independent() {
        // Seed set *after* the explicit pair list still lands in the
        // spec (and therefore in the placement RNG).
        let after = Scenario::builder()
            .star(4)
            .explicit_pairs(3, vec![(0, 1, 1.0)])
            .workload_seed(7)
            .build();
        let before = Scenario::builder()
            .star(4)
            .workload_seed(7)
            .explicit_pairs(3, vec![(0, 1, 1.0)])
            .build();
        assert_eq!(after, before);
        assert_eq!(after.workload.seed(), 7);
        // sparse_traffic after a wholesale workload re-seeds it too
        // (intensity is a documented no-op for explicit pairs).
        let reseeded = Scenario::builder()
            .explicit_pairs(3, vec![(0, 1, 1.0)])
            .sparse_traffic(9)
            .build();
        assert_eq!(reseeded.workload.seed(), 9);
        assert_eq!(reseeded.workload.intensity(), None);
        // On synthetic workloads set wholesale, intensity applies in
        // either order.
        let w = WorkloadSpec::FixedVms {
            intensity: TrafficIntensity::Sparse,
            num_vms: 8,
            seed: 1,
        };
        let s = Scenario::builder()
            .workload(w)
            .intensity(TrafficIntensity::Dense)
            .workload_seed(3)
            .build();
        assert_eq!(s.workload.intensity(), Some(TrafficIntensity::Dense));
        assert_eq!(s.workload.seed(), 3);
    }

    #[test]
    fn invalid_explicit_pairs_are_errors_not_panics() {
        for (pairs, what) in [
            (vec![(0u32, 0u32, 1.0f64)], "self-pair"),
            (vec![(0, 9, 1.0)], "out of range"),
            (vec![(0, 1, 0.0)], "zero rate"),
            (vec![(0, 1, f64::NAN)], "NaN rate"),
        ] {
            let scenario = Scenario::builder().star(4).explicit_pairs(3, pairs).build();
            assert!(
                matches!(scenario.session(), Err(ScenarioError::Workload(_))),
                "{what} must be rejected"
            );
        }
    }

    #[test]
    fn resource_spec_reaches_the_cluster() {
        use score_core::{AdmissionError, ClusterError, ServerSpec, VmSpec};
        use score_topology::ServerId;
        // Four slots, but RAM for two of these VMs.
        let server = ServerSpec {
            vm_slots: 4,
            ram_mb: 2048,
            cpu_cores: 4.0,
            nic_bps: 10e9,
        };
        let vm = VmSpec {
            ram_mb: 1024,
            cpu_cores: 1.0,
        };
        let scenario = Scenario::builder()
            .server_spec(server)
            .vm_spec(vm)
            .num_vms(32)
            .build();
        let back = Scenario::from_json(&scenario.to_json()).unwrap();
        assert_eq!(back, scenario);
        let mut session = scenario.session().unwrap();
        assert_eq!(session.cluster().server_spec(), &server);
        // The VM shape reached the cluster: a host takes the two VMs its
        // RAM holds, and refuses the third for RAM.
        let srv0 = ServerId::new(0);
        let refused = loop {
            if let Err(e) = session.place_vm(Some(srv0)) {
                break e;
            }
        };
        assert!(matches!(
            refused,
            ScenarioError::Cluster(ClusterError::PlacementRejected {
                source: AdmissionError::Ram,
                ..
            })
        ));
        let cluster = session.cluster();
        let on = cluster.allocation().vms_on(srv0).iter();
        assert_eq!(on.filter(|&&v| cluster.is_active(v)).count(), 2);
        // The same count sizes the fleet: the initial placement fills
        // every host to its two VMs, and one VM more does not fit.
        let servers = session.topo().num_servers() as u32;
        let full = Scenario::builder()
            .server_spec(server)
            .vm_spec(vm)
            .num_vms(2 * servers);
        let session = full.clone().build().session().unwrap();
        let cluster = session.cluster();
        assert!(matches!(
            cluster.choose_server(),
            Err(ClusterError::NoCapacity)
        ));
        assert!(matches!(
            full.num_vms(2 * servers + 1).build().session(),
            Err(ScenarioError::Placement(_))
        ));
        // The default stays the paper preset.
        assert_eq!(
            Scenario::builder().build().resources,
            ResourceSpec::paper_default()
        );
    }

    #[test]
    fn degenerate_resource_specs_are_errors() {
        use score_core::ServerSpec;
        let mut scenario = Scenario::builder().build();
        scenario.resources.server = ServerSpec {
            vm_slots: 0,
            ..ServerSpec::paper_default()
        };
        assert!(matches!(
            scenario.session(),
            Err(ScenarioError::Placement(_))
        ));
        let mut scenario = Scenario::builder().build();
        scenario.resources.server.nic_bps = f64::NAN;
        assert!(matches!(
            scenario.session(),
            Err(ScenarioError::Placement(_))
        ));
    }

    #[test]
    fn capacities_round_trip_and_reach_the_fabric() {
        let caps = LinkCapacities {
            host_bps: 1e9,
            tor_agg_bps: 2.5e9,
            agg_core_bps: 2.5e9,
        };
        let scenario = Scenario::builder()
            .topology(TopologySpec::small_canonical().with_capacities(caps))
            .build();
        assert_eq!(scenario.topology.capacities(), Some(caps));
        let back = Scenario::from_json(&scenario.to_json()).unwrap();
        assert_eq!(back, scenario);
        // The override reaches the materialized graph: a ToR uplink
        // carries the new capacity.
        let topo = scenario.topology.build().unwrap();
        let has_override = topo
            .graph()
            .links()
            .iter()
            .any(|l| (l.capacity_bps - 2.5e9).abs() < 1.0);
        assert!(has_override, "override must reach the link graph");
        // Star capacity applies to the single host tier.
        let star = TopologySpec::Star {
            hosts: 4,
            capacities: Some(caps),
        }
        .build()
        .unwrap();
        assert!(star.graph().links().iter().all(|l| l.capacity_bps == 1e9));
        // None keeps the family default (oversubscribed canonical tree).
        let default_topo = TopologySpec::small_canonical().build().unwrap();
        assert!(default_topo
            .graph()
            .links()
            .iter()
            .any(|l| l.capacity_bps == 10e9));
    }

    #[test]
    fn invalid_capacities_are_errors() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let spec = TopologySpec::small_canonical().with_capacities(LinkCapacities {
                host_bps: bad,
                tor_agg_bps: 1e9,
                agg_core_bps: 1e9,
            });
            assert!(
                matches!(spec.build(), Err(ScenarioError::Topology(_))),
                "capacity {bad} must be rejected"
            );
        }
    }

    #[test]
    fn trace_specs_round_trip_and_validate() {
        use score_trace::{DiurnalShape, Trace};
        // Synthetic generator spec round-trips inside a Scenario.
        let scenario = Scenario::builder()
            .star(16)
            .trace(TraceSpec::Diurnal {
                num_vms: 24,
                intensity: TrafficIntensity::Medium,
                seed: 5,
                shape: DiurnalShape::default_shape(),
            })
            .build();
        let back = Scenario::from_json(&scenario.to_json()).unwrap();
        assert_eq!(back, scenario);
        assert_eq!(
            scenario.workload.intensity(),
            Some(TrafficIntensity::Medium)
        );
        assert_eq!(scenario.workload.seed(), 5);
        let topo = scenario.topology.build().unwrap();
        assert_eq!(scenario.workload.num_vms(topo.as_ref()), 24);
        // Literal traces round-trip too.
        let trace = Trace::builder(4, 50.0)
            .base_pair(0, 1, 1e6)
            .set_rate(10.0, 0, 1, 2e6)
            .build()
            .unwrap();
        let literal = Scenario::builder().star(4).literal_trace(trace).build();
        let back = Scenario::from_json(&literal.to_json()).unwrap();
        assert_eq!(back, literal);
        assert_eq!(literal.workload.intensity(), None);
        // Invalid generator shapes are Workload errors, not panics.
        let mut bad = scenario;
        bad.workload = WorkloadSpec::Trace {
            spec: TraceSpec::Diurnal {
                num_vms: 24,
                intensity: TrafficIntensity::Sparse,
                seed: 5,
                shape: DiurnalShape {
                    amplitude: 2.0,
                    ..DiurnalShape::default_shape()
                },
            },
        };
        assert!(matches!(bad.session(), Err(ScenarioError::Workload(_))));
        // An invalid literal trace (tampered after construction) too.
        let broken = Trace::new(4, 10.0, vec![(0, 0, 1.0)], vec![]);
        assert!(broken.is_err());
    }

    #[test]
    fn trace_workload_knobs_compose() {
        use score_trace::ChurnShape;
        let spec = WorkloadSpec::Trace {
            spec: TraceSpec::Churn {
                num_vms: 8,
                intensity: TrafficIntensity::Sparse,
                seed: 1,
                shape: ChurnShape::default_shape(),
            },
        };
        let reseeded = spec
            .clone()
            .with_seed(9)
            .with_intensity(TrafficIntensity::Dense);
        assert_eq!(reseeded.seed(), 9);
        assert_eq!(reseeded.intensity(), Some(TrafficIntensity::Dense));
        // Literal traces ignore intensity but take seeds.
        let trace = score_trace::Trace::builder(2, 10.0)
            .base_pair(0, 1, 5.0)
            .build()
            .unwrap();
        let literal = WorkloadSpec::Trace {
            spec: TraceSpec::Literal { trace, seed: 0 },
        };
        let literal = literal.with_seed(4).with_intensity(TrafficIntensity::Dense);
        assert_eq!(literal.seed(), 4);
        assert_eq!(literal.intensity(), None);
    }

    #[test]
    fn churn_specs_a_generator_cannot_serve_are_workload_errors_not_panics() {
        use score_trace::ChurnShape;
        let churn = |window_s: f64, windows: u32| {
            Scenario::builder()
                .star(16)
                .trace(TraceSpec::Churn {
                    num_vms: 24,
                    intensity: TrafficIntensity::Sparse,
                    seed: 5,
                    shape: ChurnShape { window_s, windows },
                })
                .build()
        };
        assert!(churn(20.0, 2).session().is_ok());
        // `window_s × windows` overflows: every field passes on its own,
        // the horizon is infinite. Refused by `validate`.
        let err = churn(1e308, 4).session().map(|_| ()).unwrap_err();
        assert!(matches!(&err, ScenarioError::Workload(why) if why.contains("finite")));
        // A finite horizon whose flows still carry infinite throughput:
        // the shape validates, the generator's own trace does not.
        let err = churn(1e308, 1).session().map(|_| ()).unwrap_err();
        assert!(matches!(&err, ScenarioError::Workload(why) if why.contains("generator")));
    }

    #[test]
    fn topology_kind_names() {
        assert_eq!(TopologyKind::CanonicalTree.name(), "canonical-tree");
        assert_eq!(TopologyKind::FatTree.name(), "fat-tree");
        assert_eq!(TopologyKind::Star.name(), "star");
    }
}
