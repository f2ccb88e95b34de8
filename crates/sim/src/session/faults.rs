//! The adversity engine — fault events re-planned around through the
//! exact ledger paths — and the one dispatch point that replays a raw
//! trace event (traffic, churn or fault) against a live session.

use score_core::ClusterError;
use score_topology::{RackId, ServerId, VmId};
use score_trace::{scaled_rate, TimedEvent, TraceEvent};

use super::Session;
use crate::spec::ScenarioError;

/// What one fault event did to the session (see
/// [`Session::apply_fault`]): which hosts went down, who was evacuated
/// where, and who could not be rehomed. Consequences are deterministic —
/// replaying the same fault against the same state reproduces this
/// outcome exactly, which is why traces record only the fault itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultOutcome {
    /// Servers newly marked down by this event (ascending id for rack
    /// sweeps; empty for link events and already-down hosts).
    pub hosts_failed: Vec<ServerId>,
    /// Forced evacuation migrations `(vm, target)` in the order they
    /// were applied (ascending VM id per failed host).
    pub evacuated: Vec<(VmId, ServerId)>,
    /// VMs retired because no live server could admit them.
    pub unplaceable: Vec<VmId>,
}

impl Session {
    /// Applies one fault event to the running session and re-plans
    /// around it — the adversity engine's entry point:
    ///
    /// * `HostCrash` marks the server down and **evacuates** its live
    ///   VMs in ascending id order: each victim is rehomed on the
    ///   deterministic [`score_core::Cluster::choose_server`] pick (down hosts are
    ///   excluded) and the cost ledger absorbs the move through the
    ///   same Lemma-3 delta path an ordinary migration takes — exact,
    ///   `O(degree)` per victim, no full pass. Victims no live server
    ///   can admit are retired (pairs zeroed through the sparse path,
    ///   id tombstoned, ring membership dropped via the survivor
    ///   election) and counted as unplaceable.
    /// * `RackFail` is a correlated sweep: every server of the rack
    ///   crashes, in ascending server-id order.
    /// * `LinkDegrade { tier: 0 }` scales the cluster's NIC admission
    ///   capacity by `factor`; higher tiers are tracked for SLO
    ///   accounting only. `LinkRestore` lifts the tier's degradation.
    ///
    /// Only the fault event itself is recorded when trace recording is
    /// on — its consequences are deterministic functions of session
    /// state and are re-derived on replay, which is what keeps an
    /// adversity log byte-stable.
    ///
    /// Live drivers must call this at drained boundaries only
    /// ([`Session::drain_to_boundary`]), like every other mutation.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Workload`] for a non-fault event, an
    /// out-of-range rack, or an invalid degradation factor; the session
    /// is unchanged on error.
    pub fn apply_fault(&mut self, event: &TraceEvent) -> Result<FaultOutcome, ScenarioError> {
        if !event.is_fault() {
            return Err(ScenarioError::Workload(format!(
                "apply_fault takes fault events only, got {event:?}"
            )));
        }
        event.check_payload().map_err(ScenarioError::Workload)?;
        let now_s = self.queue.now_s();
        let outcome = match event {
            TraceEvent::HostCrash { server } => self.crash_hosts(&[ServerId::new(*server)])?,
            TraceEvent::RackFail { rack } => {
                if *rack as usize >= self.topo.num_racks() {
                    return Err(ScenarioError::Workload(format!(
                        "rack {rack} out of range ({} racks)",
                        self.topo.num_racks()
                    )));
                }
                let servers: Vec<ServerId> = self
                    .topo
                    .servers_in_rack(RackId::new(*rack))
                    .map(ServerId::new)
                    .collect();
                self.crash_hosts(&servers)?
            }
            TraceEvent::LinkDegrade { tier, factor } => {
                if *tier == 0 {
                    self.cluster.set_nic_capacity_factor(*factor);
                }
                self.degraded_tiers.insert(*tier, *factor);
                FaultOutcome::default()
            }
            TraceEvent::LinkRestore { tier } => {
                if *tier == 0 {
                    self.cluster.set_nic_capacity_factor(1.0);
                }
                self.degraded_tiers.remove(tier);
                FaultOutcome::default()
            }
            _ => unreachable!("is_fault() admitted a non-fault event"),
        };
        self.seg.recovery.faults_injected += 1;
        self.seg.last_fault_s = Some(now_s);
        if !outcome.evacuated.is_empty() {
            self.seg.last_post_fault_migration_s = Some(now_s);
        }
        self.recording
            .log(now_s, |rec, at_s| rec.record_fault(at_s, event.clone()));
        Ok(outcome)
    }

    /// Crashes `servers` in the given order, evacuating or retiring
    /// every victim (see [`Session::apply_fault`]).
    fn crash_hosts(&mut self, servers: &[ServerId]) -> Result<FaultOutcome, ScenarioError> {
        let now_s = self.queue.now_s();
        let mut outcome = FaultOutcome::default();
        for &server in servers {
            if !self.cluster.host_is_up(server) {
                continue; // out of range / already down: nothing to fail
            }
            let victims = self.cluster.fail_host(server);
            outcome.hosts_failed.push(server);
            for vm in victims {
                match self.cluster.choose_server() {
                    Ok(target) => {
                        // Forced evacuation reprices through the exact
                        // Lemma-3 path an ordinary migration takes; the
                        // bandwidth threshold is waived (liveness over
                        // NIC headroom — the SLO clock records the
                        // degradation instead).
                        let gain = self.model.migration_delta(
                            vm,
                            target,
                            self.cluster.allocation(),
                            &self.traffic,
                            self.cluster.topo(),
                        );
                        self.cluster
                            .migrate(&self.traffic, vm, target, f64::INFINITY)
                            .map_err(|source| ClusterError::PlacementRejected {
                                server: target,
                                source,
                            })?;
                        self.ledger.apply_gain(gain);
                        self.seg.recovery.evacuations += 1;
                        outcome.evacuated.push((vm, target));
                    }
                    Err(_) => {
                        // No live server can admit it: retire in place.
                        // Pairs are zeroed through the sparse repricing
                        // path, bypassing the recorder — the removal is
                        // a fault consequence, re-derived on replay.
                        self.settle_forecast_evals(now_s);
                        self.cluster.remove_vm(vm)?;
                        let changes: Vec<(VmId, VmId, f64, f64)> = self
                            .traffic
                            .peers(vm)
                            .map(|(peer, rate)| (vm.min(peer), vm.max(peer), rate, 0.0))
                            .collect();
                        self.cluster.patch_traffic(&changes);
                        self.ledger.apply_rate_changes(
                            self.cluster.allocation(),
                            &changes,
                            self.cluster.topo(),
                        );
                        let updates: Vec<(VmId, VmId, f64)> =
                            changes.iter().map(|&(u, v, _, new)| (u, v, new)).collect();
                        self.traffic.apply_updates(&updates);
                        if let Some(f) = &mut self.forecaster {
                            f.as_dyn_mut()
                                .observe_updates(&mut updates.iter().copied(), now_s);
                        }
                        self.seg.recovery.unplaceable_vms += 1;
                        outcome.unplaceable.push(vm);
                    }
                }
            }
        }
        if !outcome.unplaceable.is_empty() {
            // Crashed VMs vanish without a departure protocol; the ring
            // elects the deterministic survivor if the holder died.
            self.ring.fail_vms(&outcome.unplaceable);
        }
        Ok(outcome)
    }

    /// Replays one raw trace event against the live session — the
    /// single dispatch point shared by fault-trace replay (fault traces
    /// cannot compile; see [`score_trace::Trace::compile`]) and the
    /// daemon's socket protocol:
    ///
    /// * traffic events take [`Session::apply_traffic_deltas`]
    ///   (`SetRate`, `ScalePair`) or [`Session::apply_traffic_scale`]
    ///   (`ScaleAll`);
    /// * churn events take [`Session::place_vm`] /
    ///   [`Session::remove_vm`] — a `PlaceVm` must name the id the
    ///   arrival will get (the next dense one), which is how every
    ///   replayer learns its stream belongs to another session;
    /// * fault events take [`Session::apply_fault`];
    /// * markers are no-ops (segment semantics belong to the compiled
    ///   path).
    ///
    /// `ScalePair` on a pair with a dead or out-of-range endpoint is a
    /// **validated no-op**: scaling what no longer exists must not
    /// resurrect the pair (`SetRate` on the same pair stays an error —
    /// an absolute re-rate of a dead VM is a driver bug).
    ///
    /// # Errors
    ///
    /// Refuses a payload [`TraceEvent::check_payload`] refuses and
    /// propagates the underlying path's validation errors; the session
    /// is unchanged on error.
    pub fn apply_trace_event(&mut self, event: &TraceEvent) -> Result<(), ScenarioError> {
        event.check_payload().map_err(ScenarioError::Workload)?;
        match event {
            TraceEvent::SetRate { u, v, rate } => {
                self.apply_traffic_deltas(&[(VmId::new(*u), VmId::new(*v), *rate)])?;
            }
            TraceEvent::ScalePair { u, v, factor } => {
                let num_vms = self.traffic.num_vms();
                if *u >= num_vms || *v >= num_vms {
                    return Ok(());
                }
                let (u, v) = (VmId::new(*u), VmId::new(*v));
                if !self.cluster.is_active(u) || !self.cluster.is_active(v) {
                    return Ok(()); // validated no-op: never resurrect
                }
                let old = self.traffic.rate(u, v);
                if old != 0.0 {
                    self.apply_traffic_deltas(&[(u, v, scaled_rate(old, *factor))])?;
                }
            }
            TraceEvent::ScaleAll { factor } => {
                self.apply_traffic_scale(*factor)?;
            }
            TraceEvent::Marker { .. } => {}
            TraceEvent::PlaceVm { vm, server } => {
                // Ids are dense, so the arrival's id is known before it
                // lands: a stream recorded against another population
                // is refused with the session untouched.
                let next = self.traffic.num_vms();
                if *vm != next {
                    return Err(ScenarioError::Workload(format!(
                        "PlaceVm names vm{vm} but the next arrival here is vm{next}; \
                         the stream was recorded against a different session"
                    )));
                }
                self.place_vm(Some(ServerId::new(*server)))?;
            }
            TraceEvent::RemoveVm { vm } => {
                self.remove_vm(VmId::new(*vm))?;
            }
            TraceEvent::HostCrash { .. }
            | TraceEvent::RackFail { .. }
            | TraceEvent::LinkDegrade { .. }
            | TraceEvent::LinkRestore { .. } => {
                self.apply_fault(event)?;
            }
        }
        Ok(())
    }

    /// Link tiers currently degraded, as `(tier, factor)` pairs in
    /// ascending tier order.
    pub fn degraded_tiers(&self) -> Vec<(u32, f64)> {
        self.degraded_tiers.iter().map(|(&t, &f)| (t, f)).collect()
    }

    /// Drives a timed event stream (typically a
    /// [`score_trace::fault_storm_events`] storm, or the events of a
    /// recorded adversity trace) against the live run: the clock
    /// advances through pending ring/sample events up to each entry's
    /// firing time, the boundary is drained, and the entry is applied
    /// via [`Session::apply_trace_event`]. The caller usually follows
    /// with [`Session::run_to_horizon`] to let the survivors
    /// re-converge. Entries must be sorted by `time_s` (storm
    /// generators and recorded traces both are).
    ///
    /// # Errors
    ///
    /// Propagates the first event's validation error; earlier events
    /// stay applied (matching a live driver that dies mid-storm).
    pub fn run_storm(&mut self, events: &[TimedEvent]) -> Result<(), ScenarioError> {
        for ev in events {
            self.advance_to(ev.time_s);
            self.apply_trace_event(&ev.event)?;
        }
        Ok(())
    }
}
