//! Population churn: VMs arriving at and departing from a running
//! session, live, without a full Eq.-(2) pass.

use score_core::ClusterError;
use score_topology::{ServerId, VmId};

use super::Session;
use crate::events::SimEvent;
use crate::spec::ScenarioError;

impl Session {
    /// Places a newly arriving VM on `server` (or the deterministic
    /// [`score_core::Cluster::choose_server`] pick when `None`) **live**, without
    /// resetting the clock, ring, or accumulators: the newcomer gets the
    /// next dense id, joins the token ring, and starts with zero traffic
    /// — so `C_A` is untouched and the incremental ledger stays exact
    /// with no repricing at all. If the ring was empty (every prior VM
    /// departed), the token chain is revived: a fresh `TokenArrive`
    /// fires one hold+pass from now. Recorded as a
    /// [`score_trace::TraceEvent::PlaceVm`] when recording is on.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Cluster`] when the explicit target
    /// rejects the VM or no server has capacity; the session is
    /// unchanged on error.
    pub fn place_vm(
        &mut self,
        server: Option<ServerId>,
    ) -> Result<(VmId, ServerId), ScenarioError> {
        let (vm, host) = self.cluster.place_vm(server)?;
        self.traffic.push_vm();
        self.ring.add_vm(vm);
        if !self.token_event_pending && !self.finished {
            self.queue.schedule_in(
                self.scenario.timing.token_hold_s + self.scenario.timing.token_pass_s,
                SimEvent::TokenArrive,
            );
            self.token_event_pending = true;
        }
        self.recording.log(self.queue.now_s(), |rec, at_s| {
            rec.record_place(at_s, vm.get(), host.get());
        });
        Ok((vm, host))
    }

    /// Removes a live VM **in place**: its surviving pair rates are
    /// zeroed through the ordinary sparse delta path (one
    /// [`Session::apply_traffic_deltas`] call per pair, so the recorded
    /// `SetRate` stream replays with the same number of apply calls and
    /// the cost ledger re-prices exactly `O(degree)` pairs — no full pass),
    /// its server resources are released, the id is tombstoned (ids stay
    /// dense and stable), and it leaves the token ring — if it held the
    /// token, the pending pass simply finds the successor. Recorded as a
    /// [`score_trace::TraceEvent::RemoveVm`] when recording is on.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Cluster`] for an out-of-range or
    /// already-removed id; the session is unchanged on error.
    pub fn remove_vm(&mut self, vm: VmId) -> Result<(), ScenarioError> {
        if !self.cluster.is_active(vm) {
            return Err(ClusterError::UnknownVm { vm }.into());
        }
        let peers: Vec<VmId> = self.traffic.peers(vm).map(|(p, _)| p).collect();
        for peer in peers {
            self.apply_traffic_deltas(&[(vm, peer, 0.0)])?;
        }
        self.cluster.remove_vm(vm)?;
        self.ring.remove_vm(vm);
        self.recording.log(self.queue.now_s(), |rec, at_s| {
            rec.record_remove(at_s, vm.get())
        });
        Ok(())
    }
}
