//! VM-to-server allocations (the `A` of the paper).
//!
//! An [`Allocation`] is the function `σ̂_A : V → S` mapping every VM to its
//! hosting server, maintained bidirectionally so both `σ̂_A(u)` and "which
//! VMs does this server host" are O(1)/O(k).

use score_topology::{ServerId, VmId};
use serde::{Deserialize, Serialize};

/// A total assignment of VMs to servers.
///
/// # Examples
///
/// ```
/// use score_core::Allocation;
/// use score_topology::{ServerId, VmId};
///
/// let mut alloc = Allocation::from_fn(4, 2, |vm| ServerId::new(vm.get() % 2));
/// assert_eq!(alloc.server_of(VmId::new(2)), ServerId::new(0));
/// alloc.move_vm(VmId::new(2), ServerId::new(1));
/// assert_eq!(alloc.server_of(VmId::new(2)), ServerId::new(1));
/// assert_eq!(alloc.vms_on(ServerId::new(1)).len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    vm_server: Vec<ServerId>,
    server_vms: Vec<Vec<VmId>>,
}

impl Allocation {
    /// Builds an allocation by evaluating `place` for every VM.
    ///
    /// # Panics
    ///
    /// Panics if `place` returns a server `>= num_servers`.
    pub fn from_fn<F>(num_vms: u32, num_servers: u32, mut place: F) -> Self
    where
        F: FnMut(VmId) -> ServerId,
    {
        let mut vm_server = Vec::with_capacity(num_vms as usize);
        let mut server_vms: Vec<Vec<VmId>> = vec![Vec::new(); num_servers as usize];
        for v in 0..num_vms {
            let vm = VmId::new(v);
            let s = place(vm);
            assert!(
                s.index() < num_servers as usize,
                "placement put {vm} on out-of-range server {s}"
            );
            vm_server.push(s);
            server_vms[s.index()].push(vm);
        }
        Allocation {
            vm_server,
            server_vms,
        }
    }

    /// Builds an allocation from an explicit vector (`vec[vm] = server`).
    ///
    /// # Panics
    ///
    /// Panics if any server is out of range.
    pub fn from_vec(vm_server: Vec<ServerId>, num_servers: u32) -> Self {
        let n = vm_server.len() as u32;
        let mut copy = vm_server;
        let taken = std::mem::take(&mut copy);
        Allocation::from_fn(n, num_servers, |vm| taken[vm.index()])
    }

    /// Number of VMs.
    pub fn num_vms(&self) -> u32 {
        self.vm_server.len() as u32
    }

    /// Number of servers.
    pub fn num_servers(&self) -> u32 {
        self.server_vms.len() as u32
    }

    /// The server hosting `vm` — `σ̂_A(vm)`.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn server_of(&self, vm: VmId) -> ServerId {
        self.vm_server[vm.index()]
    }

    /// VMs hosted by `server`.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn vms_on(&self, server: ServerId) -> &[VmId] {
        &self.server_vms[server.index()]
    }

    /// Number of VMs hosted by `server`.
    pub fn occupancy(&self, server: ServerId) -> usize {
        self.server_vms[server.index()].len()
    }

    /// Moves `vm` to `target` (the migration `u → x̂`). No-op if the VM is
    /// already there.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn move_vm(&mut self, vm: VmId, target: ServerId) {
        assert!(
            target.index() < self.server_vms.len(),
            "server {target} out of range"
        );
        let current = self.vm_server[vm.index()];
        if current == target {
            return;
        }
        let old_list = &mut self.server_vms[current.index()];
        let pos = old_list
            .iter()
            .position(|&v| v == vm)
            .expect("reverse index corrupt");
        old_list.swap_remove(pos);
        self.server_vms[target.index()].push(vm);
        self.vm_server[vm.index()] = target;
    }

    /// Appends a new VM (the next dense id) on `server`, returning its
    /// id — the arrival half of live cluster churn.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn push_vm(&mut self, server: ServerId) -> VmId {
        assert!(
            server.index() < self.server_vms.len(),
            "server {server} out of range"
        );
        let vm = VmId::new(self.vm_server.len() as u32);
        self.vm_server.push(server);
        self.server_vms[server.index()].push(vm);
        vm
    }

    /// The raw VM→server vector.
    pub fn as_slice(&self) -> &[ServerId] {
        &self.vm_server
    }

    /// Iterates over `(vm, server)` pairs in VM order.
    pub fn iter(&self) -> impl Iterator<Item = (VmId, ServerId)> + '_ {
        self.vm_server
            .iter()
            .enumerate()
            .map(|(i, &s)| (VmId::new(i as u32), s))
    }

    /// Verifies the bidirectional index; used in tests and debug
    /// assertions.
    pub fn is_consistent(&self) -> bool {
        let mut seen = 0usize;
        for (s, vms) in self.server_vms.iter().enumerate() {
            for &vm in vms {
                if self.vm_server.get(vm.index()).map(|sid| sid.index()) != Some(s) {
                    return false;
                }
                seen += 1;
            }
        }
        seen == self.vm_server.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> Allocation {
        Allocation::from_fn(6, 3, |vm| ServerId::new(vm.get() / 2))
    }

    #[test]
    fn construction_and_lookup() {
        let a = alloc();
        assert_eq!(a.num_vms(), 6);
        assert_eq!(a.num_servers(), 3);
        assert_eq!(a.server_of(VmId::new(3)), ServerId::new(1));
        assert_eq!(a.vms_on(ServerId::new(1)), &[VmId::new(2), VmId::new(3)]);
        assert_eq!(a.occupancy(ServerId::new(2)), 2);
        assert!(a.is_consistent());
    }

    #[test]
    fn move_vm_updates_both_indexes() {
        let mut a = alloc();
        a.move_vm(VmId::new(0), ServerId::new(2));
        assert_eq!(a.server_of(VmId::new(0)), ServerId::new(2));
        assert_eq!(a.occupancy(ServerId::new(0)), 1);
        assert_eq!(a.occupancy(ServerId::new(2)), 3);
        assert!(a.is_consistent());
    }

    #[test]
    fn move_to_same_server_is_noop() {
        let mut a = alloc();
        let before = a.clone();
        a.move_vm(VmId::new(0), ServerId::new(0));
        assert_eq!(a, before);
    }

    #[test]
    fn from_vec_roundtrip() {
        let servers = vec![ServerId::new(2), ServerId::new(0), ServerId::new(2)];
        let a = Allocation::from_vec(servers.clone(), 3);
        assert_eq!(a.as_slice(), servers.as_slice());
        assert_eq!(a.occupancy(ServerId::new(2)), 2);
    }

    #[test]
    fn iter_pairs() {
        let a = alloc();
        let pairs: Vec<_> = a.iter().collect();
        assert_eq!(pairs.len(), 6);
        assert_eq!(pairs[4], (VmId::new(4), ServerId::new(2)));
    }

    #[test]
    #[should_panic(expected = "out-of-range server")]
    fn out_of_range_placement_panics() {
        let _ = Allocation::from_fn(2, 1, |_| ServerId::new(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn move_to_out_of_range_server_panics() {
        let mut a = alloc();
        a.move_vm(VmId::new(0), ServerId::new(99));
    }

    #[test]
    fn empty_allocation() {
        let a = Allocation::from_fn(0, 4, |_| ServerId::new(0));
        assert_eq!(a.num_vms(), 0);
        assert!(a.is_consistent());
    }
}
