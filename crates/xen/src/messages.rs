//! The dom0 control plane (paper §V-B2, §V-B4, §V-B5).
//!
//! In the Xen deployment, every hypervisor's dom0 runs a token listener on
//! a known port; iptables NAT redirects deliver messages addressed to a
//! hosted VM's IP to dom0 itself, which acts on the VM's behalf. The same
//! mechanism serves *location requests* (resolving a peer VM's IP to its
//! dom0 address) and *capacity requests* (free slots + free RAM).
//!
//! [`ControlPlane`] reproduces that machinery in-process: a routing table
//! from VM addresses to hosts, message-size/latency accounting, and the
//! three request/response exchanges S-CORE uses.

use score_core::resources::CapacityReport;
use score_topology::Ip4;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A control-plane message, as carried over the dom0 listener port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dom0Message {
    /// The migration token (opaque wire bytes, see
    /// [`score_core::Token::encode`]).
    Token(Vec<u8>),
    /// "What is your dom0's address?" sent to a VM address.
    LocationRequest {
        /// Address the response should go to.
        reply_to: Ip4,
    },
    /// The dom0's static address (§V-B4).
    LocationResponse {
        /// The responding hypervisor's address.
        dom0: Ip4,
    },
    /// "How many more VMs can you host?" sent to a dom0 address.
    CapacityRequest {
        /// Address the response should go to.
        reply_to: Ip4,
    },
    /// Free slots and RAM (§V-B5).
    CapacityResponse(CapacityReport),
}

impl Dom0Message {
    /// Wire size of the message in bytes (for overhead accounting).
    fn wire_bytes(&self) -> usize {
        match self {
            Dom0Message::Token(bytes) => bytes.len(),
            Dom0Message::LocationRequest { .. } => 8,
            Dom0Message::LocationResponse { .. } => 8,
            Dom0Message::CapacityRequest { .. } => 8,
            Dom0Message::CapacityResponse(_) => 12,
        }
    }
}

/// Error for messages addressed outside the control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnroutableError {
    addr: Ip4,
}

impl UnroutableError {
    /// The unroutable address.
    pub fn address(&self) -> Ip4 {
        self.addr
    }
}

impl fmt::Display for UnroutableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no NAT route for address {}", self.addr)
    }
}

impl std::error::Error for UnroutableError {}

/// Message-traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageStats {
    /// Token deliveries.
    pub tokens: u64,
    /// Location request/response exchanges.
    pub location_probes: u64,
    /// Capacity request/response exchanges.
    pub capacity_probes: u64,
    /// Total wire bytes moved by the control plane.
    pub bytes: u64,
}

/// One hypervisor visible to the control plane.
#[derive(Debug, Clone)]
struct HostEntry {
    dom0: Ip4,
    capacity: CapacityReport,
}

/// In-process dom0 message router.
#[derive(Debug, Clone, Default)]
pub struct ControlPlane {
    hosts: Vec<HostEntry>,
    dom0_index: HashMap<Ip4, usize>,
    /// The NAT tables: VM address → host index.
    vm_route: HashMap<Ip4, usize>,
    stats: MessageStats,
}

impl ControlPlane {
    /// Creates an empty control plane.
    pub fn new() -> Self {
        ControlPlane::default()
    }

    /// Registers a hypervisor by its dom0 address.
    ///
    /// # Panics
    ///
    /// Panics if the address is already registered.
    pub fn add_host(&mut self, dom0: Ip4, capacity: CapacityReport) -> usize {
        assert!(
            !self.dom0_index.contains_key(&dom0),
            "dom0 {dom0} already registered"
        );
        let idx = self.hosts.len();
        self.hosts.push(HostEntry { dom0, capacity });
        self.dom0_index.insert(dom0, idx);
        idx
    }

    /// Installs the NAT redirect for a VM on the given host.
    ///
    /// # Panics
    ///
    /// Panics if the host index is out of range.
    pub fn place_vm(&mut self, vm: Ip4, host: usize) {
        assert!(host < self.hosts.len(), "host {host} out of range");
        self.vm_route.insert(vm, host);
    }

    /// Routes a message addressed to `vm` through the NAT redirect,
    /// returning the dom0 (host index, address) that receives it.
    ///
    /// # Errors
    ///
    /// Returns [`UnroutableError`] for unknown VM addresses.
    fn route_to_vm(&self, vm: Ip4) -> Result<(usize, Ip4), UnroutableError> {
        self.vm_route
            .get(&vm)
            .map(|&h| (h, self.hosts[h].dom0))
            .ok_or(UnroutableError { addr: vm })
    }

    /// Delivers the token to the dom0 hosting `vm` ("the token can be sent
    /// directly to the IP address of the next VM", §V-B2).
    ///
    /// # Errors
    ///
    /// Returns [`UnroutableError`] for unknown VM addresses.
    pub fn send_token(&mut self, vm: Ip4, token_wire: &[u8]) -> Result<usize, UnroutableError> {
        let (host, _) = self.route_to_vm(vm)?;
        self.stats.tokens += 1;
        self.stats.bytes += token_wire.len() as u64;
        Ok(host)
    }

    /// The §V-B4 location exchange: resolves a peer VM's address to its
    /// hypervisor's dom0 address.
    ///
    /// # Errors
    ///
    /// Returns [`UnroutableError`] for unknown VM addresses.
    pub fn location_probe(&mut self, peer_vm: Ip4) -> Result<Ip4, UnroutableError> {
        let (_, dom0) = self.route_to_vm(peer_vm)?;
        self.stats.location_probes += 1;
        self.stats.bytes += (Dom0Message::LocationRequest { reply_to: dom0 }.wire_bytes()
            + Dom0Message::LocationResponse { dom0 }.wire_bytes())
            as u64;
        Ok(dom0)
    }

    /// The §V-B5 capacity exchange with a hypervisor.
    ///
    /// # Errors
    ///
    /// Returns [`UnroutableError`] if `dom0` is not a registered
    /// hypervisor address.
    pub fn capacity_probe(&mut self, dom0: Ip4) -> Result<CapacityReport, UnroutableError> {
        let &idx = self
            .dom0_index
            .get(&dom0)
            .ok_or(UnroutableError { addr: dom0 })?;
        let report = self.hosts[idx].capacity;
        self.stats.capacity_probes += 1;
        self.stats.bytes += (Dom0Message::CapacityRequest { reply_to: dom0 }.wire_bytes()
            + Dom0Message::CapacityResponse(report).wire_bytes())
            as u64;
        Ok(report)
    }

    /// Control-plane traffic counters so far.
    pub fn stats(&self) -> MessageStats {
        self.stats
    }

    /// Number of registered hypervisors.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Number of routed VMs.
    pub fn num_vms(&self) -> usize {
        self.vm_route.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use score_core::Token;
    use score_topology::VmId;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ip4 {
        Ip4::from_octets(a, b, c, d)
    }

    fn plane() -> ControlPlane {
        let mut cp = ControlPlane::new();
        let h0 = cp.add_host(
            ip(10, 0, 0, 1),
            CapacityReport {
                free_slots: 2,
                free_ram_mb: 512,
            },
        );
        let h1 = cp.add_host(
            ip(10, 0, 1, 1),
            CapacityReport {
                free_slots: 0,
                free_ram_mb: 0,
            },
        );
        cp.place_vm(ip(172, 16, 0, 1), h0);
        cp.place_vm(ip(172, 16, 0, 2), h1);
        cp
    }

    #[test]
    fn nat_routing() {
        let cp = plane();
        let (host, dom0) = cp.route_to_vm(ip(172, 16, 0, 2)).unwrap();
        assert_eq!(host, 1);
        assert_eq!(dom0, ip(10, 0, 1, 1));
        let err = cp.route_to_vm(ip(9, 9, 9, 9)).unwrap_err();
        assert_eq!(err.address(), ip(9, 9, 9, 9));
        assert!(err.to_string().contains("9.9.9.9"));
    }

    #[test]
    fn token_delivery_counts_bytes() {
        let mut cp = plane();
        let token = Token::for_vms((0..10).map(VmId::new));
        let wire = token.encode();
        let host = cp.send_token(ip(172, 16, 0, 1), &wire).unwrap();
        assert_eq!(host, 0);
        let stats = cp.stats();
        assert_eq!(stats.tokens, 1);
        assert_eq!(stats.bytes, 50); // 10 entries x 5 bytes
    }

    #[test]
    fn location_probe_resolves_dom0() {
        let mut cp = plane();
        let dom0 = cp.location_probe(ip(172, 16, 0, 2)).unwrap();
        assert_eq!(dom0, ip(10, 0, 1, 1));
        assert_eq!(cp.stats().location_probes, 1);
        assert!(cp.stats().bytes > 0);
    }

    #[test]
    fn capacity_probe_returns_report() {
        let mut cp = plane();
        let report = cp.capacity_probe(ip(10, 0, 0, 1)).unwrap();
        assert_eq!(report.free_slots, 2);
        assert!(cp.capacity_probe(ip(10, 0, 9, 1)).is_err());
        assert_eq!(cp.stats().capacity_probes, 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_dom0_rejected() {
        let mut cp = plane();
        cp.add_host(
            ip(10, 0, 0, 1),
            CapacityReport {
                free_slots: 1,
                free_ram_mb: 1,
            },
        );
    }

    #[test]
    fn message_wire_sizes() {
        assert_eq!(Dom0Message::Token(vec![0; 25]).wire_bytes(), 25);
        assert_eq!(
            Dom0Message::LocationRequest {
                reply_to: ip(1, 2, 3, 4)
            }
            .wire_bytes(),
            8
        );
        assert_eq!(
            Dom0Message::CapacityResponse(CapacityReport {
                free_slots: 1,
                free_ram_mb: 2
            })
            .wire_bytes(),
            12
        );
    }

    #[test]
    fn counters_accumulate() {
        let mut cp = plane();
        let _ = cp.location_probe(ip(172, 16, 0, 1));
        let _ = cp.location_probe(ip(172, 16, 0, 2));
        let _ = cp.capacity_probe(ip(10, 0, 0, 1));
        assert_eq!(cp.stats().location_probes, 2);
        assert_eq!(cp.stats().capacity_probes, 1);
        assert_eq!(cp.num_hosts(), 2);
        assert_eq!(cp.num_vms(), 2);
    }
}
