//! Rack-subnet addressing and location identification (paper §IV, §V-B4).
//!
//! S-CORE's migration condition needs the communication level between the
//! token-holding VM and each of its peers. The paper obtains this *locally*:
//! "assigning servers IP addresses from a subnet associated with each rack"
//! lets a VM (in practice its dom0) map a peer's hypervisor address to a
//! rack, and a "precomputed location cost mapping" turns two addresses into
//! a communication level.
//!
//! [`AddressPlan`] implements that scheme: every rack owns a `/24`-style
//! subnet of a 10.0.0.0/8-like space and every server gets a host address
//! inside its rack subnet. Once an address resolves to a server, the
//! level itself is [`Topology::level`], and [`LevelBuckets`](crate::LevelBuckets)
//! is the precomputed rack/zone → level mapping that scoring reads.

use crate::api::Topology;
use crate::ids::{RackId, ServerId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An IPv4-like 32-bit address used as a dom0/server locator.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Ip4(u32);

impl Ip4 {
    /// Creates an address from its raw 32-bit representation.
    pub const fn new(raw: u32) -> Self {
        Ip4(raw)
    }

    /// Builds an address from dotted-quad octets.
    pub const fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ip4(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Raw 32-bit value.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Dotted-quad octets.
    const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }
}

impl fmt::Display for Ip4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// Error returned by [`AddressPlan`] lookups for foreign addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownAddressError {
    addr: Ip4,
}

impl UnknownAddressError {
    /// The address that could not be resolved.
    pub fn address(&self) -> Ip4 {
        self.addr
    }
}

impl fmt::Display for UnknownAddressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "address {} is not part of the data-center address plan",
            self.addr
        )
    }
}

impl std::error::Error for UnknownAddressError {}

/// Rack-subnet address plan: rack `r` owns the `10.r_hi.r_lo.0/24`-style
/// subnet, server `i` within the rack gets host part `i + 1`.
///
/// # Examples
///
/// ```
/// use score_topology::{AddressPlan, CanonicalTree, ServerId, Topology};
///
/// let topo = CanonicalTree::small();
/// let plan = AddressPlan::new(&topo);
/// let ip = plan.server_ip(ServerId::new(5));
/// assert_eq!(plan.server_of(ip).unwrap(), ServerId::new(5));
/// assert_eq!(plan.rack_of(ip).unwrap(), topo.rack_of(ServerId::new(5)));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AddressPlan {
    /// `rack_base[r]` is the first server id of rack `r` (for host-part
    /// computation).
    rack_base: Vec<u32>,
    /// Dense map server → rack for reverse lookups.
    server_rack: Vec<u32>,
}

impl AddressPlan {
    /// Derives the plan from a topology.
    pub fn new<T: Topology + ?Sized>(topo: &T) -> Self {
        let mut rack_base = Vec::with_capacity(topo.num_racks());
        for r in 0..topo.num_racks() as u32 {
            rack_base.push(topo.servers_in_rack(RackId::new(r)).start);
        }
        let mut server_rack = Vec::with_capacity(topo.num_servers());
        for s in 0..topo.num_servers() as u32 {
            server_rack.push(topo.rack_of(ServerId::new(s)).get());
        }
        AddressPlan {
            rack_base,
            server_rack,
        }
    }

    /// The dom0 address of a server: `10.<rack_hi>.<rack_lo>.<host+1>`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or the rack holds more than 254
    /// servers (the /24 host space).
    pub fn server_ip(&self, s: ServerId) -> Ip4 {
        let rack = self.server_rack[s.index()];
        let host = s.get() - self.rack_base[rack as usize];
        assert!(host < 254, "rack {rack} exceeds the /24 host space");
        Ip4::from_octets(10, (rack >> 8) as u8, rack as u8, (host + 1) as u8)
    }

    /// Resolves an address back to its server.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownAddressError`] if the address does not belong to the
    /// plan.
    pub fn server_of(&self, ip: Ip4) -> Result<ServerId, UnknownAddressError> {
        let [ten, hi, lo, host] = ip.octets();
        let rack = ((hi as u32) << 8) | lo as u32;
        if ten != 10 || host == 0 || rack as usize >= self.rack_base.len() {
            return Err(UnknownAddressError { addr: ip });
        }
        let server = self.rack_base[rack as usize] + (host as u32 - 1);
        if server as usize >= self.server_rack.len() || self.server_rack[server as usize] != rack {
            return Err(UnknownAddressError { addr: ip });
        }
        Ok(ServerId::new(server))
    }

    /// Resolves an address to its rack — the "static topology information"
    /// a VM combines with probing in §IV.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownAddressError`] if the address does not belong to the
    /// plan.
    pub fn rack_of(&self, ip: Ip4) -> Result<RackId, UnknownAddressError> {
        self.server_of(ip)
            .map(|s| RackId::new(self.server_rack[s.index()]))
    }

    /// Number of servers covered by the plan.
    pub fn num_servers(&self) -> usize {
        self.server_rack.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fattree::FatTree;
    use crate::tree::CanonicalTree;

    #[test]
    fn ip_octet_roundtrip() {
        let ip = Ip4::from_octets(10, 1, 2, 3);
        assert_eq!(ip.octets(), [10, 1, 2, 3]);
        assert_eq!(ip.to_string(), "10.1.2.3");
        assert_eq!(Ip4::new(ip.get()), ip);
    }

    #[test]
    fn plan_roundtrip_canonical() {
        let topo = CanonicalTree::small();
        let plan = AddressPlan::new(&topo);
        for s in 0..topo.num_servers() as u32 {
            let sid = ServerId::new(s);
            let ip = plan.server_ip(sid);
            assert_eq!(plan.server_of(ip).unwrap(), sid);
            assert_eq!(plan.rack_of(ip).unwrap(), topo.rack_of(sid));
        }
    }

    #[test]
    fn plan_roundtrip_fattree() {
        let topo = FatTree::small();
        let plan = AddressPlan::new(&topo);
        for s in 0..topo.num_servers() as u32 {
            let sid = ServerId::new(s);
            let ip = plan.server_ip(sid);
            assert_eq!(plan.server_of(ip).unwrap(), sid);
        }
    }

    #[test]
    fn foreign_addresses_rejected() {
        let topo = CanonicalTree::small();
        let plan = AddressPlan::new(&topo);
        // wrong first octet
        assert!(plan.server_of(Ip4::from_octets(192, 168, 0, 1)).is_err());
        // host part zero (network address)
        assert!(plan.server_of(Ip4::from_octets(10, 0, 0, 0)).is_err());
        // rack out of range
        assert!(plan.server_of(Ip4::from_octets(10, 200, 0, 1)).is_err());
        // host beyond rack population
        assert!(plan.server_of(Ip4::from_octets(10, 0, 0, 200)).is_err());
        let err = plan.server_of(Ip4::from_octets(10, 200, 0, 1)).unwrap_err();
        assert_eq!(err.address(), Ip4::from_octets(10, 200, 0, 1));
        assert!(err.to_string().contains("10.200.0.1"));
    }
}
