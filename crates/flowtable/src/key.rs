//! Flow identification.
//!
//! A flow is identified by the classic 5-tuple. The dom0 flow table of the
//! paper (§V-B1) is keyed this way by polling Open vSwitch datapath
//! statistics; IP addresses double as VM identifiers in the Xen deployment
//! (§V-B2).

use std::fmt;
use std::net::Ipv4Addr;

/// Transport protocol of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Transmission Control Protocol.
    Tcp,
    /// User Datagram Protocol.
    Udp,
    /// Anything else (ICMP, tunnels, …) with its IP protocol number.
    Other(u8),
}

impl Protocol {
    /// The IP protocol number.
    pub fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Other(n) => n,
        }
    }
}

impl From<u8> for Protocol {
    fn from(n: u8) -> Self {
        match n {
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Tcp => write!(f, "tcp"),
            Protocol::Udp => write!(f, "udp"),
            Protocol::Other(n) => write!(f, "proto{n}"),
        }
    }
}

/// 5-tuple flow key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source IP address.
    pub src_ip: Ipv4Addr,
    /// Destination IP address.
    pub dst_ip: Ipv4Addr,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: Protocol,
}

impl FlowKey {
    /// Creates a TCP flow key — the common case in the experiments.
    pub fn tcp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> Self {
        FlowKey {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto: Protocol::Tcp,
        }
    }

    /// True if `ip` is either endpoint.
    pub fn involves(&self, ip: Ipv4Addr) -> bool {
        self.src_ip == ip || self.dst_ip == ip
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} ({})",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.proto
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            5000,
            Ipv4Addr::new(10, 0, 1, 2),
            80,
        )
    }

    #[test]
    fn involvement_and_peers() {
        let k = key();
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 1, 2);
        let c = Ipv4Addr::new(10, 0, 2, 3);
        assert!(k.involves(a));
        assert!(k.involves(b));
        assert!(!k.involves(c));
    }

    #[test]
    fn protocol_numbers_roundtrip() {
        assert_eq!(Protocol::from(6), Protocol::Tcp);
        assert_eq!(Protocol::from(17), Protocol::Udp);
        assert_eq!(Protocol::from(1), Protocol::Other(1));
        assert_eq!(Protocol::Tcp.number(), 6);
        assert_eq!(Protocol::Udp.number(), 17);
        assert_eq!(Protocol::Other(47).number(), 47);
    }

    #[test]
    fn display_formats() {
        let k = key();
        assert_eq!(k.to_string(), "10.0.0.1:5000 -> 10.0.1.2:80 (tcp)");
        assert_eq!(Protocol::Other(47).to_string(), "proto47");
        assert_eq!(Protocol::Udp.to_string(), "udp");
    }
}
