//! Addressing primitives.
//!
//! Hosts get flat 32-bit addresses (think IPv4 without subnetting — the
//! testbed in the paper is a single bridged LAN). Sockets are
//! `(host, port)` pairs. Nodes are engine-level entities addressed by
//! [`NodeId`]; a node usually owns exactly one [`HostAddr`], but
//! infrastructure nodes (switch, access point, shaper) own none that
//! traffic is addressed to.

use std::fmt;

/// Engine-level node identifier (index into the world's node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index form for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interface number local to a node (0, 1, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IfaceId(pub u8);

/// Host ("IP") address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostAddr(pub u32);

impl HostAddr {
    /// Link-local broadcast — the proxy's schedule messages go here.
    pub const BROADCAST: HostAddr = HostAddr(u32::MAX);

    /// True for the broadcast address.
    #[inline]
    pub fn is_broadcast(self) -> bool {
        self == HostAddr::BROADCAST
    }
}

impl fmt::Display for HostAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_broadcast() {
            write!(f, "*")
        } else {
            write!(f, "h{}", self.0)
        }
    }
}

/// A transport endpoint: host + port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SockAddr {
    /// The host.
    pub host: HostAddr,
    /// The port.
    pub port: u16,
}

impl SockAddr {
    /// Construct a socket address.
    #[inline]
    pub const fn new(host: HostAddr, port: u16) -> SockAddr {
        SockAddr { host, port }
    }
}

impl fmt::Display for SockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.host, self.port)
    }
}

/// Well-known ports used by the system.
pub mod ports {
    /// UDP port the proxy broadcasts schedule messages on (clients listen).
    pub const SCHEDULE: u16 = 7001;
    /// RealServer-style streaming media port.
    pub const MEDIA: u16 = 554;
    /// HTTP.
    pub const HTTP: u16 = 80;
    /// UDP port clients send stream feedback (receiver reports) to.
    pub const FEEDBACK: u16 = 7002;
    /// UDP port the coordinator tier exchanges per-cell aggregate demand
    /// reports and airtime-budget grants on (proxy shard ↔ coordinator).
    pub const COORD: u16 = 7003;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_detection() {
        assert!(HostAddr::BROADCAST.is_broadcast());
        assert!(!HostAddr(3).is_broadcast());
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", HostAddr(5)), "h5");
        assert_eq!(format!("{}", HostAddr::BROADCAST), "*");
        assert_eq!(format!("{}", SockAddr::new(HostAddr(2), 80)), "h2:80");
    }

    #[test]
    fn sockaddr_equality_and_ordering() {
        let a = SockAddr::new(HostAddr(1), 10);
        let b = SockAddr::new(HostAddr(1), 11);
        assert!(a < b);
        assert_eq!(a, SockAddr::new(HostAddr(1), 10));
    }
}
