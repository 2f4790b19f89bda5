//! Plain packet forwarding: a static router table and an Ethernet switch.
//!
//! The paper's testbed hangs the multimedia server, the web server, and the
//! proxy off 100 Mbps Fast Ethernet. [`Switch`] models that segment as a
//! store-and-forward element with a static host→port table (no MAC
//! learning needed: the topology never changes mid-run).

use std::any::Any;

use crate::addr::{HostAddr, IfaceId};
use crate::node::{Ctx, Node};
use crate::packet::Packet;

/// A static destination-host → interface routing table.
///
/// Host addresses are small dense integers (the world hands them out
/// sequentially), so the table is a direct-indexed vector: resolving a
/// route on the per-packet forwarding path is one bounds-checked load, no
/// hashing.
#[derive(Debug, Clone, Default)]
pub struct StaticRouter {
    routes: Vec<Option<IfaceId>>,
    default_iface: Option<IfaceId>,
}

impl StaticRouter {
    /// Empty table with no default.
    pub fn new() -> StaticRouter {
        StaticRouter::default()
    }

    /// Route `host` out `iface`.
    pub fn add_route(&mut self, host: HostAddr, iface: IfaceId) -> &mut Self {
        let idx = host.0 as usize;
        if idx >= self.routes.len() {
            self.routes.resize(idx + 1, None);
        }
        self.routes[idx] = Some(iface);
        self
    }

    /// Fallback interface for unknown destinations.
    pub fn set_default(&mut self, iface: IfaceId) -> &mut Self {
        self.default_iface = Some(iface);
        self
    }

    /// Resolve the output interface for a destination.
    pub fn route(&self, host: HostAddr) -> Option<IfaceId> {
        self.routes.get(host.0 as usize).copied().flatten().or(self.default_iface)
    }
}

/// A store-and-forward switch node.
pub struct Switch {
    router: StaticRouter,
}

impl Switch {
    /// New switch with the given table.
    pub fn new(router: StaticRouter) -> Switch {
        Switch { router }
    }
}

impl Node for Switch {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        // A frame with no route, or one that would hairpin back out its
        // ingress port, is dropped silently, as a real switch would.
        if let Some(out) = self.router.route(pkt.dst.host).filter(|&out| out != iface) {
            ctx.send(out, pkt);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_resolve_with_default() {
        let mut r = StaticRouter::new();
        r.add_route(HostAddr(1), IfaceId(0)).set_default(IfaceId(9));
        assert_eq!(r.route(HostAddr(1)), Some(IfaceId(0)));
        assert_eq!(r.route(HostAddr(99)), Some(IfaceId(9)));
    }

    #[test]
    fn no_default_means_none() {
        let r = StaticRouter::new();
        assert_eq!(r.route(HostAddr(1)), None);
    }

    #[test]
    fn later_route_overrides() {
        let mut r = StaticRouter::new();
        r.add_route(HostAddr(1), IfaceId(0));
        r.add_route(HostAddr(1), IfaceId(2));
        assert_eq!(r.route(HostAddr(1)), Some(IfaceId(2)));
    }
}
