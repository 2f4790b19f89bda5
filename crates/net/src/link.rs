//! Wired point-to-point links.
//!
//! The paper's servers, proxy, and access point sit on 100 Mbps Fast
//! Ethernet. Each link direction serializes frames at the configured rate
//! and adds a propagation delay; backlog beyond `max_backlog` is dropped
//! tail-first. The paper's LAN never fills a link, but a city's video
//! server sends every stream down one Fast Ethernet uplink and loses
//! frames there.

use powerburst_sim::{SimDuration, SimTime};

use crate::addr::{IfaceId, NodeId};

/// Static link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Line rate, bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation + switching delay.
    pub delay: SimDuration,
    /// Maximum tolerated transmit backlog per direction.
    pub max_backlog: SimDuration,
}

impl LinkSpec {
    /// 100 Mbps Fast Ethernet with a small switch latency.
    pub const FAST_ETHERNET: LinkSpec = LinkSpec {
        bandwidth_bps: 100_000_000.0,
        delay: SimDuration::from_us(50),
        max_backlog: SimDuration::from_ms(200),
    };

    /// 100 Mbps metro backhaul: the aggregation hop between a city-scale
    /// scenario's central switch and each cell's proxy shard. The 2 ms
    /// one-way delay models the metro aggregation network rather than a
    /// LAN patch cable — and because it is the *minimum cross-shard link
    /// latency*, it is also the parallel core's conservative lookahead
    /// (DESIGN.md §17): epoch windows are 2 ms wide instead of the 50 µs
    /// a Fast Ethernet hop would force, keeping barrier overhead small.
    /// Single-cell (paper-scale) topologies keep `FAST_ETHERNET`
    /// everywhere and are unaffected.
    pub const METRO_BACKHAUL: LinkSpec = LinkSpec {
        bandwidth_bps: 100_000_000.0,
        delay: SimDuration::from_ms(2),
        max_backlog: SimDuration::from_ms(200),
    };
}

/// One endpoint of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endpoint {
    /// The attached node.
    pub node: NodeId,
    /// That node's interface number.
    pub iface: IfaceId,
}

/// Outcome of a wired transmit attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireOutcome {
    /// Frame will arrive at the peer at `arrive`.
    Sent {
        /// Arrival instant at the remote endpoint.
        arrive: SimTime,
    },
    /// Dropped due to backlog overflow.
    Dropped,
}

/// One direction of a wired link: the FIFO transmitter owned by the
/// sending side. A world gives each half to the interface that transmits
/// on it, so the half runs on that node's shard; the two directions share
/// only their [`LinkSpec`]. Where a frame goes is the owner's business.
#[derive(Debug, Clone)]
pub struct HalfLink {
    /// Static parameters (shared with the reverse direction).
    pub spec: LinkSpec,
    busy_until: SimTime,
}

impl HalfLink {
    /// A fresh idle half-link.
    pub fn new(spec: LinkSpec) -> HalfLink {
        HalfLink { spec, busy_until: SimTime::ZERO }
    }

    /// Attempt to send `bytes` at `now`.
    pub fn transmit(&mut self, now: SimTime, bytes: usize) -> WireOutcome {
        let start = now.max(self.busy_until);
        if start.since(now) > self.spec.max_backlog {
            return WireOutcome::Dropped;
        }
        let tx = SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.spec.bandwidth_bps);
        let end = start + tx;
        self.busy_until = end;
        WireOutcome::Sent { arrive: end + self.spec.delay }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmit_adds_serialization_and_delay() {
        let mut h = HalfLink::new(LinkSpec::FAST_ETHERNET);
        // 1250 bytes at 100 Mbps = 100 us; +50 us delay.
        let WireOutcome::Sent { arrive } = h.transmit(SimTime::ZERO, 1250) else { panic!() };
        assert_eq!(arrive.as_us(), 150);
    }

    #[test]
    fn backlog_overflow_drops() {
        let spec = LinkSpec {
            bandwidth_bps: 1_000_000.0, // slow link
            delay: SimDuration::ZERO,
            max_backlog: SimDuration::from_ms(10),
        };
        let mut h = HalfLink::new(spec);
        let dropped =
            (0..100).filter(|_| h.transmit(SimTime::ZERO, 10_000) == WireOutcome::Dropped).count();
        // A 10 000-byte frame takes 80 ms at 1 Mb/s: the first is sent,
        // and every later one would wait past the 10 ms backlog.
        assert_eq!(dropped, 99);
    }

    #[test]
    fn queued_sends_serialize() {
        let mut h = HalfLink::new(LinkSpec::FAST_ETHERNET);
        let WireOutcome::Sent { arrive: a1 } = h.transmit(SimTime::ZERO, 1250) else { panic!() };
        let WireOutcome::Sent { arrive: a2 } = h.transmit(SimTime::ZERO, 1250) else { panic!() };
        assert_eq!((a2 - a1).as_us(), 100);
    }
}
