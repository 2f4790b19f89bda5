//! A DummyNet-style pipe.
//!
//! §4.3 of the paper validates the drop methodology with DummyNet,
//! "configuring a 4Mb/s network with a 2ms round-trip time and 5% drop
//! rate". [`Pipe`] reproduces that element: a two-interface node that
//! forwards in both directions through a rate limiter, a fixed one-way
//! delay, and an i.i.d. Bernoulli dropper.

use std::any::Any;
use std::collections::VecDeque;

use powerburst_sim::SimDuration;
use rand::Rng;

use crate::addr::IfaceId;
use crate::link::{HalfLink, LinkSpec, WireOutcome};
use crate::node::{Ctx, Node, TimerToken};
use crate::packet::Packet;

/// The pipe node. Interface 0 and 1 are the two ends; traffic entering
/// one leaves the other.
pub struct Pipe {
    /// Each direction's transmitter, indexed by input interface.
    wire: [HalfLink; 2],
    /// Packets in flight, per input direction. The direction is the
    /// delivery timer's token; each direction's deliveries are
    /// non-decreasing and equal times fire in arming order, so a firing
    /// timer always delivers the front packet.
    pending: [VecDeque<Packet>; 2],
}

impl Pipe {
    /// Each direction's line (§4.3): 4 Mb/s, a one-way delay of half the
    /// paper's 2 ms RTT, and tail drops beyond 500 ms of backlog.
    const LINK: LinkSpec = LinkSpec {
        bandwidth_bps: 4_000_000.0,
        delay: SimDuration::from_ms(1),
        max_backlog: SimDuration::from_ms(500),
    };
    /// Packet drop probability, applied per packet (§4.3: 5 %).
    const DROP_PROB: f64 = 0.05;
}

impl Default for Pipe {
    /// An idle pipe.
    fn default() -> Pipe {
        Pipe {
            wire: [HalfLink::new(Pipe::LINK), HalfLink::new(Pipe::LINK)],
            pending: Default::default(),
        }
    }
}

impl Node for Pipe {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        let dir = (iface.0 as usize).min(1);
        if ctx.rng().random::<f64>() < Pipe::DROP_PROB {
            return;
        }
        let now = ctx.now();
        if let WireOutcome::Sent { arrive } = self.wire[dir].transmit(now, pkt.wire_size()) {
            self.pending[dir].push_back(pkt);
            ctx.set_timer(arrive.since(now), dir as TimerToken);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let dir = token as usize;
        if let Some(pkt) = self.pending[dir].pop_front() {
            ctx.send(IfaceId(1 - dir as u8), pkt);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
