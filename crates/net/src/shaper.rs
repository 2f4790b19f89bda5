//! A DummyNet-style pipe.
//!
//! §4.3 of the paper validates the drop methodology with DummyNet,
//! "configuring a 4Mb/s network with a 2ms round-trip time and 5% drop
//! rate". [`Pipe`] reproduces that element: a two-interface node that
//! forwards in both directions through a rate limiter, a fixed one-way
//! delay, and an i.i.d. Bernoulli dropper.

use std::any::Any;
use std::collections::VecDeque;

use powerburst_sim::{SimDuration, SimTime};
use rand::Rng;

use crate::addr::IfaceId;
use crate::node::{Ctx, Node, TimerToken};
use crate::packet::Packet;

/// The pipe node, idle when built with `Pipe::default()`. Interface 0
/// and 1 are the two ends; traffic entering one leaves the other.
#[derive(Default)]
pub struct Pipe {
    busy_until: [SimTime; 2],
    /// Packets in flight, per input direction. The direction is the
    /// delivery timer's token; each direction's deliveries are
    /// non-decreasing and equal times fire in arming order, so a firing
    /// timer always delivers the front packet.
    pending: [VecDeque<Packet>; 2],
    /// Packets randomly dropped.
    pub random_drops: u64,
    /// Packets dropped by backlog overflow.
    pub overflow_drops: u64,
    /// Packets forwarded.
    pub forwarded: u64,
}

impl Pipe {
    /// Line rate in bits per second, applied per direction (§4.3: 4 Mb/s).
    const BANDWIDTH_BPS: f64 = 4_000_000.0;
    /// One-way propagation delay, half the paper's 2 ms RTT.
    const DELAY: SimDuration = SimDuration::from_ms(1);
    /// Packet drop probability, applied per packet (§4.3: 5 %).
    const DROP_PROB: f64 = 0.05;
    /// Maximum tolerated backlog per direction before tail drops.
    const MAX_BACKLOG: SimDuration = SimDuration::from_ms(500);
}

impl Node for Pipe {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        let dir = (iface.0 as usize).min(1);
        if ctx.rng().random::<f64>() < Pipe::DROP_PROB {
            self.random_drops += 1;
            return;
        }
        let now = ctx.now();
        let start = now.max(self.busy_until[dir]);
        if start.since(now) > Pipe::MAX_BACKLOG {
            self.overflow_drops += 1;
            return;
        }
        let tx = SimDuration::from_secs_f64(pkt.wire_size() as f64 * 8.0 / Pipe::BANDWIDTH_BPS);
        let ready = start + tx;
        self.busy_until[dir] = ready;
        let deliver_in = ready.since(now) + Pipe::DELAY;
        self.pending[dir].push_back(pkt);
        self.forwarded += 1;
        ctx.set_timer(deliver_in, dir as TimerToken);
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
