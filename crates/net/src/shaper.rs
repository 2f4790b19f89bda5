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

/// Pipe configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipeSpec {
    /// Line rate in bits per second (applied per direction).
    pub bandwidth_bps: f64,
    /// One-way propagation delay (half the configured RTT).
    pub delay: SimDuration,
    /// Packet drop probability in `[0, 1]`, applied per packet.
    pub drop_prob: f64,
    /// Maximum tolerated backlog per direction before tail drops.
    pub max_backlog: SimDuration,
}

impl PipeSpec {
    /// The paper's DummyNet validation configuration: 4 Mb/s, 2 ms RTT,
    /// 5 % drop rate.
    pub const PAPER_DUMMYNET: PipeSpec = PipeSpec {
        bandwidth_bps: 4_000_000.0,
        delay: SimDuration::from_ms(1),
        drop_prob: 0.05,
        max_backlog: SimDuration::from_ms(500),
    };

    /// A transparent (infinitely fast, lossless) pipe.
    pub const TRANSPARENT: PipeSpec = PipeSpec {
        bandwidth_bps: f64::INFINITY,
        delay: SimDuration::ZERO,
        drop_prob: 0.0,
        max_backlog: SimDuration::MAX,
    };
}

/// The pipe node. Interface 0 and 1 are the two ends; traffic entering one
/// leaves the other.
pub struct Pipe {
    spec: PipeSpec,
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
    /// New pipe with the given spec.
    pub fn new(spec: PipeSpec) -> Pipe {
        assert!((0.0..=1.0).contains(&spec.drop_prob), "drop_prob out of range");
        Pipe {
            spec,
            busy_until: [SimTime::ZERO; 2],
            pending: [VecDeque::new(), VecDeque::new()],
            random_drops: 0,
            overflow_drops: 0,
            forwarded: 0,
        }
    }
}

impl Node for Pipe {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        let dir = (iface.0 as usize).min(1);
        if self.spec.drop_prob > 0.0 && ctx.rng().random::<f64>() < self.spec.drop_prob {
            self.random_drops += 1;
            return;
        }
        let now = ctx.now();
        let start = now.max(self.busy_until[dir]);
        if start.since(now) > self.spec.max_backlog {
            self.overflow_drops += 1;
            return;
        }
        let tx = if self.spec.bandwidth_bps.is_finite() {
            SimDuration::from_secs_f64(pkt.wire_size() as f64 * 8.0 / self.spec.bandwidth_bps)
        } else {
            SimDuration::ZERO
        };
        let ready = start + tx;
        self.busy_until[dir] = ready;
        let deliver_in = ready.since(now) + self.spec.delay;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_bounds_checked() {
        let bad = PipeSpec { drop_prob: 1.5, ..PipeSpec::TRANSPARENT };
        let r = std::panic::catch_unwind(|| Pipe::new(bad));
        assert!(r.is_err());
    }

    #[test]
    fn paper_spec_values() {
        let s = PipeSpec::PAPER_DUMMYNET;
        assert_eq!(s.bandwidth_bps, 4_000_000.0);
        assert_eq!(s.delay, SimDuration::from_ms(1));
        assert_eq!(s.drop_prob, 0.05);
    }
}
