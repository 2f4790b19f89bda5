//! The node abstraction and its handler context.
//!
//! Every active entity — server, switch, proxy, access point, client — is a
//! [`Node`]: a state machine that reacts to packet arrivals and timers. The
//! engine ([`crate::world::World`]) owns all nodes and delivers events in
//! global time order; handlers interact with the world exclusively through
//! [`Ctx`], which buffers sends (applied after the handler returns) and
//! applies timer/radio commands immediately.
//!
//! This mirrors the paper's implementation split: the proxy's IPQ, bursting
//! and queuing *threads* become handler invocations on the proxy node, with
//! the same shared state between them.

use std::any::Any;

use powerburst_sim::{ClockModel, EventId, EventQueue, LocalTime, SimDuration, SimTime};
use rand::rngs::StdRng;

use powerburst_energy::Wnic;

use crate::addr::{IfaceId, NodeId};
use crate::packet::Packet;

/// Application-defined timer discriminator, delivered back in `on_timer`.
pub type TimerToken = u64;

/// Handle to an armed timer: the event queue's own [`EventId`]. The node
/// that armed a timer keeps its handle to cancel it; a handle outlives its
/// timer harmlessly, because cancelling a fired timer is a no-op.
pub type TimerId = EventId;

/// Engine-internal events. Public only because `Ctx` pushes them; user code
/// never constructs these.
#[derive(Debug)]
pub enum Ev {
    /// A node timer fires.
    Timer {
        /// Destination node.
        node: NodeId,
        /// Application token.
        token: TimerToken,
    },
    /// A frame arrives over a wired link.
    WireArrive {
        /// Destination node.
        node: NodeId,
        /// Interface it arrives on.
        iface: IfaceId,
        /// The frame.
        pkt: Packet,
    },
    /// A frame's airtime on the wireless medium completes.
    RadioArrive {
        /// The frame.
        pkt: Packet,
        /// Transmitting node (for tx energy billing).
        from: NodeId,
        /// Airtime the frame occupied.
        airtime: SimDuration,
    },
}

/// A simulated network element.
///
/// Implementors must also provide [`Node::as_any_mut`] (returning `self`)
/// so experiment harnesses can downcast to the concrete type and read
/// results after a run.
///
/// `Send` because a sharded world may run a node's shard on any worker
/// thread (one shard is only ever touched by one thread at a time; the
/// bound just lets ownership move across the epoch barrier).
pub trait Node: Any + Send {
    /// Called once at simulation start (time zero) so sources can arm
    /// their first timers.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A packet arrived on `iface`.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet);

    /// A timer armed with `token` fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {}

    /// Downcast support; implement as `fn as_any_mut(&mut self) -> &mut dyn Any { self }`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Handler context: a node's window onto the world.
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) clock: &'a ClockModel,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) wnic: Option<&'a mut Wnic>,
    pub(crate) queue: &'a mut EventQueue<Ev>,
    pub(crate) sends: &'a mut Vec<(IfaceId, Packet)>,
    pub(crate) packet_seq: &'a mut u64,
}

impl Ctx<'_> {
    /// Current true simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    #[inline]
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Current time as read on this node's (possibly skewed) local clock.
    #[inline]
    pub fn local_now(&self) -> LocalTime {
        self.clock.to_local(self.now)
    }

    /// Convert an arbitrary true instant to this node's local clock.
    #[inline]
    pub fn to_local(&self, t: SimTime) -> LocalTime {
        self.clock.to_local(t)
    }

    /// Allocate a globally unique packet id.
    pub fn alloc_packet_id(&mut self) -> u64 {
        let id = *self.packet_seq;
        *self.packet_seq += 1;
        id
    }

    /// Queue a packet for transmission on `iface`. Processed after the
    /// handler returns; ordering among sends from one handler is preserved.
    pub fn send(&mut self, iface: IfaceId, pkt: Packet) {
        self.sends.push((iface, pkt));
    }

    /// Assign a fresh packet id, then queue the packet. Transport
    /// endpoints emit packets with `id == 0`; this stamps them.
    pub fn send_assigning(&mut self, iface: IfaceId, mut pkt: Packet) {
        pkt.id = self.alloc_packet_id();
        self.sends.push((iface, pkt));
    }

    /// Arm a timer `delay` of **true** time from now. The returned handle
    /// is the only way to cancel it; a timer that is never cancelled can
    /// drop it.
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) -> TimerId {
        self.queue.push(self.now + delay, Ev::Timer { node: self.node, token })
    }

    /// Arm a timer measured on this node's **local** clock; the engine
    /// converts through the clock's drift model, so a fast clock fires
    /// early in true time.
    pub fn set_timer_local(&mut self, local_delay: SimDuration, token: TimerToken) -> TimerId {
        let true_delay = self.clock.local_to_true_duration(local_delay);
        self.set_timer(true_delay, token)
    }

    /// Keep `timer` the one pending timer for `token`, firing at `deadline`
    /// (true time). Equivalent to cancelling `timer` and arming a fresh
    /// one, but when it is still pending at `deadline` — the common case
    /// for retransmission timers re-armed after every interaction — it is
    /// left in place, skipping both heap operations.
    pub fn rearm_timer_at(
        &mut self,
        timer: &mut Option<TimerId>,
        deadline: SimTime,
        token: TimerToken,
    ) {
        if let Some(id) = *timer {
            if self.queue.time_of(id) == Some(deadline) {
                return;
            }
            self.queue.cancel(id);
        }
        *timer = Some(self.queue.push(deadline, Ev::Timer { node: self.node, token }));
    }

    /// Cancel a pending timer. Returns `false` when it already fired or
    /// was cancelled: the handle's generation makes that a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        self.queue.cancel(id)
    }

    /// Transition this node's WNIC to high-power mode (no-op without a radio).
    pub fn radio_wake(&mut self) {
        let now = self.now;
        if let Some(w) = self.wnic.as_deref_mut() {
            w.wake(now);
        }
    }

    /// Transition this node's WNIC to low-power (sleep) mode.
    pub fn radio_sleep(&mut self) {
        let now = self.now;
        if let Some(w) = self.wnic.as_deref_mut() {
            w.sleep(now);
        }
    }

    /// Is this node's WNIC currently able to receive?
    pub fn radio_listening(&mut self) -> bool {
        let now = self.now;
        match self.wnic.as_deref_mut() {
            Some(w) => w.is_listening(now),
            None => true, // wired nodes always "hear" their links
        }
    }

    /// Deterministic per-node RNG stream.
    #[inline]
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}
