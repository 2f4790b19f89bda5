//! Client-side application plumbing.
//!
//! A client node hosts two layers: the *power daemon* (schedule handling and
//! WNIC control — `powerburst-client`) and the *application* (video player,
//! web browser, ftp client). [`App`] is the application half; the hosting
//! node forwards packets and app-tagged timers to it. The paper's client
//! modifications are "straightforward and could be implemented with a
//! simple daemon" (§3.2.1) precisely because the application never changes —
//! the same separation holds here.

use std::any::Any;

use powerburst_net::{Ctx, IfaceId, Packet, TimerId, TimerToken};
use powerburst_transport::TcpEndpoint;

/// Timer tokens with this bit set belong to the application layer; the
/// hosting node routes them to [`App::on_timer`].
pub const APP_TOKEN: TimerToken = 1 << 63;

/// The radio interface number on every client node.
pub const CLIENT_RADIO: IfaceId = IfaceId(0);

/// A client-side application.
///
/// `Send` for the same reason [`powerburst_net::Node`] is: a sharded
/// world may host the owning node's shard on any worker thread.
pub trait App: Any + Send {
    /// Called once at simulation start.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A packet addressed to this client arrived (the hosting node has
    /// already filtered out power-daemon control traffic).
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet);

    /// An application timer (token has [`APP_TOKEN`] set) fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {}

    /// Downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Drain a TCP endpoint's wire output and keep `timer`, armed under
/// `token`, as its one pending retransmission timer (cancelled when the
/// endpoint needs none). Call after every interaction with the endpoint.
pub fn drive_endpoint(
    ctx: &mut Ctx<'_>,
    iface: IfaceId,
    ep: &mut TcpEndpoint,
    timer: &mut Option<TimerId>,
    token: TimerToken,
) {
    for pkt in ep.packets_mut().drain(..) {
        ctx.send_assigning(iface, pkt);
    }
    match ep.next_deadline() {
        Some(deadline) => ctx.rearm_timer_at(timer, deadline, token),
        None => {
            if let Some(id) = timer.take() {
                ctx.cancel_timer(id);
            }
        }
    }
}

/// A client node that keeps its WNIC in high-power mode for the whole run —
/// the paper's **naive client** baseline — hosting an arbitrary [`App`].
pub struct NaiveClient {
    app: Box<dyn App>,
}

impl NaiveClient {
    /// Wrap an application.
    pub fn new(app: Box<dyn App>) -> NaiveClient {
        NaiveClient { app }
    }

    /// Access the hosted application.
    pub fn app_mut<T: App>(&mut self) -> &mut T {
        self.app.as_any_mut().downcast_mut().expect("app type")
    }
}

impl powerburst_net::Node for NaiveClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Never sleeps: the WNIC stays in whatever (high-power) state the
        // world initialized it to.
        self.app.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, pkt: Packet) {
        self.app.on_packet(ctx, pkt);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.app.on_timer(ctx, token);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
