//! FTP-style bulk download: one TCP connection, one large object.
//!
//! Used for the mixed video/TCP experiments (§4.2, "the rest download TCP
//! data (either HTTP or ftp)") and for the drop-impact validation (§4.3),
//! where the paper measures the transmission-time increase when a sleeping
//! client really drops packets. The client records start/finish times so
//! harnesses can compare transfer durations across configurations.

use std::any::Any;

use powerburst_sim::SimTime;

use powerburst_net::{Ctx, Packet, Proto, SockAddr, TimerId, TimerToken};
use powerburst_transport::{TcpConfig, TcpEndpoint, TcpEvent};

use crate::app::{drive_endpoint, App, APP_TOKEN, CLIENT_RADIO};
use crate::web::encode_request;

const FTP_TIMER: TimerToken = APP_TOKEN | 0x2000;

/// Bulk-download client app; pair it with a [`crate::web::ByteServer`].
pub struct FtpClientApp {
    local: SockAddr,
    server: SockAddr,
    /// Bytes to request.
    pub size: u64,
    ep: Option<TcpEndpoint>,
    timer: Option<TimerId>,
    requested: bool,
    /// When the transfer was requested.
    pub started_at: Option<SimTime>,
    /// When the last byte arrived.
    pub finished_at: Option<SimTime>,
    /// Bytes received so far.
    pub received: u64,
}

impl FtpClientApp {
    /// New bulk client that will fetch `size` bytes from `server`.
    pub fn new(local: SockAddr, server: SockAddr, size: u64) -> FtpClientApp {
        FtpClientApp {
            local,
            server,
            size,
            ep: None,
            timer: None,
            requested: false,
            started_at: None,
            finished_at: None,
            received: 0,
        }
    }

    /// Transfer duration, if complete.
    pub fn transfer_time(&self) -> Option<powerburst_sim::SimDuration> {
        match (self.started_at, self.finished_at) {
            (Some(a), Some(b)) => Some(b.since(a)),
            _ => None,
        }
    }

    /// True once all requested bytes arrived.
    pub fn done(&self) -> bool {
        self.finished_at.is_some()
    }

    fn service(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let Some(ep) = self.ep.as_mut() else { return };
        let connected = ep.events_mut().drain(..).any(|ev| ev == TcpEvent::Connected);
        if connected && !self.requested {
            self.requested = true;
            self.started_at = Some(now);
            ep.send(now, encode_request(self.size));
        }
        for chunk in ep.delivered_mut().drain(..) {
            self.received += chunk.len() as u64;
        }
        if self.received >= self.size && self.finished_at.is_none() {
            self.finished_at = Some(now);
            ep.close(now);
        }
        drive_endpoint(ctx, CLIENT_RADIO, ep, &mut self.timer, FTP_TIMER);
    }
}

impl App for FtpClientApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let mut ep = TcpEndpoint::active(self.local, self.server, TcpConfig::default());
        ep.connect(ctx.now());
        self.ep = Some(ep);
        self.service(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if pkt.proto != Proto::Tcp || pkt.dst != self.local {
            return;
        }
        let now = ctx.now();
        if let Some(ep) = self.ep.as_mut() {
            ep.on_packet(now, &pkt);
        }
        self.service(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if token != FTP_TIMER {
            return;
        }
        let now = ctx.now();
        if let Some(ep) = self.ep.as_mut() {
            ep.on_tick(now);
        }
        self.service(ctx);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerburst_net::HostAddr;

    #[test]
    fn transfer_time_requires_both_ends() {
        let app =
            FtpClientApp::new(SockAddr::new(HostAddr(1), 9), SockAddr::new(HostAddr(2), 20), 1_000);
        assert!(app.transfer_time().is_none());
        assert!(!app.done());
    }
}
