//! Constant-bit-rate UDP source and a counting sink.
//!
//! Not a paper workload: a perfectly regular packet train. The
//! benchmark's forwarding floor (`perfbench`, `net.forward_ns_per_pkt`)
//! drives a switch with [`CbrSource`]; the proxy's bandwidth
//! microbenchmark (§3.2.2, M1) sends its own probes
//! (`scenario::calibrate`).

use std::any::Any;

use powerburst_sim::{SimDuration, SimTime};

use powerburst_net::{Ctx, IfaceId, Node, Packet, Proto, SockAddr, TimerToken};
use powerburst_transport::{StreamPayload, STREAM_HEADER};

use crate::app::App;

/// CBR source configuration.
#[derive(Debug, Clone, Copy)]
pub struct CbrSpec {
    /// Destination endpoint.
    pub dst: SockAddr,
    /// Payload bytes per packet (including the 16-byte stream header).
    pub packet_bytes: usize,
    /// Packet interval.
    pub interval: SimDuration,
    /// First packet time.
    pub start: SimTime,
    /// Stop after this instant.
    pub stop: SimTime,
    /// Flow id stamped on packets.
    pub flow: u64,
}

/// A constant-bit-rate UDP source node.
pub struct CbrSource {
    addr: SockAddr,
    spec: CbrSpec,
    seq: u64,
    /// Packets emitted.
    pub sent: u64,
}

impl CbrSource {
    /// New source at `addr`.
    pub fn new(addr: SockAddr, spec: CbrSpec) -> CbrSource {
        assert!(spec.packet_bytes >= STREAM_HEADER, "packet too small for header");
        CbrSource { addr, spec, seq: 0, sent: 0 }
    }
}

impl Node for CbrSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.spec.start.since(SimTime::ZERO), 0);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        if ctx.now() >= self.spec.stop {
            return;
        }
        let body = self.spec.packet_bytes - STREAM_HEADER;
        let payload = StreamPayload { flow: self.spec.flow, seq: self.seq }.encode(body);
        self.seq += 1;
        self.sent += 1;
        ctx.send_assigning(IfaceId(0), Packet::udp(0, self.addr, self.spec.dst, payload));
        ctx.set_timer(self.spec.interval, 0);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A sink app that counts per-flow packets and bytes.
#[derive(Default)]
pub struct CountingSink {
    /// Packets received.
    pub packets: u64,
    /// Payload bytes received.
    pub bytes: u64,
    /// Highest sequence + 1 per the stream header.
    pub highest_plus_one: u64,
}

impl CountingSink {
    /// Fresh sink.
    pub fn new() -> CountingSink {
        CountingSink::default()
    }

    /// Packets the source sent that never arrived, assuming in-order ids.
    pub fn lost(&self) -> u64 {
        self.highest_plus_one.saturating_sub(self.packets)
    }
}

impl App for CountingSink {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
        if pkt.proto != Proto::Udp {
            return;
        }
        if let Some(sp) = StreamPayload::decode(&pkt.payload) {
            self.packets += 1;
            self.bytes += pkt.payload.len() as u64;
            self.highest_plus_one = self.highest_plus_one.max(sp.seq + 1);
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
    fn sink_counts_losses() {
        let mut s = CountingSink::new();
        for seq in [0u64, 1, 3, 4] {
            s.packets += 1;
            s.highest_plus_one = s.highest_plus_one.max(seq + 1);
        }
        assert_eq!(s.lost(), 1);
    }

    #[test]
    #[should_panic(expected = "packet too small")]
    fn tiny_packets_rejected() {
        let spec = CbrSpec {
            dst: SockAddr::new(powerburst_net::HostAddr(1), 1),
            packet_bytes: 4,
            interval: SimDuration::from_ms(10),
            start: SimTime::ZERO,
            stop: SimTime::from_secs(1),
            flow: 0,
        };
        CbrSource::new(SockAddr::new(powerburst_net::HostAddr(2), 2), spec);
    }
}
