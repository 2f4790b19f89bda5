//! The monitoring station.
//!
//! The paper runs `tcpdump` on a dedicated laptop to capture every frame on
//! the wireless segment, then feeds the trace to a postmortem simulator
//! (§3.1, §4.1). Our sniffer is engine-level: it observes every frame whose
//! airtime completes on the medium — including frames the addressed client
//! slept through, which is exactly what makes postmortem energy/loss
//! analysis possible.

use bytes::Bytes;
use powerburst_sim::{SimDuration, SimTime};

use crate::addr::SockAddr;
use crate::packet::{Packet, Proto};

/// What happened to a frame at its addressed receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Unicast frame received by an awake client (or forwarded by the AP).
    Delivered,
    /// Unicast frame addressed to a client whose WNIC was not listening.
    MissedAsleep,
    /// Broadcast frame (per-client reception is derived by the analyzer).
    Broadcast,
    /// Dropped before the air: transmit-queue overflow at the AP.
    QueueDrop,
    /// Addressed to a host nobody owns (configuration error; kept for
    /// diagnosis rather than panicking mid-run).
    NoSuchHost,
    /// Corrupted on the channel: airtime burned, nobody decoded it.
    Corrupted,
}

/// One captured frame.
#[derive(Debug, Clone)]
pub struct SnifferRecord {
    /// Instant the frame's airtime completed (capture timestamp).
    pub t: SimTime,
    /// Globally unique packet id.
    pub pkt_id: u64,
    /// Source socket address as seen on the air.
    pub src: SockAddr,
    /// Destination socket address.
    pub dst: SockAddr,
    /// Transport protocol.
    pub proto: Proto,
    /// IP-layer size in bytes.
    pub wire_size: usize,
    /// Airtime the frame occupied.
    pub airtime: SimDuration,
    /// End-of-burst ToS mark.
    pub tos_mark: bool,
    /// Delivery outcome at the addressed receiver.
    pub delivery: Delivery,
    /// Payload, retained only for broadcast frames (schedule messages) so
    /// the postmortem analyzer can decode them; empty for unicast frames,
    /// whose data payloads are dropped to keep long captures cheap. `Bytes`
    /// makes retention zero-copy, and an empty view owns no buffer.
    pub payload: Bytes,
}

impl SnifferRecord {
    /// Build a record from a packet about to be (or not) delivered.
    pub fn of(t: SimTime, pkt: &Packet, airtime: SimDuration, delivery: Delivery) -> SnifferRecord {
        SnifferRecord {
            t,
            pkt_id: pkt.id,
            src: pkt.src,
            dst: pkt.dst,
            proto: pkt.proto,
            wire_size: pkt.wire_size(),
            airtime,
            tos_mark: pkt.tos_mark,
            delivery,
            payload: if pkt.is_broadcast() { pkt.payload.clone() } else { Bytes::new() },
        }
    }
}

/// The capture buffer. Cheap to append; analysis happens after the run.
#[derive(Debug, Default)]
pub struct Sniffer {
    records: Vec<SnifferRecord>,
}

impl Sniffer {
    /// A new sniffer with some headroom preallocated.
    pub fn new() -> Sniffer {
        Sniffer { records: Vec::with_capacity(4096) }
    }

    /// Append a record.
    #[inline]
    pub fn record(&mut self, rec: SnifferRecord) {
        self.records.push(rec);
    }

    /// Take ownership of the capture, leaving the sniffer empty.
    pub fn take(&mut self) -> Vec<SnifferRecord> {
        std::mem::take(&mut self.records)
    }

    /// Number of captured frames.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{HostAddr, SockAddr};
    use bytes::Bytes;

    fn pkt() -> Packet {
        Packet::udp(
            7,
            SockAddr::new(HostAddr(1), 10),
            SockAddr::new(HostAddr(2), 20),
            Bytes::from(vec![0u8; 50]),
        )
    }

    #[test]
    fn records_capture_fields() {
        let mut s = Sniffer::new();
        s.record(SnifferRecord::of(
            SimTime::from_ms(3),
            &pkt(),
            SimDuration::from_us(500),
            Delivery::Delivered,
        ));
        assert_eq!(s.len(), 1);
        let r = &s.take()[0];
        assert_eq!(r.pkt_id, 7);
        assert_eq!(r.wire_size, 20 + 8 + 50);
        assert_eq!(r.delivery, Delivery::Delivered);
    }

    #[test]
    fn only_broadcast_records_keep_their_payload() {
        let unicast = pkt();
        let rec =
            SnifferRecord::of(SimTime::ZERO, &unicast, SimDuration::ZERO, Delivery::Delivered);
        assert!(rec.payload.is_empty(), "a unicast payload is not kept");
        let mut bcast = pkt();
        bcast.dst = SockAddr::new(HostAddr::BROADCAST, 20);
        let rec = SnifferRecord::of(SimTime::ZERO, &bcast, SimDuration::ZERO, Delivery::Broadcast);
        assert_eq!(rec.payload.len(), 50);
        assert_eq!(rec.payload, bcast.payload, "a broadcast keeps its bytes");
    }

    #[test]
    fn take_empties_buffer() {
        let mut s = Sniffer::new();
        s.record(SnifferRecord::of(SimTime::ZERO, &pkt(), SimDuration::ZERO, Delivery::Delivered));
        let v = s.take();
        assert_eq!(v.len(), 1);
        assert!(s.is_empty());
    }
}
