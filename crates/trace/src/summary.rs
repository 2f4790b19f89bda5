//! Trace summaries and export.
//!
//! Utilities the experiment harnesses use on top of the raw capture:
//! medium utilization, and a JSON-lines export of capture rows for
//! offline inspection (the stand-in for keeping the paper's raw `tcpdump`
//! files).

use std::fmt::Write as _;

use powerburst_net::{Delivery, Proto, SnifferRecord};
use powerburst_sim::SimDuration;

/// Medium utilization over `window`: the airtime of every frame that
/// reached the air (queue drops never did), as a fraction of `window`.
pub fn utilization(records: &[SnifferRecord], window: SimDuration) -> f64 {
    if window.is_zero() {
        return 0.0;
    }
    let mut airtime = SimDuration::ZERO;
    for r in records.iter().filter(|r| r.delivery != Delivery::QueueDrop) {
        airtime += r.airtime;
    }
    airtime.as_secs_f64() / window.as_secs_f64()
}

/// Render the trace as JSON-lines: one object per frame, the
/// tcpdump-line equivalent. Every field is a number, a boolean or a string
/// that never needs escaping, so this is hand-rolled rather than pulling
/// in a JSON dependency.
pub fn to_jsonl(records: &[SnifferRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96);
    for r in records {
        let proto = match r.proto {
            Proto::Udp => "udp",
            Proto::Tcp => "tcp",
        };
        let delivery = match r.delivery {
            Delivery::Delivered => "delivered",
            Delivery::MissedAsleep => "missed",
            Delivery::Broadcast => "broadcast",
            Delivery::QueueDrop => "qdrop",
            Delivery::NoSuchHost => "nohost",
            Delivery::Corrupted => "corrupt",
        };
        let _ = writeln!(
            out,
            concat!(
                "{{\"t_s\":{:.6},\"id\":{},\"src\":\"{}\",\"dst\":\"{}\",",
                "\"proto\":\"{}\",\"bytes\":{},\"airtime_us\":{},",
                "\"mark\":{},\"delivery\":\"{}\"}}"
            ),
            r.t.as_secs_f64(),
            r.pkt_id,
            r.src,
            r.dst,
            proto,
            r.wire_size,
            r.airtime.as_us(),
            r.tos_mark,
            delivery
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use powerburst_net::{HostAddr, Packet, SockAddr};
    use powerburst_sim::SimTime;

    fn rec(src: u32, dst: u32, mark: bool, delivery: Delivery, t_ms: u64) -> SnifferRecord {
        let mut pkt = Packet::udp(
            1,
            SockAddr::new(HostAddr(src), 1),
            SockAddr::new(HostAddr(dst), 2),
            Bytes::from(vec![0u8; 100]),
        );
        pkt.tos_mark = mark;
        SnifferRecord::of(SimTime::from_ms(t_ms), &pkt, SimDuration::from_us(900), delivery)
    }

    #[test]
    fn utilization_fraction() {
        let recs = vec![
            rec(1, 10, false, Delivery::Delivered, 0),
            rec(1, 11, false, Delivery::Broadcast, 50),
            rec(1, 10, false, Delivery::QueueDrop, 60),
        ];
        // Two 900 us frames reached the air; the queue drop did not.
        let u = utilization(&recs, SimDuration::from_ms(18));
        assert!((u - 0.1).abs() < 1e-9, "u {u}");
        assert_eq!(utilization(&recs, SimDuration::ZERO), 0.0);
    }

    #[test]
    fn jsonl_has_one_line_per_record() {
        let recs = vec![
            rec(1, 10, false, Delivery::Delivered, 0),
            rec(1, 10, true, Delivery::MissedAsleep, 1),
        ];
        let s = to_jsonl(&recs);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("\"delivery\":\"missed\""));
        assert!(s.contains("\"mark\":true"));
    }
}
