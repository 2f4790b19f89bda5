//! Trace summaries and export.
//!
//! Utilities the experiment harnesses use on top of the raw capture:
//! medium utilization, and a JSON-lines export of capture rows for
//! offline inspection (the stand-in for keeping the paper's raw `tcpdump`
//! files).

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

/// One serializable capture row (tcpdump-line equivalent).
#[derive(Debug)]
pub struct TraceRow {
    /// Capture timestamp, seconds.
    pub t_s: f64,
    /// Packet id.
    pub id: u64,
    /// Source `host:port`.
    pub src: String,
    /// Destination `host:port`.
    pub dst: String,
    /// `"udp"` or `"tcp"`.
    pub proto: &'static str,
    /// Wire bytes.
    pub bytes: usize,
    /// Airtime, microseconds.
    pub airtime_us: u64,
    /// End-of-burst mark.
    pub mark: bool,
    /// Delivery outcome.
    pub delivery: &'static str,
}

impl TraceRow {
    /// Convert a sniffer record.
    pub fn from_record(r: &SnifferRecord) -> TraceRow {
        TraceRow {
            t_s: r.t.as_secs_f64(),
            id: r.pkt_id,
            src: r.src.to_string(),
            dst: r.dst.to_string(),
            proto: match r.proto {
                Proto::Udp => "udp",
                Proto::Tcp => "tcp",
            },
            bytes: r.wire_size,
            airtime_us: r.airtime.as_us(),
            mark: r.tos_mark,
            delivery: match r.delivery {
                Delivery::Delivered => "delivered",
                Delivery::MissedAsleep => "missed",
                Delivery::Broadcast => "broadcast",
                Delivery::QueueDrop => "qdrop",
                Delivery::NoSuchHost => "nohost",
                Delivery::Corrupted => "corrupt",
            },
        }
    }
}

impl TraceRow {
    /// Render as one JSON object (all fields are numbers, booleans, or
    /// strings that never need escaping, so this is hand-rolled rather
    /// than pulling in a JSON dependency).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"t_s\":{:.6},\"id\":{},\"src\":\"{}\",\"dst\":\"{}\",",
                "\"proto\":\"{}\",\"bytes\":{},\"airtime_us\":{},",
                "\"mark\":{},\"delivery\":\"{}\"}}"
            ),
            self.t_s,
            self.id,
            self.src,
            self.dst,
            self.proto,
            self.bytes,
            self.airtime_us,
            self.mark,
            self.delivery
        )
    }
}

/// Render the trace as JSON-lines (one row per frame).
pub fn to_jsonl(records: &[SnifferRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96);
    for r in records {
        out.push_str(&TraceRow::from_record(r).to_json());
        out.push('\n');
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
