//! Schedule wire codec: the broadcast payload format.
//!
//! lint: wire-encoding — this module is integer-only by contract. The
//! schedule payload is decoded independently by every client and replayed
//! byte-for-byte by the postmortem analyzer, so its encoding must be exact:
//! no floating-point may appear anywhere in this module (rule D005 of the
//! sim-purity lint enforces that at build time).
//!
//! Layout (big-endian):
//!
//! ```text
//! u64 seq | u8 flags | u16 n | u64 next_srp_us | n × (u32 client, u32 rp_us, u32 dur_us)
//! ```

use bytes::{BufMut, Bytes, BytesMut};
use powerburst_sim::SimDuration;

use powerburst_net::HostAddr;

use crate::schedule::{Schedule, ScheduleEntry};

impl Schedule {
    /// Serialize to the broadcast payload.
    ///
    /// Entries whose µs offsets/durations exceed the u32 wire range are
    /// clamped to `u32::MAX` (never silently wrapped); use
    /// [`Schedule::encode_checked`] to detect that happening.
    pub fn encode(&self) -> Bytes {
        self.encode_checked().0
    }

    /// Serialize, also reporting how many wire fields overflowed their
    /// range and had to be clamped. A non-zero count is a scheduler bug
    /// (a µs offset or duration past ~71.6 minutes, or more than
    /// `u16::MAX` entries); the proxy surfaces it as an
    /// [`crate::invariants::InvariantKind::WireOverflow`] violation
    /// rather than letting a cast wrap to a tiny slot — or, for the
    /// entry count, wrap `65 537` entries down to a 1-entry header that
    /// silently strands every other client without a slot.
    pub fn encode_checked(&self) -> (Bytes, usize) {
        // The u16 count field caps a single broadcast at 65 535 entries:
        // encode the first 65 535 and count each dropped entry as an
        // overflow (never wrap — a wrapped count desynchronizes every
        // decoder on the cell).
        let n = self.entries.len().min(u16::MAX as usize);
        let mut overflows = self.entries.len() - n;
        let mut wire_us = |d: SimDuration| -> u32 {
            u32::try_from(d.as_us()).unwrap_or_else(|_| {
                overflows += 1;
                u32::MAX
            })
        };
        let mut b = BytesMut::with_capacity(19 + 12 * n);
        b.put_u64(self.seq);
        b.put_u8(
            self.unchanged as u8 | (self.fixed_slots as u8) << 1 | (self.saturated as u8) << 2,
        );
        b.put_u16(n as u16);
        b.put_u64(self.next_srp.as_us());
        for e in &self.entries[..n] {
            b.put_u32(e.client.0);
            b.put_u32(wire_us(e.rp_offset));
            b.put_u32(wire_us(e.duration));
        }
        (b.freeze(), overflows)
    }

    /// Parse a broadcast payload.
    pub fn decode(p: &[u8]) -> Option<Schedule> {
        let mut s = Schedule::default();
        Self::decode_into(p, &mut s).then_some(s)
    }

    /// Parse a broadcast payload into an existing schedule, reusing its
    /// entries buffer — the steady-state path for clients that decode one
    /// broadcast per burst interval. Returns `false` on a malformed
    /// payload — including one not exactly `19 + 12·n` bytes long — in
    /// which case the contents of `into` are unspecified.
    pub fn decode_into(p: &[u8], into: &mut Schedule) -> bool {
        fn parse(p: &[u8], into: &mut Schedule) -> Option<()> {
            if p.len() < 19 {
                return None;
            }
            into.seq = u64::from_be_bytes(p[0..8].try_into().ok()?);
            into.unchanged = p[8] & 1 != 0;
            into.fixed_slots = p[8] & 2 != 0;
            into.saturated = p[8] & 4 != 0;
            let n = u16::from_be_bytes(p[9..11].try_into().ok()?) as usize;
            into.next_srp = SimDuration::from_us(u64::from_be_bytes(p[11..19].try_into().ok()?));
            if p.len() != 19 + 12 * n {
                return None;
            }
            into.entries.reserve(n);
            for i in 0..n {
                let off = 19 + 12 * i;
                let client = HostAddr(u32::from_be_bytes(p[off..off + 4].try_into().ok()?));
                let rp = u32::from_be_bytes(p[off + 4..off + 8].try_into().ok()?);
                let dur = u32::from_be_bytes(p[off + 8..off + 12].try_into().ok()?);
                into.entries.push(ScheduleEntry {
                    client,
                    rp_offset: SimDuration::from_us(rp as u64),
                    duration: SimDuration::from_us(dur as u64),
                });
            }
            Some(())
        }
        into.entries.clear();
        parse(p, into).is_some()
    }
}

// ---------------------------------------------------------------------------
// Coordinator-tier messages (proxy shard ↔ coordinator, `ports::COORD`).
//
// The coordinator exchanges *aggregates only* — one fixed-size report and
// one fixed-size grant per shard per SRP interval — so coordination traffic
// is O(cells), independent of how many clients each cell holds. Same
// integer-only contract as the schedule payload above.
// ---------------------------------------------------------------------------

/// Wire tag of a [`DemandReport`].
const TAG_DEMAND: u8 = 1;
/// Wire tag of a [`BudgetGrant`].
const TAG_GRANT: u8 = 2;

/// Per-cell aggregate demand, sent by a proxy shard to the coordinator at
/// each SRP interval.
///
/// Layout (big-endian): `u8 tag=1 | u32 cell | u64 seq | u32 clients |
/// u64 demand_bytes` — 25 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandReport {
    /// The reporting shard's cell index.
    pub cell: u32,
    /// The shard's schedule sequence number the report was taken at.
    pub seq: u64,
    /// Clients with non-zero demand this interval.
    pub clients: u32,
    /// Total queued bytes across the cell's clients.
    pub demand_bytes: u64,
}

impl DemandReport {
    /// Encoded size, bytes.
    pub const WIRE_SIZE: usize = 25;

    /// Serialize to the coordination payload.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(Self::WIRE_SIZE);
        b.put_u8(TAG_DEMAND);
        b.put_u32(self.cell);
        b.put_u64(self.seq);
        b.put_u32(self.clients);
        b.put_u64(self.demand_bytes);
        b.freeze()
    }

    /// Parse a coordination payload; `None` on a wrong tag or length.
    pub fn decode(p: &[u8]) -> Option<DemandReport> {
        if p.len() != Self::WIRE_SIZE || p[0] != TAG_DEMAND {
            return None;
        }
        Some(DemandReport {
            cell: u32::from_be_bytes(p[1..5].try_into().ok()?),
            seq: u64::from_be_bytes(p[5..13].try_into().ok()?),
            clients: u32::from_be_bytes(p[13..17].try_into().ok()?),
            demand_bytes: u64::from_be_bytes(p[17..25].try_into().ok()?),
        })
    }
}

/// Per-cell airtime budget, granted by the coordinator in response to a
/// [`DemandReport`].
///
/// Layout (big-endian): `u8 tag=2 | u32 cell | u64 seq | u32 permille` —
/// 17 bytes. `permille` is the fraction (‰) of the shard's burst interval
/// it may schedule; 1000 means unconstrained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetGrant {
    /// The cell this grant is for.
    pub cell: u32,
    /// Echo of the report's sequence number.
    pub seq: u64,
    /// Granted airtime budget, in permille of the burst interval (0..=1000).
    pub permille: u32,
}

impl BudgetGrant {
    /// Encoded size, bytes.
    pub const WIRE_SIZE: usize = 17;

    /// Serialize to the coordination payload.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(Self::WIRE_SIZE);
        b.put_u8(TAG_GRANT);
        b.put_u32(self.cell);
        b.put_u64(self.seq);
        b.put_u32(self.permille);
        b.freeze()
    }

    /// Parse a coordination payload; `None` on a wrong tag or length.
    pub fn decode(p: &[u8]) -> Option<BudgetGrant> {
        if p.len() != Self::WIRE_SIZE || p[0] != TAG_GRANT {
            return None;
        }
        Some(BudgetGrant {
            cell: u32::from_be_bytes(p[1..5].try_into().ok()?),
            seq: u64::from_be_bytes(p[5..13].try_into().ok()?),
            permille: u32::from_be_bytes(p[13..17].try_into().ok()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let s = Schedule {
            seq: 42,
            entries: vec![
                ScheduleEntry {
                    client: HostAddr(7),
                    rp_offset: SimDuration::from_ms(3),
                    duration: SimDuration::from_ms(20),
                },
                ScheduleEntry {
                    client: HostAddr::BROADCAST,
                    rp_offset: SimDuration::from_ms(24),
                    duration: SimDuration::from_ms(50),
                },
            ],
            next_srp: SimDuration::from_ms(100),
            unchanged: true,
            fixed_slots: true,
            saturated: true,
        };
        let d = Schedule::decode(&s.encode()).unwrap();
        assert_eq!(d, s);
    }

    #[test]
    fn decode_rejects_truncation() {
        let s = Schedule {
            seq: 1,
            entries: vec![ScheduleEntry {
                client: HostAddr(1),
                rp_offset: SimDuration::from_ms(1),
                duration: SimDuration::from_ms(1),
            }],
            next_srp: SimDuration::from_ms(100),
            unchanged: false,
            fixed_slots: false,
            saturated: false,
        };
        let b = s.encode();
        assert!(Schedule::decode(&b[..b.len() - 1]).is_none());
        assert!(Schedule::decode(&b[..5]).is_none());
    }

    #[test]
    fn wire_encoding_clamps_and_reports_u32_overflow() {
        let entry = |dur_us: u64| Schedule {
            seq: 1,
            entries: vec![ScheduleEntry {
                client: HostAddr(1),
                rp_offset: SimDuration::from_ms(1),
                duration: SimDuration::from_us(dur_us),
            }],
            next_srp: SimDuration::from_ms(100),
            unchanged: false,
            fixed_slots: false,
            saturated: false,
        };

        // Exactly at the boundary: encodes cleanly and round-trips.
        let at_max = entry(u32::MAX as u64);
        let (bytes, overflows) = at_max.encode_checked();
        assert_eq!(overflows, 0);
        assert_eq!(Schedule::decode(&bytes).unwrap(), at_max);

        // One past the boundary: reported, and clamped to u32::MAX — the
        // old `as u32` cast would have wrapped this to a zero-length slot.
        let past_max = entry(u32::MAX as u64 + 1);
        let (bytes, overflows) = past_max.encode_checked();
        assert_eq!(overflows, 1);
        let decoded = Schedule::decode(&bytes).unwrap();
        assert_eq!(decoded.entries[0].duration, SimDuration::from_us(u32::MAX as u64));
    }

    /// Regression for the entry-count wrap: 65 537 entries used to encode
    /// as `n = 1` (`entries.len() as u16`), silently stranding 65 536
    /// clients. The count must clamp to `u16::MAX`, report every dropped
    /// entry through the overflow count, and still produce a payload that
    /// decodes self-consistently.
    #[test]
    fn wire_encoding_clamps_and_reports_entry_count_overflow() {
        let schedule_with = |n: usize| Schedule {
            seq: 9,
            entries: (0..n)
                .map(|i| ScheduleEntry {
                    client: HostAddr(i as u32 + 1),
                    rp_offset: SimDuration::from_us(i as u64),
                    duration: SimDuration::from_us(10),
                })
                .collect(),
            next_srp: SimDuration::from_ms(100),
            unchanged: false,
            fixed_slots: false,
            saturated: false,
        };

        // Exactly at the boundary: clean encode, full round trip.
        let at_max = schedule_with(u16::MAX as usize);
        let (bytes, overflows) = at_max.encode_checked();
        assert_eq!(overflows, 0);
        assert_eq!(bytes.len(), 19 + 12 * u16::MAX as usize);
        assert_eq!(Schedule::decode(&bytes).unwrap().entries.len(), u16::MAX as usize);

        // 65 537 entries: the old cast wrapped the count to 1. Now the
        // first 65 535 entries survive and the 2 dropped ones are reported.
        let past = schedule_with(u16::MAX as usize + 2);
        let (bytes, overflows) = past.encode_checked();
        assert_eq!(overflows, 2, "each dropped entry counts as a wire overflow");
        assert_eq!(bytes.len(), 19 + 12 * u16::MAX as usize, "payload matches its count field");
        let decoded = Schedule::decode(&bytes).unwrap();
        assert_eq!(decoded.entries.len(), u16::MAX as usize);
        assert_eq!(decoded.entries[0].client, HostAddr(1), "prefix preserved in order");
        assert_eq!(decoded.entries[u16::MAX as usize - 1].client, HostAddr(u16::MAX as u32));
    }

    #[test]
    fn coordination_messages_round_trip() {
        let r = DemandReport { cell: 7, seq: 42, clients: 64, demand_bytes: 1 << 40 };
        let b = r.encode();
        assert_eq!(b.len(), DemandReport::WIRE_SIZE);
        assert_eq!(DemandReport::decode(&b), Some(r));

        let g = BudgetGrant { cell: 7, seq: 42, permille: 375 };
        let b = g.encode();
        assert_eq!(b.len(), BudgetGrant::WIRE_SIZE);
        assert_eq!(BudgetGrant::decode(&b), Some(g));
    }

    #[test]
    fn coordination_messages_reject_mismatched_payloads() {
        let r = DemandReport { cell: 1, seq: 2, clients: 3, demand_bytes: 4 }.encode();
        let g = BudgetGrant { cell: 1, seq: 2, permille: 1000 }.encode();
        // Wrong tag for the type.
        assert_eq!(DemandReport::decode(&g), None);
        assert_eq!(BudgetGrant::decode(&r), None);
        // Truncation.
        assert_eq!(DemandReport::decode(&r[..r.len() - 1]), None);
        assert_eq!(BudgetGrant::decode(&g[..g.len() - 1]), None);
        assert_eq!(DemandReport::decode(&[]), None);
    }
}
