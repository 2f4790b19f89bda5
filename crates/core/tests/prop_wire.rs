//! Decoder fuzzing for the proxy's wire messages: the schedule broadcast
//! and the coordinator's demand report and budget grant. Every decoder
//! must survive arbitrary bytes, accept only its exact layout length, and
//! invert its encoder. (`prop_core.rs` holds the schedule round trip.)

use proptest::prelude::*;

use powerburst_core::{BudgetGrant, DemandReport, Schedule};

/// Schedule header: `u64 seq | u8 flags | u16 n | u64 next_srp_us`.
const HEADER: usize = 19;
/// One `(u32 client, u32 rp_us, u32 dur_us)` entry.
const ENTRY: usize = 12;

proptest! {
    /// Arbitrary bytes never panic a decoder, and anything one accepts is
    /// exactly its layout's length and re-encodes to the same bytes.
    #[test]
    fn decoders_survive_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..80)) {
        if let Some(s) = Schedule::decode(&bytes) {
            prop_assert_eq!(bytes.len(), HEADER + ENTRY * s.entries.len());
        }
        if let Some(d) = DemandReport::decode(&bytes) {
            prop_assert_eq!(&d.encode()[..], &bytes[..]);
        }
        if let Some(g) = BudgetGrant::decode(&bytes) {
            prop_assert_eq!(&g.encode()[..], &bytes[..]);
        }
    }

    /// With its entry count forged to `n`, arbitrary content decodes as a
    /// schedule exactly when it is `19 + 12·n` bytes long: every truncated
    /// or over-long payload is rejected. An accepted payload re-encodes to
    /// itself once the unused flag bits are cleared.
    #[test]
    fn schedule_decodes_only_at_its_exact_length(
        n in 0usize..6,
        bytes in prop::collection::vec(any::<u8>(), HEADER..HEADER + ENTRY * 7),
    ) {
        let mut bytes = bytes;
        bytes[8] &= 0b111;
        bytes[9..11].copy_from_slice(&(n as u16).to_be_bytes());
        let decoded = Schedule::decode(&bytes);
        prop_assert_eq!(decoded.is_some(), bytes.len() == HEADER + ENTRY * n);
        if let Some(s) = decoded {
            prop_assert_eq!(&s.encode()[..], &bytes[..]);
        }
    }

    /// The coordination messages round-trip, and every truncation and
    /// every padded copy of their encodings is rejected.
    #[test]
    fn coordination_messages_need_their_exact_length(
        cell in any::<u32>(),
        seq in any::<u64>(),
        clients in any::<u32>(),
        demand_bytes in any::<u64>(),
        permille in any::<u32>(),
        cut in 1usize..DemandReport::WIRE_SIZE,
        pad in prop::collection::vec(any::<u8>(), 1..9),
    ) {
        let report = DemandReport { cell, seq, clients, demand_bytes };
        let grant = BudgetGrant { cell, seq, permille };
        let (r, g) = (report.encode(), grant.encode());
        prop_assert_eq!(DemandReport::decode(&r), Some(report));
        prop_assert_eq!(BudgetGrant::decode(&g), Some(grant));
        prop_assert_eq!(DemandReport::decode(&r[..r.len() - cut]), None);
        prop_assert_eq!(BudgetGrant::decode(&g[..g.len() - cut.min(g.len())]), None);
        prop_assert_eq!(DemandReport::decode(&[&r[..], &pad[..]].concat()), None);
        prop_assert_eq!(BudgetGrant::decode(&[&g[..], &pad[..]].concat()), None);
    }
}
