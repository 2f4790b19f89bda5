//! Receiver-report codec (client → server feedback path).
//!
//! Video clients send a small UDP report to `ports::FEEDBACK` once a
//! second: flow id, highest sequence seen, packets received. The server
//! uses it for loss adaptation; since PR 7 the transparent proxy *snoops*
//! the same reports on their way upstream to learn client playout-buffer
//! occupancy for the buffer-aware policy (EStreamer-style burst shaping,
//! Hoque et al. arXiv:1403.3710).
//!
//! Two wire layouts share this module:
//!
//! * **legacy, 24 bytes** — `u64 flow | u64 highest_seq | u64 received`.
//!   This is the only format emitted unless buffer reporting is enabled,
//!   which keeps default runs (and the golden traces) byte-identical.
//! * **extended, 32 bytes** — legacy plus `u64 buffer_bytes`. Opt-in per
//!   client; decoders accept both, and no other length.
//!
//! All fields are big-endian integers — no floats on the wire (D005).

use bytes::{BufMut, Bytes, BytesMut};

/// Size of the legacy three-field report.
pub const REPORT_LEN: usize = 24;

/// Size of the buffer-extended report.
pub const REPORT_LEN_BUFFERED: usize = 32;

/// A decoded receiver report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiverReport {
    /// Flow id the report refers to.
    pub flow: u64,
    /// Highest media sequence number seen plus one.
    pub highest_seq: u64,
    /// Packets received so far.
    pub received: u64,
    /// Playout-buffer occupancy in bytes; `None` on legacy reports.
    pub buffer_bytes: Option<u64>,
}

impl ReceiverReport {
    /// Encode to the wire: 24 bytes legacy, 32 bytes when `buffer_bytes`
    /// is present.
    pub fn encode(&self) -> Bytes {
        let len = if self.buffer_bytes.is_some() { REPORT_LEN_BUFFERED } else { REPORT_LEN };
        let mut b = BytesMut::with_capacity(len);
        b.put_u64(self.flow);
        b.put_u64(self.highest_seq);
        b.put_u64(self.received);
        if let Some(buf) = self.buffer_bytes {
            b.put_u64(buf);
        }
        b.freeze()
    }

    /// Decode either layout; `None` unless the payload is exactly
    /// [`REPORT_LEN`] or [`REPORT_LEN_BUFFERED`] bytes.
    pub fn decode(p: &[u8]) -> Option<ReceiverReport> {
        if p.len() != REPORT_LEN && p.len() != REPORT_LEN_BUFFERED {
            return None;
        }
        let word = |i: usize| {
            u64::from_be_bytes(p[i..i + 8].try_into().expect("invariant: length checked above"))
        };
        let buffer_bytes = (p.len() == REPORT_LEN_BUFFERED).then(|| word(24));
        Some(ReceiverReport {
            flow: word(0),
            highest_seq: word(8),
            received: word(16),
            buffer_bytes,
        })
    }
}

/// Encode a legacy receiver report (compat shim for pre-PR7 call sites).
pub fn encode_report(flow: u64, highest_seq: u64, received: u64) -> Bytes {
    ReceiverReport { flow, highest_seq, received, buffer_bytes: None }.encode()
}

/// Decode the three legacy fields of a report (either layout).
pub fn decode_report(p: &[u8]) -> Option<(u64, u64, u64)> {
    ReceiverReport::decode(p).map(|r| (r.flow, r.highest_seq, r.received))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_roundtrip_is_24_bytes() {
        let b = encode_report(3, 100, 97);
        assert_eq!(b.len(), REPORT_LEN);
        assert_eq!(decode_report(&b), Some((3, 100, 97)));
        assert_eq!(decode_report(&b[..10]), None);
        let r = ReceiverReport::decode(&b).expect("decodes");
        assert_eq!(r.buffer_bytes, None);
    }

    #[test]
    fn extended_roundtrip_carries_buffer() {
        let r =
            ReceiverReport { flow: 7, highest_seq: 500, received: 498, buffer_bytes: Some(48_000) };
        let b = r.encode();
        assert_eq!(b.len(), REPORT_LEN_BUFFERED);
        assert_eq!(ReceiverReport::decode(&b), Some(r));
        // Legacy decoders still read the first three fields.
        assert_eq!(decode_report(&b), Some((7, 500, 498)));
    }

    #[test]
    fn extended_prefix_matches_legacy_encoding() {
        // The proxy forwards reports untouched; a legacy server must see
        // exactly the bytes it always saw in the first 24.
        let legacy = encode_report(9, 10, 8);
        let ext = ReceiverReport { flow: 9, highest_seq: 10, received: 8, buffer_bytes: Some(1) }
            .encode();
        assert_eq!(&ext[..REPORT_LEN], &legacy[..]);
    }
}
