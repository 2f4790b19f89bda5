//! Thin UDP helpers.
//!
//! UDP needs no state machine; this module just standardizes a tiny
//! sequence-stamped payload format the streaming sources and the loss
//! analyzer share (a 16-byte header: flow id, sequence
//! number — stand-ins for the RTP headers a RealServer stream would carry).

use bytes::{BufMut, Bytes, BytesMut};

/// Size of the [`StreamPayload`] header prefix.
pub const STREAM_HEADER: usize = 16;

/// Sequence-stamped stream payload, mimicking an RTP-ish header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPayload {
    /// Flow identifier (one per client stream).
    pub flow: u64,
    /// Monotone per-flow sequence number.
    pub seq: u64,
}

impl StreamPayload {
    /// Encode the header followed by `body_len` filler bytes.
    pub fn encode(&self, body_len: usize) -> Bytes {
        let mut b = BytesMut::with_capacity(STREAM_HEADER + body_len);
        b.put_u64(self.flow);
        b.put_u64(self.seq);
        b.resize(STREAM_HEADER + body_len, 0xAB);
        b.freeze()
    }

    /// Decode the header from a payload; `None` if too short.
    pub fn decode(payload: &[u8]) -> Option<StreamPayload> {
        if payload.len() < STREAM_HEADER {
            return None;
        }
        let flow =
            u64::from_be_bytes(payload[0..8].try_into().expect("invariant: slice is 8 bytes"));
        let seq =
            u64::from_be_bytes(payload[8..16].try_into().expect("invariant: slice is 8 bytes"));
        Some(StreamPayload { flow, seq })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_payload_round_trips() {
        let sp = StreamPayload { flow: 42, seq: 1234567 };
        let enc = sp.encode(100);
        assert_eq!(enc.len(), STREAM_HEADER + 100);
        assert_eq!(StreamPayload::decode(&enc), Some(sp));
    }

    #[test]
    fn short_payload_decodes_none() {
        assert_eq!(StreamPayload::decode(&[0u8; 8]), None);
    }

    #[test]
    fn zero_body_still_carries_header() {
        let sp = StreamPayload { flow: 1, seq: 2 };
        let enc = sp.encode(0);
        assert_eq!(enc.len(), STREAM_HEADER);
        assert_eq!(StreamPayload::decode(&enc), Some(sp));
    }
}
