//! Per-client packet queues.
//!
//! The proxy "buffers data from the servers, and transmits it at regular
//! intervals as a burst to the appropriate client" (§3.1). Datagram traffic
//! (and, in pass-through mode, raw TCP segments) is held here between
//! bursts. The queue is byte-capped with tail drop; §3.2.2 sizes the paper's
//! buffer at ~512 KB for the whole proxy, and a full queue is the proxy-side
//! loss mechanism under overload.

use std::collections::VecDeque;

use powerburst_net::Packet;

/// A byte-capped FIFO of packets awaiting a burst.
#[derive(Debug)]
pub struct PacketQueue {
    q: VecDeque<Packet>,
    bytes: usize,
    cap_bytes: usize,
}

impl PacketQueue {
    /// New queue holding at most `cap_bytes` of wire bytes.
    pub fn new(cap_bytes: usize) -> PacketQueue {
        PacketQueue { q: VecDeque::new(), bytes: 0, cap_bytes }
    }

    /// Current queued wire bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Enqueue, dropping at the tail when over capacity. Returns whether
    /// the packet was accepted (the caller counts the drops).
    pub fn push(&mut self, pkt: Packet) -> bool {
        let sz = pkt.wire_size();
        if self.bytes + sz > self.cap_bytes {
            return false;
        }
        self.bytes += sz;
        self.q.push_back(pkt);
        true
    }

    /// Dequeue the oldest packet.
    pub fn pop(&mut self) -> Option<Packet> {
        let pkt = self.q.pop_front()?;
        self.bytes -= pkt.wire_size();
        Some(pkt)
    }

    /// Wire size of the packet at the head, if any.
    pub fn peek_size(&self) -> Option<usize> {
        self.q.front().map(|p| p.wire_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use powerburst_net::{HostAddr, SockAddr};

    fn pkt(n: usize) -> Packet {
        Packet::udp(
            0,
            SockAddr::new(HostAddr(1), 1),
            SockAddr::new(HostAddr(2), 2),
            Bytes::from(vec![0u8; n]),
        )
    }

    #[test]
    fn fifo_order() {
        let mut q = PacketQueue::new(1 << 20);
        for i in 0..5 {
            q.push(pkt(i + 1));
        }
        for i in 0..5 {
            assert_eq!(q.pop().unwrap().payload.len(), i + 1);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn byte_accounting() {
        let mut q = PacketQueue::new(1 << 20);
        q.push(pkt(100));
        q.push(pkt(200));
        let expect = (100 + 28) + (200 + 28); // +IP/UDP headers
        assert_eq!(q.bytes(), expect);
        q.pop();
        assert_eq!(q.bytes(), 228);
    }

    #[test]
    fn tail_drop_when_full() {
        let mut q = PacketQueue::new(300);
        assert!(q.push(pkt(200))); // 228 wire bytes
        assert!(!q.push(pkt(200)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_size_matches_head() {
        let mut q = PacketQueue::new(1 << 20);
        q.push(pkt(64));
        assert_eq!(q.peek_size(), Some(64 + 28));
    }
}
