//! The packet-marking protocol (§3.2.2, *Packet Marking*).
//!
//! A burst is terminated by a packet whose IP ToS bit is set. For TCP the
//! paper coordinates two threads through three shared variables per
//! client-side socket: `s` (bytes sent by the bursting thread), `f` (bytes
//! forwarded by the IPQ thread), and `m` (the byte number to be marked),
//! with the invariant `f ≤ s`. When the bursting thread finishes a burst it
//! copies `s` into `m`; the IPQ thread marks the packet that makes `f`
//! reach `m` and resets `m`.
//!
//! [`MarkCoordinator`] is that protocol verbatim, on plain counters: the
//! paper's two threads are our event handlers, which a shard's event loop
//! runs strictly one at a time, so the three variables are owned state
//! behind `&mut` — never cross-thread cells. (An earlier revision kept them
//! on atomics for paper fidelity; the sim-purity lint's D009 rule now
//! forbids that on sim-result paths, because a result that flows through an
//! atomic is exactly the kind of cross-thread coupling that would let a
//! parallel-shard schedule change simulated bytes.) Retransmissions do not
//! advance `f` — "for this case, `f` would not be incremented" — so a
//! retransmitted byte range never produces a spurious mark.
//!
//! No product code calls it. The proxy marks by stream offset: every byte
//! a splice's client half enqueues comes from a burst feed, so `s` is that
//! endpoint's stream length, and the endpoint itself marks the segment
//! that reaches `m` (`TcpEndpoint::set_mark`). The type stays for
//! perfbench's marking floor (`core.marking_ns_per_burst`).

/// Sentinel meaning "no mark requested".
const NO_MARK: u64 = 0;

/// Marking state for one client-side socket, owned by its splice.
#[derive(Debug, Default)]
pub struct MarkCoordinator {
    /// Bytes handed to the socket by the bursting thread (`s`).
    sent: u64,
    /// Bytes forwarded to the wire by the IPQ thread (`f`).
    forwarded: u64,
    /// Byte number to be marked (`m`); 0 = none pending.
    mark: u64,
}

impl MarkCoordinator {
    /// Fresh coordinator with all counters zero.
    pub fn new() -> MarkCoordinator {
        MarkCoordinator::default()
    }

    /// Bursting thread: `n` more bytes were queued on the socket.
    pub fn on_burst_bytes(&mut self, n: u64) {
        self.sent += n;
    }

    /// Bursting thread: the burst is over — request a mark at the current
    /// send position. Returns the mark offset (total bytes queued so far),
    /// or `None` if nothing has ever been queued (nothing to mark).
    pub fn end_burst(&mut self) -> Option<u64> {
        if self.sent == 0 {
            return None;
        }
        self.mark = self.sent;
        Some(self.sent)
    }

    /// IPQ thread: `n` fresh (non-retransmitted) bytes are about to go to
    /// the wire. Returns `true` if the packet carrying them must be marked.
    ///
    /// # Panics
    /// In debug builds, if the invariant `f ≤ s` would be violated —
    /// forwarding bytes the bursting thread never queued.
    pub fn on_forward(&mut self, n: u64) -> bool {
        self.forwarded += n;
        debug_assert!(
            self.forwarded <= self.sent,
            "marking invariant violated: forwarded {} > sent",
            self.forwarded
        );
        if self.mark != NO_MARK && self.forwarded >= self.mark {
            self.mark = NO_MARK;
            true
        } else {
            false
        }
    }

    /// Current `(sent, forwarded, mark)` snapshot, for assertions/telemetry.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (self.sent, self.forwarded, self.mark)
    }

    /// Bytes queued but not yet forwarded (`s - f`).
    pub fn backlog(&self) -> u64 {
        self.sent - self.forwarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_fires_exactly_at_burst_boundary() {
        let mut mc = MarkCoordinator::new();
        mc.on_burst_bytes(3_000);
        assert_eq!(mc.end_burst(), Some(3_000));
        assert!(!mc.on_forward(1_460));
        assert!(!mc.on_forward(1_460));
        assert!(mc.on_forward(80), "final 80 bytes reach the mark");
        // Mark consumed: nothing further marks.
        mc.on_burst_bytes(1_000);
        assert!(!mc.on_forward(1_000));
    }

    #[test]
    fn empty_burst_requests_no_mark() {
        let mut mc = MarkCoordinator::new();
        assert_eq!(mc.end_burst(), None);
    }

    #[test]
    fn two_bursts_two_marks() {
        let mut mc = MarkCoordinator::new();
        mc.on_burst_bytes(500);
        mc.end_burst();
        assert!(mc.on_forward(500));
        mc.on_burst_bytes(700);
        mc.end_burst();
        assert!(!mc.on_forward(300));
        assert!(mc.on_forward(400));
    }

    #[test]
    fn backlog_tracks_unforwarded() {
        let mut mc = MarkCoordinator::new();
        mc.on_burst_bytes(2_000);
        assert_eq!(mc.backlog(), 2_000);
        mc.on_forward(1_500);
        assert_eq!(mc.backlog(), 500);
    }

    #[test]
    fn second_end_burst_before_forwarding_moves_mark() {
        // If a second burst ends before the first mark is reached, the mark
        // moves to the new boundary (the last packet of the *latest* burst
        // carries it) — matching "valid for exactly one burst interval".
        let mut mc = MarkCoordinator::new();
        mc.on_burst_bytes(1_000);
        mc.end_burst();
        mc.on_burst_bytes(1_000);
        mc.end_burst();
        assert!(!mc.on_forward(1_000), "old boundary no longer marks");
        assert!(mc.on_forward(1_000), "new boundary marks");
    }
}
