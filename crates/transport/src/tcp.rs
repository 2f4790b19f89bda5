//! A compact but real TCP endpoint.
//!
//! Implements what the reproduction needs, faithfully: three-way handshake
//! (the proxy's 8-step interception dance in Figure 3 is built on SYN /
//! SYN-ACK / ACK), cumulative acknowledgment with a sliding window bounded
//! by both the peer's advertised window and Reno congestion control, RTT
//! estimation with Karn's rule, retransmission timeouts with exponential
//! backoff, fast retransmit on three duplicate ACKs, RFC 3042 limited
//! transmit, delayed ACKs (every second in-order segment, or after
//! [`TcpConfig::delack_timeout`]), in-order delivery via reassembly, and
//! FIN teardown.
//!
//! Deliberate simplifications (documented, none affect the paper's
//! phenomena): initial sequence numbers are zero, sequence space is the
//! 64-bit stream offset (+1 for the SYN) so wraparound never occurs for
//! streams under 4 GiB, and RST handling is "tear down immediately".
//!
//! The endpoint is sans-IO: it never touches the event loop. Methods
//! mutate state and buffer outputs; the owning node drains
//! [`TcpEndpoint::packets_mut`] / [`TcpEndpoint::delivered_mut`] /
//! [`TcpEndpoint::events_mut`] in place and arms a timer for
//! [`TcpEndpoint::next_deadline`].

use bytes::Bytes;
use powerburst_sim::{SimDuration, SimTime};

use powerburst_net::{Packet, Proto, SockAddr, TcpFlags, TcpHeader};

use crate::congestion::Reno;
use crate::reassembly::Reassembly;
use crate::rtt::RttEstimator;
use crate::sendbuf::SendBuffer;

/// Tunables for a TCP endpoint.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per packet).
    pub mss: usize,
    /// Receive window advertised to the peer, bytes.
    pub recv_window: u32,
    /// RTO before any RTT sample exists.
    pub initial_rto: SimDuration,
    /// Lower bound on the RTO.
    pub min_rto: SimDuration,
    /// Upper bound on the RTO.
    pub max_rto: SimDuration,
    /// Duplicate ACKs that trigger fast retransmit.
    pub dupack_threshold: u32,
    /// Acknowledge after this many unacked in-order segments (delayed ACK;
    /// RFC 1122 allows every second segment).
    pub delack_segments: u32,
    /// Latest a delayed ACK may wait.
    pub delack_timeout: SimDuration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            recv_window: 65_535,
            initial_rto: SimDuration::from_secs(1),
            min_rto: SimDuration::from_ms(200),
            max_rto: SimDuration::from_secs(60),
            dupack_threshold: 3,
            delack_segments: 2,
            delack_timeout: SimDuration::from_ms(40),
        }
    }
}

/// Connection lifecycle events surfaced to the owning application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpEvent {
    /// Handshake completed.
    Connected,
    /// Peer sent FIN and all its data has been delivered.
    RemoteFin,
    /// Both directions closed (or the connection was reset).
    Closed,
}

/// Connection state (simplified TCP state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// No handshake yet (passive endpoints wait here for a SYN).
    Closed,
    /// Active open: SYN sent.
    SynSent,
    /// Passive open: SYN received, SYN-ACK sent.
    SynRcvd,
    /// Data transfer.
    Established,
    /// Fully terminated.
    Terminated,
}

/// Loss-recovery counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpStats {
    /// Segments retransmitted by RTO.
    pub rto_retransmits: u64,
    /// Segments retransmitted by fast retransmit.
    pub fast_retransmits: u64,
}

/// The endpoint proper.
pub struct TcpEndpoint {
    cfg: TcpConfig,
    local: SockAddr,
    remote: SockAddr,
    state: TcpState,

    sendbuf: SendBuffer,
    reno: Reno,
    rtt: RttEstimator,
    peer_window: u32,
    dupacks: u32,
    /// RTT probe: (stream offset whose ACK completes the sample, send time).
    probe: Option<(u64, SimTime)>,
    rto_deadline: Option<SimTime>,
    /// Pending delayed-ACK deadline and the count of unacked segments.
    delack_deadline: Option<SimTime>,
    unacked_segments: u32,

    reasm: Reassembly,
    /// Stream offset at which the peer's FIN sits, once seen.
    remote_fin_at: Option<u64>,
    remote_fin_consumed: bool,

    /// `close()` called: FIN goes out once the send queue drains.
    fin_queued: bool,
    /// Wire sequence our FIN occupied, once sent.
    fin_sent_wire: Option<u64>,
    fin_acked: bool,

    /// End-of-burst mark request: set `tos_mark` on the segment whose last
    /// byte reaches this stream offset (exclusive). See the proxy's
    /// packet-marking protocol (§3.2.2).
    pending_mark: Option<u64>,

    out: Vec<Packet>,
    delivered: Vec<Bytes>,
    events: Vec<TcpEvent>,
    stats: TcpStats,
}

impl TcpEndpoint {
    /// Active endpoint; call [`TcpEndpoint::connect`] to start.
    pub fn active(local: SockAddr, remote: SockAddr, cfg: TcpConfig) -> TcpEndpoint {
        Self::new(local, remote, cfg)
    }

    /// Passive endpoint: waits in `Closed` for the peer's SYN.
    pub fn passive(local: SockAddr, remote: SockAddr, cfg: TcpConfig) -> TcpEndpoint {
        Self::new(local, remote, cfg)
    }

    fn new(local: SockAddr, remote: SockAddr, cfg: TcpConfig) -> TcpEndpoint {
        TcpEndpoint {
            cfg,
            local,
            remote,
            state: TcpState::Closed,
            sendbuf: SendBuffer::new(),
            reno: Reno::new(cfg.mss),
            rtt: RttEstimator::new(cfg.initial_rto, cfg.min_rto, cfg.max_rto),
            peer_window: cfg.recv_window,
            dupacks: 0,
            probe: None,
            rto_deadline: None,
            delack_deadline: None,
            unacked_segments: 0,
            reasm: Reassembly::new(),
            remote_fin_at: None,
            remote_fin_consumed: false,
            fin_queued: false,
            fin_sent_wire: None,
            fin_acked: false,
            pending_mark: None,
            out: Vec::new(),
            delivered: Vec::new(),
            events: Vec::new(),
            stats: TcpStats::default(),
        }
    }

    // ---- accessors -------------------------------------------------------

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Local socket address.
    pub fn local(&self) -> SockAddr {
        self.local
    }

    /// Remote socket address.
    pub fn remote(&self) -> SockAddr {
        self.remote
    }

    /// Transfer counters.
    pub fn stats(&self) -> &TcpStats {
        &self.stats
    }

    /// Bytes the windows currently allow on the wire beyond the flight.
    pub fn window_available(&self) -> u64 {
        self.reno.cwnd().min(self.peer_window as u64).saturating_sub(self.sendbuf.flight())
    }

    /// Bytes queued but not yet on the wire.
    pub fn unsent(&self) -> u64 {
        self.sendbuf.unsent()
    }

    /// Total stream bytes enqueued by the application so far.
    pub fn stream_len(&self) -> u64 {
        self.sendbuf.stream_len()
    }

    /// Fully terminated?
    pub fn is_terminated(&self) -> bool {
        self.state == TcpState::Terminated
    }

    // ---- output draining --------------------------------------------------

    // Callers drain these buffers in place (`.drain(..)`), so they keep
    // their capacity across interactions.

    /// Packets to put on the wire (ids are 0; the node stamps them).
    pub fn packets_mut(&mut self) -> &mut Vec<Packet> {
        &mut self.out
    }

    /// In-order application data received.
    pub fn delivered_mut(&mut self) -> &mut Vec<Bytes> {
        &mut self.delivered
    }

    /// Lifecycle events since the last drain.
    pub fn events_mut(&mut self) -> &mut Vec<TcpEvent> {
        &mut self.events
    }

    /// When the node should call [`TcpEndpoint::on_tick`].
    pub fn next_deadline(&self) -> Option<SimTime> {
        match (self.rto_deadline, self.delack_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    // ---- application API ---------------------------------------------------

    /// Start the handshake (active open).
    pub fn connect(&mut self, now: SimTime) {
        assert_eq!(self.state, TcpState::Closed, "connect() on a used endpoint");
        self.state = TcpState::SynSent;
        self.emit_syn(false);
        self.arm_rto(now);
    }

    /// Queue application data and try to transmit.
    pub fn send(&mut self, now: SimTime, data: Bytes) {
        assert!(!self.fin_queued, "send() after close()");
        self.sendbuf.enqueue(data);
        self.try_output(now);
    }

    /// Request an end-of-burst ToS mark on the segment whose payload ends
    /// at stream offset `offset` (exclusive end); `set_mark(stream_len())`
    /// marks the current end of the enqueued stream.
    pub fn set_mark(&mut self, offset: u64) {
        self.pending_mark = Some(offset);
    }

    /// True while a requested mark has not yet gone out on a segment.
    pub fn has_pending_mark(&self) -> bool {
        self.pending_mark.is_some()
    }

    /// Graceful close: FIN after the queue drains.
    pub fn close(&mut self, now: SimTime) {
        self.fin_queued = true;
        self.try_output(now);
    }

    /// Hard reset.
    pub fn reset(&mut self, _now: SimTime) {
        let mut h = self.header(TcpFlags::RST);
        h.seq = self.wire_seq(self.sendbuf.nxt());
        self.push_packet(h, Bytes::new(), false);
        self.terminate();
    }

    // ---- wire input ---------------------------------------------------------

    /// Feed a packet addressed to this endpoint.
    pub fn on_packet(&mut self, now: SimTime, pkt: &Packet) {
        debug_assert_eq!(pkt.proto, Proto::Tcp);
        let Some(h) = pkt.tcp else { return };

        if h.flags.contains(TcpFlags::RST) {
            self.terminate();
            return;
        }
        self.peer_window = h.window;

        let syn = h.flags.contains(TcpFlags::SYN);
        let ack = h.flags.contains(TcpFlags::ACK);
        let fin = h.flags.contains(TcpFlags::FIN);

        match self.state {
            TcpState::Closed => {
                if syn && !ack {
                    // Passive open.
                    self.state = TcpState::SynRcvd;
                    self.emit_syn(true);
                    self.arm_rto(now);
                }
                return;
            }
            TcpState::SynSent => {
                if syn && ack {
                    self.state = TcpState::Established;
                    self.events.push(TcpEvent::Connected);
                    self.emit_ack();
                    self.rto_deadline = None;
                    self.try_output(now);
                }
                return;
            }
            TcpState::SynRcvd => {
                if syn && !ack {
                    // Duplicate SYN: repeat the SYN-ACK.
                    self.emit_syn(true);
                    return;
                }
                if ack {
                    self.state = TcpState::Established;
                    self.events.push(TcpEvent::Connected);
                    self.rto_deadline = None;
                    // Fall through: the ACK may carry data.
                } else {
                    return;
                }
            }
            TcpState::Established => {}
            TcpState::Terminated => return,
        }

        // ---- ACK processing (established) ----
        if ack {
            self.process_ack(now, &h, pkt.payload.is_empty() && !syn && !fin);
        }

        // ---- payload ----
        if !pkt.payload.is_empty() {
            let offset = h.seq.saturating_sub(1); // SYN occupies wire seq 0
                                                  // Released data lands straight in `delivered` — no per-segment
                                                  // scratch Vec.
            let out_of_order =
                self.reasm.insert(offset, pkt.payload.clone(), &mut self.delivered) == 0;
            self.check_remote_fin();
            if out_of_order {
                // Immediate (duplicate) ACK so the sender's fast
                // retransmit can fire.
                self.emit_ack();
            } else {
                self.unacked_segments += 1;
                if self.unacked_segments >= self.cfg.delack_segments {
                    self.emit_ack();
                } else if self.delack_deadline.is_none() {
                    self.delack_deadline = Some(now + self.cfg.delack_timeout);
                }
            }
        }

        if fin {
            let fin_stream = h.seq.saturating_sub(1) + pkt.payload.len() as u64;
            self.remote_fin_at = Some(fin_stream);
            self.check_remote_fin();
            self.emit_ack();
        }

        self.try_output(now);
        self.maybe_terminate();
    }

    /// Timer expiry: flush a delayed ACK and/or retransmit.
    pub fn on_tick(&mut self, now: SimTime) {
        if let Some(d) = self.delack_deadline {
            if now >= d {
                self.emit_ack();
            }
        }
        let Some(deadline) = self.rto_deadline else { return };
        if now < deadline {
            return;
        }
        self.rto_deadline = None;
        match self.state {
            TcpState::SynSent => {
                self.emit_syn(false);
                self.rtt.backoff();
                self.arm_rto(now);
            }
            TcpState::SynRcvd => {
                self.emit_syn(true);
                self.rtt.backoff();
                self.arm_rto(now);
            }
            TcpState::Established => {
                if let Some((off, seg)) = self.sendbuf.oldest_inflight() {
                    let flight = self.sendbuf.flight();
                    self.reno.on_timeout(flight);
                    self.rtt.backoff();
                    self.probe = None; // Karn: no sampling across retransmits
                    self.stats.rto_retransmits += 1;
                    self.emit_data(off, seg);
                    self.arm_rto(now);
                } else if self.fin_sent_wire.is_some() && !self.fin_acked {
                    self.emit_fin();
                    self.rtt.backoff();
                    self.arm_rto(now);
                }
            }
            _ => {}
        }
    }

    // ---- internals -----------------------------------------------------------

    fn process_ack(&mut self, now: SimTime, h: &TcpHeader, pure_ack: bool) {
        let ack_wire = h.ack;
        // FIN consumes one sequence number past the data.
        if let Some(fin_wire) = self.fin_sent_wire {
            if ack_wire > fin_wire && !self.fin_acked {
                self.fin_acked = true;
            }
        }
        let ack_stream = ack_wire.saturating_sub(1).min(self.sendbuf.stream_len());
        let newly = self.sendbuf.ack(ack_stream);
        if newly > 0 {
            self.dupacks = 0;
            self.reno.on_ack(newly);
            if let Some((probe_end, sent_at)) = self.probe {
                if ack_stream >= probe_end {
                    self.rtt.sample(now.since(sent_at));
                    self.probe = None;
                }
            }
            // Restart the RTO for remaining flight.
            self.rto_deadline = None;
            if self.sendbuf.has_inflight() || (self.fin_sent_wire.is_some() && !self.fin_acked) {
                self.arm_rto(now);
            }
        } else if pure_ack && self.sendbuf.has_inflight() && ack_stream == self.sendbuf.una() {
            self.dupacks += 1;
            if self.dupacks == self.cfg.dupack_threshold {
                if let Some((off, seg)) = self.sendbuf.oldest_inflight() {
                    let flight = self.sendbuf.flight();
                    self.reno.on_fast_retransmit(flight);
                    self.probe = None;
                    self.stats.fast_retransmits += 1;
                    self.emit_data(off, seg);
                    self.rto_deadline = None;
                    self.arm_rto(now);
                }
            } else if self.dupacks < self.cfg.dupack_threshold && self.sendbuf.unsent() > 0 {
                // RFC 3042 limited transmit: send one fresh segment per
                // early duplicate ACK so fast retransmit can still trigger
                // on small windows / tail losses.
                if let Some((off, seg)) = self.sendbuf.next_segment(self.cfg.mss) {
                    if self.probe.is_none() {
                        self.probe = Some((off + seg.len() as u64, now));
                    }
                    self.emit_data(off, seg);
                }
            }
        }
    }

    fn check_remote_fin(&mut self) {
        if self.remote_fin_consumed {
            return;
        }
        if let Some(fin_at) = self.remote_fin_at {
            if self.reasm.next_expected() >= fin_at {
                self.remote_fin_consumed = true;
                self.events.push(TcpEvent::RemoteFin);
            }
        }
    }

    fn maybe_terminate(&mut self) {
        if self.state == TcpState::Established
            && self.remote_fin_consumed
            && self.fin_sent_wire.is_some()
            && self.fin_acked
        {
            self.terminate();
        }
    }

    fn terminate(&mut self) {
        if self.state != TcpState::Terminated {
            self.state = TcpState::Terminated;
            self.rto_deadline = None;
            self.events.push(TcpEvent::Closed);
        }
    }

    /// Wire sequence for a stream offset (SYN shifts everything by one).
    fn wire_seq(&self, stream_offset: u64) -> u64 {
        stream_offset + 1
    }

    /// Our cumulative ACK value: everything in-order received, plus SYN,
    /// plus the peer's FIN once consumed.
    fn rcv_ack_wire(&self) -> u64 {
        let fin = if self.remote_fin_consumed { 1 } else { 0 };
        self.reasm.next_expected() + 1 + fin
    }

    fn header(&self, flags: TcpFlags) -> TcpHeader {
        TcpHeader { seq: 0, ack: 0, flags, window: self.cfg.recv_window }
    }

    fn push_packet(&mut self, header: TcpHeader, payload: Bytes, mark: bool) {
        let mut pkt = Packet::tcp(0, self.local, self.remote, header, payload);
        pkt.tos_mark = mark;
        self.out.push(pkt);
    }

    fn emit_syn(&mut self, with_ack: bool) {
        let flags = if with_ack { TcpFlags::SYN.union(TcpFlags::ACK) } else { TcpFlags::SYN };
        let mut h = self.header(flags);
        h.seq = 0;
        if with_ack {
            h.ack = 1; // acking the peer's SYN
        }
        self.push_packet(h, Bytes::new(), false);
    }

    fn emit_ack(&mut self) {
        self.unacked_segments = 0;
        self.delack_deadline = None;
        let mut h = self.header(TcpFlags::ACK);
        h.seq = self.wire_seq(self.sendbuf.nxt());
        h.ack = self.rcv_ack_wire();
        self.push_packet(h, Bytes::new(), false);
    }

    fn emit_data(&mut self, offset: u64, data: Bytes) {
        let end = offset + data.len() as u64;
        let mark = match self.pending_mark {
            Some(m) if end >= m && offset < m => {
                self.pending_mark = None;
                true
            }
            _ => false,
        };
        let mut h = self.header(TcpFlags::ACK);
        h.seq = self.wire_seq(offset);
        h.ack = self.rcv_ack_wire();
        self.push_packet(h, data, mark);
    }

    fn emit_fin(&mut self) {
        let fin_wire = self.wire_seq(self.sendbuf.stream_len());
        self.fin_sent_wire = Some(fin_wire);
        let mut h = self.header(TcpFlags::FIN.union(TcpFlags::ACK));
        h.seq = fin_wire;
        h.ack = self.rcv_ack_wire();
        self.push_packet(h, Bytes::new(), false);
    }

    /// Push as much new data as windows allow; then FIN if due.
    fn try_output(&mut self, now: SimTime) {
        if self.state != TcpState::Established {
            return;
        }
        let window = self.reno.cwnd().min(self.peer_window as u64);
        while self.sendbuf.unsent() > 0 {
            let flight = self.sendbuf.flight();
            if flight >= window {
                break;
            }
            let budget = ((window - flight) as usize).min(self.cfg.mss);
            let Some((off, seg)) = self.sendbuf.next_segment(budget) else { break };
            if self.probe.is_none() {
                self.probe = Some((off + seg.len() as u64, now));
            }
            self.emit_data(off, seg);
        }
        if self.fin_queued && self.sendbuf.unsent() == 0 && self.fin_sent_wire.is_none() {
            self.emit_fin();
        }
        if self.rto_deadline.is_none()
            && (self.sendbuf.has_inflight() || (self.fin_sent_wire.is_some() && !self.fin_acked))
        {
            self.arm_rto(now);
        }
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = Some(now + self.rtt.rto());
    }
}
