//! An in-memory test channel for driving two [`TcpEndpoint`]s against each
//! other without a full network world: fixed one-way delay, a deterministic
//! per-packet drop predicate, and a miniature event loop that honors
//! endpoint retransmission deadlines.
//!
//! Used heavily by the TCP unit and property tests; also handy downstream
//! for quick protocol experiments.

use bytes::Bytes;
use powerburst_sim::{EventQueue, SimDuration, SimTime};

use powerburst_net::Packet;

use crate::tcp::TcpEndpoint;

/// Per-packet drop predicate: `(running index, packet) -> drop?`.
type DropFn = Box<dyn FnMut(u64, &Packet) -> bool>;

/// Which endpoint a queued packet is heading to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dest {
    A,
    B,
}

/// The loopback channel.
pub struct Loopback {
    /// Endpoint "A" (conventionally the client / active opener).
    pub a: TcpEndpoint,
    /// Endpoint "B" (conventionally the server / passive opener).
    pub b: TcpEndpoint,
    now: SimTime,
    delay: SimDuration,
    queue: EventQueue<(Dest, Packet)>,
    /// Called with a running packet index; `true` drops the packet.
    drop_fn: DropFn,
    sent: u64,
}

impl Loopback {
    /// New channel with the given one-way delay and no loss.
    pub fn new(a: TcpEndpoint, b: TcpEndpoint, delay: SimDuration) -> Loopback {
        Loopback {
            a,
            b,
            now: SimTime::ZERO,
            delay,
            queue: EventQueue::new(),
            drop_fn: Box::new(|_, _| false),
            sent: 0,
        }
    }

    /// Install a deterministic drop predicate.
    pub fn with_loss(mut self, f: impl FnMut(u64, &Packet) -> bool + 'static) -> Loopback {
        self.drop_fn = Box::new(f);
        self
    }

    /// Current channel time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn flush(&mut self) {
        let at = self.now + self.delay;
        for (ep, dest) in [(&mut self.a, Dest::B), (&mut self.b, Dest::A)] {
            for pkt in ep.packets_mut().drain(..) {
                let idx = self.sent;
                self.sent += 1;
                if !(self.drop_fn)(idx, &pkt) {
                    self.queue.push(at, (dest, pkt));
                }
            }
        }
    }

    /// Advance one event (packet arrival or timer). Returns `false` when
    /// nothing remains to do.
    pub fn step(&mut self) -> bool {
        self.flush();
        // Earliest among queued packets and the two endpoint deadlines.
        let pkt_t = self.queue.peek_time();
        let a_t = self.a.next_deadline();
        let b_t = self.b.next_deadline();
        let next = [pkt_t, a_t, b_t].into_iter().flatten().min();
        let Some(t) = next else { return false };
        self.now = self.now.max(t);
        if pkt_t == Some(t) {
            let (_, (dest, pkt)) =
                self.queue.pop().expect("invariant: peek_time saw a queued packet");
            match dest {
                Dest::A => self.a.on_packet(self.now, &pkt),
                Dest::B => self.b.on_packet(self.now, &pkt),
            }
        } else if a_t == Some(t) {
            self.a.on_tick(self.now);
        } else {
            self.b.on_tick(self.now);
        }
        self.flush();
        true
    }

    /// Run until quiescent or `max_steps` events have been processed.
    /// Returns the number of steps taken.
    pub fn run(&mut self, max_steps: usize) -> usize {
        let mut steps = 0;
        while steps < max_steps && self.step() {
            steps += 1;
        }
        steps
    }

    /// Drain all in-order data delivered to B, concatenated.
    pub fn b_received(&mut self) -> Vec<u8> {
        concat(self.b.delivered_mut())
    }

    /// Drain all in-order data delivered to A, concatenated.
    pub fn a_received(&mut self) -> Vec<u8> {
        concat(self.a.delivered_mut())
    }
}

fn concat(chunks: &mut Vec<Bytes>) -> Vec<u8> {
    let total: usize = chunks.iter().map(|c| c.len()).sum();
    let mut out = Vec::with_capacity(total);
    for c in chunks.drain(..) {
        out.extend_from_slice(&c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{TcpConfig, TcpEndpoint, TcpEvent, TcpState};
    use powerburst_net::{HostAddr, SockAddr};

    fn pair(cfg: TcpConfig) -> Loopback {
        let a = TcpEndpoint::active(
            SockAddr::new(HostAddr(1), 1000),
            SockAddr::new(HostAddr(2), 80),
            cfg,
        );
        let b = TcpEndpoint::passive(
            SockAddr::new(HostAddr(2), 80),
            SockAddr::new(HostAddr(1), 1000),
            cfg,
        );
        Loopback::new(a, b, SimDuration::from_ms(5))
    }

    fn payload(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn handshake_completes() {
        let mut lo = pair(TcpConfig::default());
        lo.a.connect(SimTime::ZERO);
        lo.run(100);
        assert_eq!(lo.a.state(), TcpState::Established);
        assert_eq!(lo.b.state(), TcpState::Established);
        assert!(lo.a.events_mut().contains(&TcpEvent::Connected));
        assert!(lo.b.events_mut().contains(&TcpEvent::Connected));
    }

    #[test]
    fn lossless_bulk_transfer() {
        let mut lo = pair(TcpConfig::default());
        lo.a.connect(SimTime::ZERO);
        lo.run(50);
        let data = payload(100_000);
        let now = lo.now();
        lo.a.send(now, data.clone());
        lo.run(100_000);
        assert_eq!(lo.b_received(), &data[..]);
        assert_eq!(lo.a.stats().rto_retransmits, 0);
        assert_eq!(lo.a.stats().fast_retransmits, 0);
    }

    #[test]
    fn bidirectional_transfer() {
        let mut lo = pair(TcpConfig::default());
        lo.a.connect(SimTime::ZERO);
        lo.run(50);
        let up = payload(5_000);
        let down = payload(8_000);
        let now = lo.now();
        lo.a.send(now, up.clone());
        lo.b.send(now, down.clone());
        lo.run(50_000);
        assert_eq!(lo.b_received(), &up[..]);
        assert_eq!(lo.a_received(), &down[..]);
    }

    #[test]
    fn single_loss_recovers_by_fast_retransmit() {
        let mut lo = pair(TcpConfig::default());
        lo.a.connect(SimTime::ZERO);
        lo.run(50);
        let data = payload(200_000);
        let now = lo.now();
        lo.a.send(now, data.clone());
        // Drop exactly one mid-stream data packet.
        let mut lo = {
            let mut dropped_once = false;
            let f = move |idx: u64, pkt: &Packet| {
                if !dropped_once && idx == 40 && !pkt.payload.is_empty() {
                    dropped_once = true;
                    true
                } else {
                    false
                }
            };
            // Rebuild with the predicate while keeping endpoints/state.
            Loopback { drop_fn: Box::new(f), ..lo }
        };
        lo.run(100_000);
        assert_eq!(lo.b_received(), &data[..]);
        assert!(
            lo.a.stats().fast_retransmits >= 1,
            "expected fast retransmit, stats {:?}",
            lo.a.stats()
        );
    }

    #[test]
    fn periodic_loss_still_delivers_everything() {
        let cfg = TcpConfig::default();
        let mut lo = pair(cfg).with_loss(|idx, _| idx % 20 == 7);
        lo.a.connect(SimTime::ZERO);
        lo.run(200);
        let data = payload(150_000);
        let now = lo.now();
        lo.a.send(now, data.clone());
        lo.run(500_000);
        assert_eq!(lo.b_received(), &data[..]);
        let st = lo.a.stats();
        assert!(st.fast_retransmits + st.rto_retransmits > 0);
    }

    #[test]
    fn blackout_triggers_rto_backoff_then_recovery() {
        // Drop everything in a window of packet indices (a "sleeping
        // client" blackout), then let traffic through.
        let mut lo = pair(TcpConfig::default()).with_loss(|idx, _| (20..40).contains(&idx));
        lo.a.connect(SimTime::ZERO);
        lo.run(50);
        let data = payload(120_000);
        let now = lo.now();
        lo.a.send(now, data.clone());
        lo.run(500_000);
        assert_eq!(lo.b_received(), &data[..]);
        assert!(lo.a.stats().rto_retransmits >= 1, "stats {:?}", lo.a.stats());
    }

    #[test]
    fn fin_teardown_both_sides() {
        let mut lo = pair(TcpConfig::default());
        lo.a.connect(SimTime::ZERO);
        lo.run(50);
        let now = lo.now();
        lo.a.send(now, payload(10_000));
        lo.a.close(now);
        lo.run(50_000);
        // B saw the FIN after all data.
        assert!(lo.b.events_mut().contains(&TcpEvent::RemoteFin));
        let now = lo.now();
        lo.b.close(now);
        lo.run(50_000);
        assert!(lo.a.is_terminated(), "a state {:?}", lo.a.state());
        assert!(lo.b.is_terminated(), "b state {:?}", lo.b.state());
    }

    #[test]
    fn tos_mark_lands_on_requested_boundary() {
        use std::cell::RefCell;
        use std::rc::Rc;
        // Observe marked segments via the (non-dropping) loss predicate,
        // which sees every packet on the channel.
        let marked: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let probe = Rc::clone(&marked);
        let mut lo = pair(TcpConfig::default()).with_loss(move |_, p| {
            if p.tos_mark {
                let h = p.tcp.unwrap();
                probe.borrow_mut().push(h.seq - 1 + p.payload.len() as u64);
            }
            false
        });
        lo.a.connect(SimTime::ZERO);
        lo.run(50);
        let now = lo.now();
        lo.a.send(now, payload(4_000));
        lo.a.set_mark(lo.a.stream_len());
        lo.run(20_000);
        // Exactly one mark, on the segment whose payload ends at byte 4000.
        assert_eq!(*marked.borrow(), vec![4_000]);
    }

    #[test]
    fn throughput_is_window_limited_over_long_rtt() {
        // 64 KB window over a 250 ms RTT can't exceed ~2.1 Mbit/s. Verify
        // the endpoint honors that (the phenomenon behind the paper's
        // split-connection design).
        let cfg = TcpConfig::default();
        let a =
            TcpEndpoint::active(SockAddr::new(HostAddr(1), 1), SockAddr::new(HostAddr(2), 2), cfg);
        let b =
            TcpEndpoint::passive(SockAddr::new(HostAddr(2), 2), SockAddr::new(HostAddr(1), 1), cfg);
        let mut lo = Loopback::new(a, b, SimDuration::from_ms(125));
        lo.a.connect(SimTime::ZERO);
        lo.run(50);
        let data = payload(400_000);
        let now = lo.now();
        lo.a.send(now, data.clone());
        lo.run(500_000);
        let got = lo.b_received();
        assert_eq!(got, &data[..]);
        let elapsed = lo.now().as_secs_f64();
        let mbps = 400_000.0 * 8.0 / elapsed / 1e6;
        assert!(mbps < 2.5, "throughput {mbps} Mb/s exceeds window limit");
        assert!(mbps > 0.5, "throughput {mbps} Mb/s suspiciously low");
    }

    #[test]
    fn reset_terminates_peer() {
        let mut lo = pair(TcpConfig::default());
        lo.a.connect(SimTime::ZERO);
        lo.run(50);
        let now = lo.now();
        lo.a.reset(now);
        lo.run(100);
        assert!(lo.a.is_terminated());
        assert!(lo.b.is_terminated());
    }
}
