//! Streaming-video workload: a RealServer-style VBR source and the matching
//! client player.
//!
//! The paper streams a 1:59 trailer encoded at nominal 56/128/256/512 kbps,
//! whose *effective* bitrates are 34/80/225/450 kbps (§4.1). We generate a
//! seeded VBR packet schedule with GOP-scale burstiness (large I-frames on a
//! 12-frame cadence), slow scene-level modulation, and per-frame noise,
//! targeting the effective bitrate.
//!
//! RealServer's behaviour under loss matters to Figure 4's 512 kbps
//! anomaly: "This causes RealServer to believe that the connection is lossy,
//! and the stream is adapted to a lower-quality, lower-bandwidth one"
//! (§4.3). The client player therefore sends 1 Hz receiver reports, and the
//! server downshifts the fidelity ladder when reported loss stays high.

use std::any::Any;

use powerburst_sim::{SimDuration, SimTime};
use rand::Rng;

use powerburst_net::{
    ports, Ctx, IfaceId, Node, Packet, Proto, ReceiverReport, SockAddr, TimerToken,
};
use powerburst_transport::{StreamPayload, STREAM_HEADER};

use crate::app::{App, APP_TOKEN, CLIENT_RADIO};

/// The paper's fidelity ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Fidelity {
    /// Nominal 56 kbps (effective 34 kbps).
    K56,
    /// Nominal 128 kbps (effective 80 kbps).
    K128,
    /// Nominal 256 kbps (effective 225 kbps).
    K256,
    /// Nominal 512 kbps (effective 450 kbps).
    K512,
}

impl Fidelity {
    /// Effective delivered rate, bits/s (§4.1: "the effective bitrates of
    /// these streams are 34kbps, 80kbps, 225kbps, and 450kbps").
    pub fn effective_bps(self) -> f64 {
        match self {
            Fidelity::K56 => 34_000.0,
            Fidelity::K128 => 80_000.0,
            Fidelity::K256 => 225_000.0,
            Fidelity::K512 => 450_000.0,
        }
    }

    /// Frame rate used by the generator.
    pub fn fps(self) -> u32 {
        match self {
            Fidelity::K56 => 8,
            Fidelity::K128 => 10,
            Fidelity::K256 => 12,
            Fidelity::K512 => 15,
        }
    }

    /// One step down the ladder, if any.
    pub fn lower(self) -> Option<Fidelity> {
        match self {
            Fidelity::K56 => None,
            Fidelity::K128 => Some(Fidelity::K56),
            Fidelity::K256 => Some(Fidelity::K128),
            Fidelity::K512 => Some(Fidelity::K256),
        }
    }

    /// Short label for tables ("56K"…).
    pub fn label(self) -> &'static str {
        match self {
            Fidelity::K56 => "56K",
            Fidelity::K128 => "128K",
            Fidelity::K256 => "256K",
            Fidelity::K512 => "512K",
        }
    }
}

/// One provisioned stream on the video server.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Destination client endpoint.
    pub client: SockAddr,
    /// Requested fidelity.
    pub fidelity: Fidelity,
    /// When the stream starts (the paper staggers requests ~1 s apart).
    pub start: SimTime,
    /// Stream duration (the trailer is 1:59).
    pub duration: SimDuration,
    /// Flow id carried in every packet.
    pub flow: u64,
}

/// VBR frame-size generator.
#[derive(Debug, Clone)]
struct VbrShape {
    gop_len: u32,
    i_frame_scale: f64,
    scene_period_s: f64,
    scene_depth: f64,
    scene_phase: f64,
    noise: f64,
}

impl VbrShape {
    fn new<R: Rng + ?Sized>(rng: &mut R) -> VbrShape {
        VbrShape {
            gop_len: 12,
            i_frame_scale: 2.8,
            scene_period_s: rng.random_range(12.0..25.0),
            scene_depth: 0.25,
            scene_phase: rng.random_range(0.0..std::f64::consts::TAU),
            noise: 0.10,
        }
    }

    /// Frame size in bytes for frame `n` of a stream with the given mean
    /// bytes-per-frame.
    fn frame_bytes<R: Rng + ?Sized>(&self, rng: &mut R, n: u64, t_s: f64, mean: f64) -> usize {
        // GOP pattern normalized to mean 1.
        let p_scale = (self.gop_len as f64 - self.i_frame_scale) / (self.gop_len as f64 - 1.0);
        let gop = if n.is_multiple_of(self.gop_len as u64) { self.i_frame_scale } else { p_scale };
        let scene = 1.0
            + self.scene_depth
                * (std::f64::consts::TAU * t_s / self.scene_period_s + self.scene_phase).sin();
        let noise = 1.0 + self.noise * (rng.random::<f64>() * 2.0 - 1.0);
        (mean * gop * scene * noise).round().max(64.0) as usize
    }
}

/// Runtime state of one stream.
struct StreamState {
    spec: StreamSpec,
    current: Fidelity,
    shape: VbrShape,
    frame: u64,
    seq: u64,
    /// Consecutive lossy receiver reports.
    lossy_reports: u32,
    downshifts: u32,
    done: bool,
}

/// Maximum UDP payload per stream packet (media packets are mid-sized).
pub const MAX_STREAM_PAYLOAD: usize = 700;

/// RealServer's loss adaptation: a receiver report whose interval loss
/// exceeds this fraction counts as lossy.
const LOSS_THRESHOLD: f64 = 0.10;
/// Consecutive lossy reports that downshift a stream.
const LOSSY_REPORTS_TO_DOWNSHIFT: u32 = 3;
/// Downshifts allowed per stream (RealServer switches to *a* lower
/// encoding, not down a whole cascade).
const MAX_DOWNSHIFTS: u32 = 1;

/// The streaming server node.
pub struct VideoServer {
    addr: SockAddr,
    streams: Vec<StreamState>,
    /// `(flow, stream index)` sorted by flow, one entry per flow (its
    /// first stream), so a receiver report finds its stream by binary
    /// search.
    by_flow: Vec<(u64, usize)>,
    /// Per-stream last-report bookkeeping: (highest_seq, received) at the
    /// previous report, to compute per-interval loss.
    last_report: Vec<(u64, u64)>,
}

impl VideoServer {
    /// Build a server at `addr` serving `streams`.
    pub fn new<R: Rng + ?Sized>(
        addr: SockAddr,
        streams: Vec<StreamSpec>,
        rng: &mut R,
    ) -> VideoServer {
        let n = streams.len();
        let mut by_flow: Vec<(u64, usize)> =
            streams.iter().enumerate().map(|(i, s)| (s.flow, i)).collect();
        // Sorting by (flow, index) puts each flow's first stream first;
        // dedup keeps exactly that one.
        by_flow.sort_unstable();
        by_flow.dedup_by_key(|&mut (flow, _)| flow);
        VideoServer {
            addr,
            streams: streams
                .into_iter()
                .map(|spec| StreamState {
                    current: spec.fidelity,
                    shape: VbrShape::new(rng),
                    frame: 0,
                    seq: 0,
                    lossy_reports: 0,
                    downshifts: 0,
                    done: false,
                    spec,
                })
                .collect(),
            by_flow,
            last_report: vec![(0, 0); n],
        }
    }

    /// Current fidelity of stream `i` (may be below the request after
    /// adaptation).
    pub fn current_fidelity(&self, i: usize) -> Fidelity {
        self.streams[i].current
    }

    /// Number of downshifts stream `i` suffered.
    pub fn downshifts(&self, i: usize) -> u32 {
        self.streams[i].downshifts
    }

    fn frame_interval(f: Fidelity) -> SimDuration {
        SimDuration::from_us(1_000_000 / f.fps() as u64)
    }

    fn emit_frame(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let now = ctx.now();
        let st = &mut self.streams[idx];
        if st.done {
            return;
        }
        let elapsed = now.since(st.spec.start);
        if elapsed >= st.spec.duration {
            st.done = true;
            return;
        }
        let fid = st.current;
        let mean_frame = fid.effective_bps() / 8.0 / fid.fps() as f64;
        let t_s = elapsed.as_secs_f64();
        let frame_no = st.frame;
        st.frame += 1;
        let total = st.shape.frame_bytes(ctx.rng(), frame_no, t_s, mean_frame);
        // Packetize the frame.
        let mut remaining = total;
        let flow = st.spec.flow;
        let client = st.spec.client;
        while remaining > 0 {
            let body = remaining.min(MAX_STREAM_PAYLOAD - STREAM_HEADER);
            let seq = self.streams[idx].seq;
            self.streams[idx].seq += 1;
            let payload = StreamPayload { flow, seq }.encode(body);
            let pkt = Packet::udp(0, self.addr, client, payload);
            ctx.send_assigning(IfaceId(0), pkt);
            remaining -= body;
            if body == 0 {
                break;
            }
        }
        // Schedule the next frame.
        ctx.set_timer(Self::frame_interval(fid), idx as TimerToken);
    }

    fn on_report(&mut self, flow: u64, highest: u64, received: u64) {
        let Ok(at) = self.by_flow.binary_search_by_key(&flow, |&(f, _)| f) else {
            return;
        };
        let idx = self.by_flow[at].1;
        let (prev_high, prev_recv) = self.last_report[idx];
        self.last_report[idx] = (highest, received);
        let expected = highest.saturating_sub(prev_high);
        let got = received.saturating_sub(prev_recv);
        if expected == 0 {
            return;
        }
        let loss = 1.0 - (got as f64 / expected as f64).min(1.0);
        let st = &mut self.streams[idx];
        if loss > LOSS_THRESHOLD {
            st.lossy_reports += 1;
            if st.lossy_reports >= LOSSY_REPORTS_TO_DOWNSHIFT {
                if st.downshifts < MAX_DOWNSHIFTS {
                    if let Some(lower) = st.current.lower() {
                        st.current = lower;
                        st.downshifts += 1;
                    }
                }
                st.lossy_reports = 0;
            }
        } else {
            st.lossy_reports = 0;
        }
    }
}

impl Node for VideoServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, st) in self.streams.iter().enumerate() {
            ctx.set_timer(st.spec.start.since(SimTime::ZERO), i as TimerToken);
        }
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, pkt: Packet) {
        if pkt.proto == Proto::Udp && pkt.dst.port == ports::FEEDBACK {
            if let Some(r) = ReceiverReport::decode(&pkt.payload) {
                self.on_report(r.flow, r.highest_seq, r.received);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let idx = token as usize;
        if idx < self.streams.len() {
            self.emit_frame(ctx, idx);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Per-flow receive accounting on the player.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlayerStats {
    /// Packets received.
    pub received: u64,
    /// Highest sequence number seen (+1), i.e. packets the server sent
    /// that we know about.
    pub highest_plus_one: u64,
    /// Payload bytes received.
    pub bytes: u64,
}

impl PlayerStats {
    /// Fraction of known-sent packets that never arrived.
    pub fn loss_fraction(&self) -> f64 {
        if self.highest_plus_one == 0 {
            return 0.0;
        }
        1.0 - self.received as f64 / self.highest_plus_one as f64
    }
}

/// The client-side player app: counts stream packets, sends 1 Hz receiver
/// reports back to the server (RealOne → RealServer feedback channel).
pub struct VideoClientApp {
    me: SockAddr,
    server: SockAddr,
    flow: u64,
    /// Receiver-report interval.
    report_every: SimDuration,
    stats: PlayerStats,
    /// Playout drain rate in bits/sec; `Some` switches the app to the
    /// 32-byte buffer-extended report format (see
    /// `powerburst_net::feedback`). `None` keeps the legacy 24-byte
    /// reports — and therefore byte-identical golden traces.
    drain_bps: Option<u64>,
    /// Modelled playout-buffer occupancy, bytes.
    buffer_bytes: u64,
    /// When the buffer was last drained (µs of sim time).
    last_drain_us: u64,
}

const REPORT_TIMER: TimerToken = APP_TOKEN | 1;

impl VideoClientApp {
    /// New player for `flow`, reporting to `server`.
    pub fn new(me: SockAddr, server: SockAddr, flow: u64) -> VideoClientApp {
        VideoClientApp {
            me,
            server,
            flow,
            report_every: SimDuration::from_secs(1),
            stats: PlayerStats::default(),
            drain_bps: None,
            buffer_bytes: 0,
            last_drain_us: 0,
        }
    }

    /// Enable buffer-occupancy reporting: model a playout buffer draining
    /// at `drain_bps` (the stream's nominal encoding rate) and switch
    /// receiver reports to the 32-byte buffer-extended layout.
    pub fn with_buffer_reports(mut self, drain_bps: u64) -> VideoClientApp {
        self.drain_bps = Some(drain_bps.max(1));
        self
    }

    /// Receive accounting so far.
    pub fn stats(&self) -> PlayerStats {
        self.stats
    }

    /// Modelled playout-buffer occupancy, bytes (0 unless buffer
    /// reporting is enabled).
    pub fn buffer_bytes(&self) -> u64 {
        self.buffer_bytes
    }

    /// Drain the modelled playout buffer up to sim time `now_us`.
    fn drain_to(&mut self, now_us: u64) {
        let Some(bps) = self.drain_bps else { return };
        let dt = now_us.saturating_sub(self.last_drain_us);
        self.last_drain_us = now_us;
        // bits consumed = bps * dt_us / 1e6; bytes = /8. Integer math only.
        let consumed = bps.saturating_mul(dt) / 8_000_000;
        self.buffer_bytes = self.buffer_bytes.saturating_sub(consumed);
    }
}

impl App for VideoClientApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Randomize the report phase (as RTCP does) so ten players never
        // transmit receiver reports in the same instant and jam the medium
        // right when the proxy broadcasts its schedule.
        let phase_us = ctx.rng().random_range(200_000..1_200_000);
        ctx.set_timer(powerburst_sim::SimDuration::from_us(phase_us), REPORT_TIMER);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if pkt.proto != Proto::Udp {
            return;
        }
        let Some(sp) = StreamPayload::decode(&pkt.payload) else { return };
        if sp.flow != self.flow {
            return;
        }
        self.stats.received += 1;
        self.stats.bytes += pkt.payload.len() as u64;
        self.stats.highest_plus_one = self.stats.highest_plus_one.max(sp.seq + 1);
        if self.drain_bps.is_some() {
            self.drain_to(ctx.now().as_us());
            self.buffer_bytes = self.buffer_bytes.saturating_add(pkt.payload.len() as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if token != REPORT_TIMER {
            return;
        }
        self.drain_to(ctx.now().as_us());
        let report = ReceiverReport {
            flow: self.flow,
            highest_seq: self.stats.highest_plus_one,
            received: self.stats.received,
            buffer_bytes: self.drain_bps.map(|_| self.buffer_bytes),
        }
        .encode();
        let dst = SockAddr::new(self.server.host, ports::FEEDBACK);
        let pkt = Packet::udp(0, self.me, dst, report);
        ctx.send_assigning(CLIENT_RADIO, pkt);
        let jitter_us = ctx.rng().random_range(0..100_000);
        ctx.set_timer(
            self.report_every + powerburst_sim::SimDuration::from_us(jitter_us),
            REPORT_TIMER,
        );
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerburst_sim::derive_rng;

    #[test]
    fn ladder_ordering_and_labels() {
        assert!(Fidelity::K56.effective_bps() < Fidelity::K512.effective_bps());
        assert_eq!(Fidelity::K512.lower(), Some(Fidelity::K256));
        assert_eq!(Fidelity::K56.lower(), None);
        assert_eq!(Fidelity::K256.label(), "256K");
    }

    #[test]
    fn vbr_mean_tracks_target() {
        let mut rng = derive_rng(5, 5);
        let shape = VbrShape::new(&mut rng);
        let mean_target = 1_000.0;
        let n = 20_000u64;
        let total: f64 = (0..n)
            .map(|i| shape.frame_bytes(&mut rng, i, i as f64 / 12.0, mean_target) as f64)
            .sum();
        let mean = total / n as f64;
        assert!(
            (mean - mean_target).abs() / mean_target < 0.05,
            "mean {mean} vs target {mean_target}"
        );
    }

    #[test]
    fn i_frames_are_bigger() {
        let mut rng = derive_rng(6, 6);
        let shape = VbrShape::new(&mut rng);
        let i_frame = shape.frame_bytes(&mut rng, 0, 0.0, 1_000.0);
        let p_frame = shape.frame_bytes(&mut rng, 1, 0.08, 1_000.0);
        assert!(i_frame > 2 * p_frame, "I {i_frame} vs P {p_frame}");
    }

    #[test]
    fn reports_find_their_stream_by_flow() {
        // Flows unsorted, sparse and with a duplicate: flow 3 is streams 1
        // and 3, and resolves to the first of them.
        let specs = [7u64, 3, 9, 3]
            .iter()
            .map(|&flow| StreamSpec {
                client: SockAddr::new(powerburst_net::HostAddr(100 + flow as u32), 5000),
                fidelity: Fidelity::K256,
                start: SimTime::ZERO,
                duration: SimDuration::from_secs(10),
                flow,
            })
            .collect();
        let mut server = VideoServer::new(
            SockAddr::new(powerburst_net::HostAddr(2), 554),
            specs,
            &mut derive_rng(8, 8),
        );
        let state = |s: &VideoServer| {
            (0..4).map(|i| (s.current_fidelity(i), s.downshifts(i))).collect::<Vec<_>>()
        };
        let before = state(&server);
        // Three reports at 50 % interval loss for an unknown flow.
        for k in 1..=3 {
            server.on_report(5, 100 * k, 50 * k);
        }
        assert_eq!(state(&server), before);
        assert_eq!(server.last_report, vec![(0, 0); 4]);
        for k in 1..=3 {
            server.on_report(3, 100 * k, 50 * k);
        }
        let unchanged = (Fidelity::K256, 0);
        assert_eq!(
            state(&server),
            vec![unchanged, (Fidelity::K128, 1), unchanged, unchanged],
            "only flow 3's first stream downshifts"
        );
    }

    #[test]
    fn player_loss_fraction() {
        let mut app = VideoClientApp::new(
            SockAddr::new(powerburst_net::HostAddr(1), 1),
            SockAddr::new(powerburst_net::HostAddr(2), 554),
            7,
        );
        // Simulate 9 of 10 packets arriving (seq 0..10, missing one).
        for seq in [0u64, 1, 2, 3, 4, 6, 7, 8, 9] {
            app.stats.received += 1;
            app.stats.highest_plus_one = app.stats.highest_plus_one.max(seq + 1);
        }
        let l = app.stats().loss_fraction();
        assert!((l - 0.1).abs() < 1e-9, "loss {l}");
    }
}
