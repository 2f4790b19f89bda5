//! The transparent, power-aware scheduling proxy — the paper's contribution.
//!
//! The proxy sits between the server-side Ethernet (iface [`PROXY_LAN`])
//! and the access point (iface [`PROXY_AP`]). It is invisible to both ends:
//!
//! * **Interception & address spoofing** (§3.2.2, Figure 3): a client's SYN
//!   toward a server is terminated at the proxy by a *client-side* endpoint
//!   whose local address is spoofed to the server's, and a *server-side*
//!   endpoint (spoofed to the client's address) opens the real connection.
//!   Neither end ever sees the proxy's address. The Linux-bridge/IPQ
//!   machinery of the paper becomes packet classification on the proxy's
//!   two interfaces — the header rewriting is realized by construction.
//!
//! * **Buffering & bursting** (§3.1, §3.2): downlink data is buffered per
//!   client ([`PacketQueue`] for datagrams, splice buffers for TCP) and
//!   released in scheduled bursts, the last packet of each burst carrying
//!   the ToS mark.
//!
//! * **Scheduling** (§3.2.1): at every scheduler rendezvous point the proxy
//!   snapshots all queues, builds the next schedule under the configured
//!   [`PolicyKind`], broadcasts it, and arms one timer per slot.
//!
//! * **Bandwidth constraints** (§3.2.2): slot budgets are converted to
//!   bytes through the fitted linear [`BandwidthModel`] so a burst does not
//!   overrun its slot.
//!
//! A `PassThrough` mode (ablation D3) disables the split connections and
//!   simply buffers raw TCP segments like datagrams, demonstrating the
//!   window-shrink slowdown the split design exists to avoid.

use std::any::Any;
use std::collections::VecDeque;

use powerburst_sim::FastHashMap;

use bytes::Bytes;
use powerburst_obs::{Counter, EventKind, Gauge, Hist, Recorder};
use powerburst_sim::{SimDuration, SimTime};

use powerburst_net::{
    ports, ChannelModel, Ctx, HostAddr, IfaceId, Node, Packet, Proto, ReceiverReport, SockAddr,
    TcpFlags, TimerId, TimerToken,
};
use powerburst_transport::{TcpConfig, TcpEndpoint, TcpEvent};

use crate::admission::{AdmissionControl, AdmissionStats};
use crate::bandwidth::BandwidthModel;
use crate::invariants::{InvariantKind, InvariantLog, ScheduleAuditor, Violation};
use crate::policy::{PolicyKind, PolicyScratch};
use crate::queues::PacketQueue;
use crate::schedule::{BuilderConfig, ClientDemand, Schedule};
use crate::wire::{BudgetGrant, DemandReport};

/// Proxy interface toward the servers (the Fast Ethernet side).
pub const PROXY_LAN: IfaceId = IfaceId(0);
/// Proxy interface toward the access point.
pub const PROXY_AP: IfaceId = IfaceId(1);

/// Send-cost model converting slot time to bytes (the fitted default).
const BW: BandwidthModel = BandwidthModel::DEFAULT_11MBPS;
/// Per-client buffer capacity, bytes (§3.2.2 sizes ~512 KB total).
const QUEUE_CAP: usize = 256 * 1024;
/// Guard gap between slots.
const GUARD: SimDuration = SimDuration::from_ms(1);
/// Smallest slot worth scheduling.
const MIN_SLOT: SimDuration = SimDuration::from_ms(4);

/// What a proxy timer fires for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProxyTimer {
    /// The next schedule broadcast.
    Srp,
    /// The burst slot of schedule entry `i`.
    Burst(usize),
    /// A splice half's TCP timer: `(splice id, side)`, side 0 being the
    /// client half and 1 the server half.
    Splice(usize, usize),
}

impl ProxyTimer {
    /// The kind goes in the high 32 bits and the index in the low 32, so
    /// no kind's index range can reach another kind's tokens.
    fn token(self) -> TimerToken {
        let (kind, index): (TimerToken, usize) = match self {
            ProxyTimer::Srp => (0, 0),
            ProxyTimer::Burst(i) => (1, i),
            ProxyTimer::Splice(sid, side) => (2, 2 * sid + side),
        };
        kind << 32 | index as TimerToken
    }

    fn from_token(token: TimerToken) -> ProxyTimer {
        let index = (token & 0xFFFF_FFFF) as usize;
        match token >> 32 {
            0 => ProxyTimer::Srp,
            1 => ProxyTimer::Burst(index),
            _ => ProxyTimer::Splice(index / 2, index % 2),
        }
    }
}

/// Connection-handling mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyMode {
    /// Split connections with address spoofing (the paper's design).
    Split,
    /// Buffer raw end-to-end TCP segments (ablation baseline): one
    /// connection whose RTT now includes the burst interval.
    PassThrough,
}

/// Proxy configuration.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// The proxy's own address (source of schedule broadcasts).
    pub addr: SockAddr,
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Known client hosts (the wireless subnet), in schedule order.
    pub clients: Vec<HostAddr>,
    /// Split vs pass-through.
    pub mode: ProxyMode,
    /// Emit the §5 "unchanged" flag when consecutive schedules match.
    pub flag_unchanged: bool,
    /// Run §3.2.1 admission control.
    pub admission: bool,
    /// The radio cell this shard serves (0 in the single-AP world).
    pub cell: u32,
    /// Coordinator address, when this shard is part of a multi-cell
    /// deployment: each SRP it sends one aggregate [`DemandReport`] there
    /// and applies the latest [`BudgetGrant`] that came back. `None` (the
    /// default) keeps the shard fully autonomous — the 1-cell world has
    /// no coordinator and behaves byte-identically to the pre-shard code.
    pub coord: Option<SockAddr>,
}

impl ProxyConfig {
    /// Reasonable defaults for `clients` behind one 11 Mbps cell.
    pub fn new(addr: SockAddr, clients: Vec<HostAddr>, policy: PolicyKind) -> ProxyConfig {
        ProxyConfig {
            addr,
            policy,
            clients,
            mode: ProxyMode::Split,
            flag_unchanged: false,
            admission: false,
            cell: 0,
            coord: None,
        }
    }
}

/// Counters the experiment harnesses read after a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProxyStats {
    /// Schedule broadcasts sent.
    pub schedules_sent: u64,
    /// Client bursts executed (entries with data).
    pub bursts: u64,
    /// Datagram packets burst to clients.
    pub udp_packets_sent: u64,
    /// Datagram wire bytes burst.
    pub udp_bytes_sent: u64,
    /// TCP payload bytes fed into client-side endpoints during bursts.
    pub tcp_bytes_fed: u64,
    /// Packets dropped at full client queues.
    pub queue_drops: u64,
    /// Splices created (TCP connections intercepted).
    pub splices_created: u64,
    /// Schedules flagged unchanged.
    pub unchanged_schedules: u64,
    /// Aggregate demand reports sent to the coordinator.
    pub demand_reports_sent: u64,
    /// Airtime-budget grants received and applied.
    pub budget_grants_applied: u64,
}

impl ProxyStats {
    /// Fold another shard's counters into this one (multi-cell runs
    /// report the sum over shards).
    pub fn merge(&mut self, o: &ProxyStats) {
        self.schedules_sent += o.schedules_sent;
        self.bursts += o.bursts;
        self.udp_packets_sent += o.udp_packets_sent;
        self.udp_bytes_sent += o.udp_bytes_sent;
        self.tcp_bytes_fed += o.tcp_bytes_fed;
        self.queue_drops += o.queue_drops;
        self.splices_created += o.splices_created;
        self.unchanged_schedules += o.unchanged_schedules;
        self.demand_reports_sent += o.demand_reports_sent;
        self.budget_grants_applied += o.budget_grants_applied;
    }
}

struct ClientState {
    host: HostAddr,
    /// Buffered datagrams (and raw TCP in pass-through mode).
    queue: PacketQueue,
    /// Splice indices belonging to this client.
    splices: Vec<usize>,
    /// End of this client's current burst slot: until then, splice frames
    /// flow to the radio freely (the client is awake and listening).
    burst_until: SimTime,
}

/// One intercepted TCP connection: the pair of spoofed endpoints plus the
/// downlink burst buffer between them.
struct Splice {
    /// Which client this splice belongs to.
    client_idx: usize,
    /// Proxy↔client half; local address spoofed to the server's.
    client_side: TcpEndpoint,
    /// Proxy↔server half; local address spoofed to the client's.
    server_side: TcpEndpoint,
    /// Server data awaiting a burst slot.
    pending: VecDeque<Bytes>,
    pending_bytes: u64,
    server_fin: bool,
    client_fin: bool,
    closed: bool,
    /// Data/FIN frames emitted outside a burst window (cwnd growth, RTO
    /// retransmissions): held until the client's next burst so they are
    /// never transmitted at a sleeping radio. A deque: bursts release from
    /// the front while new frames park at the back.
    held: VecDeque<Packet>,
    /// Pending TCP timers of the client and server halves.
    timers: [Option<TimerId>; 2],
}

/// The proxy node.
pub struct Proxy {
    cfg: ProxyConfig,
    clients: Vec<ClientState>,
    client_index: FastHashMap<HostAddr, usize>,
    splices: Vec<Splice>,
    splice_index: FastHashMap<(SockAddr, SockAddr), usize>,
    /// Client index whose burst slot is executing right now, if any.
    bursting: Option<usize>,
    /// §3.2.1 admission controller, when configured.
    admission: Option<AdmissionControl>,
    prev_schedule: Option<Schedule>,
    /// Retired schedule whose buffers the next build reuses (the schedule
    /// double-buffer: `prev` ↔ `spare` swap every SRP, so steady state
    /// never allocates entries).
    spare_schedule: Schedule,
    /// Seeded per-client Markov channel model feeding the demand
    /// snapshot's `channel` field; `None` keeps the paper's fixed-rate
    /// assumption (every link Good).
    channel: Option<ChannelModel>,
    /// Latest coordinator airtime grant, permille of the burst interval.
    /// Stays 1000 (unconstrained) until a [`BudgetGrant`] arrives, so a
    /// shard without a coordinator schedules exactly like the legacy
    /// proxy. Grants apply from the *next* SRP — the protocol is fully
    /// asynchronous and adds no wait to the per-interval path.
    budget_permille: u32,
    /// Latest snooped buffer occupancy per client (from buffer-extended
    /// receiver reports passing upstream).
    reported_buffers: Vec<Option<u64>>,
    seq: u64,
    /// Statistics.
    pub stats: ProxyStats,
    /// Runtime contract checks (slot budgets, marks, completeness).
    audit: ScheduleAuditor,
    // Reused scratch buffers — the per-interval paths must not allocate in
    // steady state, so each keeps its capacity across calls.
    /// Demand snapshot built at every SRP.
    demand_scratch: Vec<ClientDemand>,
    /// PSM shared-window round-robin output.
    psm_out: Vec<(usize, Packet)>,
    /// Per-client last-frame index within `psm_out`.
    psm_last_of: Vec<Option<usize>>,
    /// Splice ids of the client being burst.
    burst_splices: Vec<usize>,
    /// Per-splice byte feeds planned for the current burst.
    burst_feeds: Vec<(usize, u64)>,
    /// Schedule-construction working memory (weights/slots/shares).
    policy_scratch: PolicyScratch,
}

impl Proxy {
    /// Build a proxy from its configuration.
    pub fn new(cfg: ProxyConfig) -> Proxy {
        let clients: Vec<ClientState> = cfg
            .clients
            .iter()
            .map(|&host| ClientState {
                host,
                queue: PacketQueue::new(QUEUE_CAP),
                splices: Vec::new(),
                burst_until: SimTime::ZERO,
            })
            .collect();
        let client_index: FastHashMap<_, _> =
            cfg.clients.iter().enumerate().map(|(i, &h)| (h, i)).collect();
        let admission = cfg.admission.then(|| AdmissionControl::new(&BW, 728));
        let n_clients = clients.len();
        Proxy {
            cfg,
            clients,
            client_index,
            splices: Vec::new(),
            splice_index: FastHashMap::default(),
            bursting: None,
            admission,
            prev_schedule: None,
            spare_schedule: Schedule::default(),
            channel: None,
            budget_permille: 1000,
            reported_buffers: vec![None; n_clients],
            seq: 0,
            stats: ProxyStats::default(),
            audit: ScheduleAuditor::new(),
            demand_scratch: Vec::new(),
            psm_out: Vec::new(),
            psm_last_of: Vec::new(),
            burst_splices: Vec::new(),
            burst_feeds: Vec::new(),
            policy_scratch: PolicyScratch::default(),
        }
    }

    /// Attach a seeded Markov channel model (one state per configured
    /// client, in `cfg.clients` order). The model feeds the demand
    /// snapshot's `channel` field at every SRP; only the channel-aware
    /// policy reads it, so attaching the model under any other policy
    /// leaves schedules unchanged.
    pub fn set_channel_model(&mut self, model: ChannelModel) {
        self.channel = Some(model);
    }

    /// Take the invariant log (for folding into a run report).
    pub fn take_invariants(&mut self) -> InvariantLog {
        std::mem::take(&mut self.audit.log)
    }

    /// Grace airtime allowed past a slot budget before flagging an
    /// overrun: the burst paths deliberately overshoot by up to one
    /// segment (guarantee-progress minimum; held-frame drain stops only
    /// once the byte budget is exhausted), so allow two full segments per
    /// client sharing the window.
    fn burst_grace(&self, sharers: usize) -> SimDuration {
        BW.send_time(TcpConfig::default().mss + 40).times(2 * sharers.max(1) as u64)
    }

    /// Admission-control counters, if admission is configured.
    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        self.admission.as_ref().map(|a| a.stats)
    }

    fn is_client(&self, h: HostAddr) -> bool {
        self.client_index.contains_key(&h)
    }

    // ---- schedule construction and broadcast -------------------------------

    /// Snapshot per-client demand into the reused scratch Vec (runs every
    /// SRP; must not allocate in steady state). The caller puts the Vec
    /// back into `self.demand_scratch` when done.
    ///
    /// Besides queue state, the snapshot carries the two policy inputs
    /// added in PR 7: the Markov channel state (when a model is attached)
    /// and the latest snooped buffer report. Both default to the paper's
    /// information set (Good / no report), so policies that ignore them
    /// see exactly the pre-PR7 snapshot.
    fn demand_snapshot(&mut self, now: SimTime) -> Vec<ClientDemand> {
        if let Some(model) = self.channel.as_mut() {
            model.advance_to(now);
        }
        let mut demands = std::mem::take(&mut self.demand_scratch);
        demands.clear();
        for (ci, c) in self.clients.iter().enumerate() {
            let tcp_bytes: u64 = c
                .splices
                .iter()
                .map(|&i| {
                    let s = &self.splices[i];
                    s.pending_bytes
                        + s.client_side.unsent()
                        + s.held.iter().map(|p| p.wire_size() as u64).sum::<u64>()
                })
                .sum();
            let avg_pkt = if !c.queue.is_empty() { c.queue.bytes() / c.queue.len() } else { 1_000 };
            let mut d = ClientDemand::new(c.host, c.queue.bytes() as u64, tcp_bytes, avg_pkt);
            if let Some(model) = self.channel.as_ref() {
                d.channel = model.quality(ci);
            }
            d.buffer_bytes = self.reported_buffers[ci];
            demands.push(d);
        }
        demands
    }

    fn schedule_airtime_estimate(&self) -> SimDuration {
        let payload = 19 + 12 * self.clients.len();
        BW.send_time(payload + 28)
    }

    fn on_srp(&mut self, ctx: &mut Ctx<'_>) {
        let obs = ctx.obs();
        let demands = self.demand_snapshot(ctx.now());
        if obs.enabled() {
            let mut backlog = 0i64;
            for (d, c) in demands.iter().zip(&self.clients) {
                backlog += d.total() as i64;
                obs.observe(Hist::QueueDepthBytes, d.total());
                obs.observe(Hist::QueueDepthPkts, c.queue.len() as u64);
                obs.event(
                    ctx.now().as_us(),
                    EventKind::QueueDepth {
                        client: d.client.0,
                        bytes: d.total(),
                        pkts: c.queue.len() as u64,
                    },
                );
            }
            obs.gauge_set(Gauge::BacklogBytes, backlog);
        }
        let bcfg = BuilderConfig {
            schedule_airtime: self.schedule_airtime_estimate(),
            guard: GUARD,
            min_slot: MIN_SLOT,
            bw: BW,
        };
        // Build into the spare schedule's buffers: together with the
        // `prev` ↔ `spare` swap below, the per-SRP build is allocation-free
        // once entry capacity reaches steady state.
        let mut sched = std::mem::take(&mut self.spare_schedule);
        self.cfg.policy.build_into(&bcfg, &demands, self.seq, &mut self.policy_scratch, &mut sched);
        self.seq += 1;
        // Shrink to the coordinator's airtime grant before anything reads
        // the schedule: the audit, the unchanged comparison, and the
        // broadcast all see the budgeted layout. A full grant (the only
        // state a coordinator-less shard ever has) is a strict no-op.
        sched.apply_airtime_budget(self.budget_permille, bcfg.schedule_airtime, bcfg.guard);
        if self.cfg.flag_unchanged {
            if let Some(prev) = &self.prev_schedule {
                if prev.same_slots(&sched) {
                    sched.unchanged = true;
                    self.stats.unchanged_schedules += 1;
                }
            }
        }
        self.audit.on_schedule(obs, ctx.now(), &sched, &demands);
        // Aggregate demand for the coordinator report (O(cell) work that
        // replaces any O(total clients) coordination).
        let total_demand: u64 = demands.iter().map(|d| d.total()).sum();
        let active_clients = demands.iter().filter(|d| d.total() > 0).count() as u32;
        self.demand_scratch = demands;

        // Broadcast the schedule. Encoding is checked: a µs field past the
        // u32 wire range is clamped, surfaced as an invariant violation,
        // and never silently wrapped into a bogus tiny slot.
        let (payload, overflows) = sched.encode_checked();
        if overflows > 0 {
            obs.add(Counter::WireOverflows, overflows as u64);
            self.audit.log.record_counted(
                overflows as u64,
                Violation {
                    kind: InvariantKind::WireOverflow,
                    t: ctx.now(),
                    client: None,
                    detail: format!(
                        "{overflows} µs field(s) of schedule #{} clamped to u32::MAX on the wire",
                        sched.seq
                    ),
                },
            );
        }
        obs.incr(Counter::SchedulesBuilt);
        if sched.unchanged {
            obs.incr(Counter::SchedulesUnchanged);
        }
        if sched.saturated {
            obs.incr(Counter::SchedulesSaturated);
        }
        obs.gauge_set(Gauge::LastScheduleEntries, sched.entries.len() as i64);
        obs.event(
            ctx.now().as_us(),
            EventKind::ScheduleBroadcast {
                seq: sched.seq,
                entries: sched.entries.len() as u32,
                bytes: payload.len() as u32,
                next_srp_us: sched.next_srp.as_us(),
                unchanged: sched.unchanged,
                saturated: sched.saturated,
            },
        );
        let pkt = Packet::udp(
            0,
            self.cfg.addr,
            SockAddr::new(HostAddr::BROADCAST, ports::SCHEDULE),
            payload,
        );
        ctx.send_assigning(PROXY_AP, pkt);
        self.stats.schedules_sent += 1;

        // Report aggregate demand to the coordinator (one fixed-size
        // datagram per shard per SRP; the grant comes back asynchronously
        // and shapes the *next* schedule).
        if let Some(coord) = self.cfg.coord {
            let report = DemandReport {
                cell: self.cfg.cell,
                seq: sched.seq,
                clients: active_clients,
                demand_bytes: total_demand,
            };
            let rpt = Packet::udp(
                0,
                SockAddr::new(self.cfg.addr.host, ports::COORD),
                coord,
                report.encode(),
            );
            ctx.send_assigning(PROXY_LAN, rpt);
            self.stats.demand_reports_sent += 1;
        }

        // Arm burst timers and the next SRP.
        for (i, e) in sched.entries.iter().enumerate() {
            ctx.set_timer(e.rp_offset, ProxyTimer::Burst(i).token());
        }
        ctx.set_timer(sched.next_srp, ProxyTimer::Srp.token());
        // `prev_schedule` doubles as the schedule in force: burst timers
        // index into its entries, so no per-interval clone is needed. The
        // retired schedule becomes the spare whose buffers the next build
        // reuses.
        if let Some(retired) = self.prev_schedule.replace(sched) {
            self.spare_schedule = retired;
        }
    }

    // ---- burst execution ----------------------------------------------------

    fn run_burst(&mut self, ctx: &mut Ctx<'_>, entry_idx: usize) {
        let obs = ctx.obs();
        let current = self.prev_schedule.as_ref().map(|s| s.entries.as_slice()).unwrap_or(&[]);
        let Some(entry) = current.get(entry_idx).copied() else { return };
        if entry.client.is_broadcast() {
            let psm = matches!(self.cfg.policy, PolicyKind::PsmBeacon { .. });
            self.shared_window(ctx, entry.duration, psm);
            return;
        }
        let Some(&ci) = self.client_index.get(&entry.client) else { return };
        self.clients[ci].burst_until = ctx.now() + entry.duration;
        let grace = self.burst_grace(1);
        self.audit.begin_burst(obs, ctx.now(), entry.client, entry.duration, grace, true);
        self.bursting = Some(ci);
        let slotted = matches!(self.cfg.policy, PolicyKind::SlottedStatic { .. });
        let mut remaining = entry.duration;
        let sent_udp = self.burst_udp(ctx, ci, &mut remaining, slotted);
        let sent_tcp = if slotted {
            // Per-client slots carry only datagram traffic under Figure 7's
            // slotted split; TCP goes in the shared slot.
            0
        } else {
            self.burst_tcp(ctx, ci, remaining, true)
        };
        self.bursting = None;
        self.audit.end_burst(obs, ctx.now());
        if sent_udp > 0 || sent_tcp > 0 {
            self.stats.bursts += 1;
        }
    }

    /// A window every client listens through: Figure 7's slotted TCP slot,
    /// or the PSM baseline's delivery window. Buffered TCP shares what is
    /// left of it equally. With `drain_udp` (PSM) all clients' datagram
    /// queues first drain **round-robin** (a PSM access point has no
    /// per-client schedule, so frames interleave), each client's final
    /// frame marked — the More-Data-bit-cleared equivalent that lets it
    /// sleep. Because of the interleaving, a client's last frame tends to
    /// land near the end of the window: every client stays awake for
    /// roughly everyone's traffic, which is the §2 argument against PSM for
    /// multimedia.
    fn shared_window(&mut self, ctx: &mut Ctx<'_>, window: SimDuration, drain_udp: bool) {
        let n = self.clients.len();
        let grace = self.burst_grace(n);
        self.audit.begin_burst(ctx.obs(), ctx.now(), HostAddr::BROADCAST, window, grace, false);
        for ci in 0..n {
            self.clients[ci].burst_until = ctx.now() + window;
        }
        let mut remaining = window;
        if drain_udp {
            let mut out = std::mem::take(&mut self.psm_out);
            debug_assert!(out.is_empty());
            let mut progress = true;
            while progress {
                progress = false;
                for ci in 0..n {
                    let Some(size) = self.clients[ci].queue.peek_size() else { continue };
                    let cost = BW.send_time(size);
                    if cost > remaining {
                        continue;
                    }
                    remaining -= cost;
                    let pkt =
                        self.clients[ci].queue.pop().expect("invariant: peek_size saw a packet");
                    out.push((ci, pkt));
                    progress = true;
                }
            }
            // Mark each client's final frame of the window.
            let mut last_of = std::mem::take(&mut self.psm_last_of);
            last_of.clear();
            last_of.resize(n, None);
            for (idx, (ci, _)) in out.iter().enumerate() {
                last_of[*ci] = Some(idx);
            }
            for last in last_of.iter().flatten() {
                out[*last].1.tos_mark = true;
            }
            self.psm_last_of = last_of;
            let sent = out.len() as u64;
            for (_, pkt) in out.drain(..) {
                self.send_datagram(ctx, pkt);
            }
            self.psm_out = out;
            self.stats.udp_packets_sent += sent;
            ctx.obs().add(Counter::UdpFramesSent, sent);
            if sent > 0 {
                self.stats.bursts += 1;
            }
        }
        let tcp_share = remaining / (n.max(1) as u64);
        for ci in 0..n {
            self.bursting = Some(ci);
            self.burst_tcp(ctx, ci, tcp_share, false);
            self.bursting = None;
        }
        self.audit.end_burst(ctx.obs(), ctx.now());
    }

    /// Count, audit and send one burst datagram toward the AP.
    fn send_datagram(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        self.stats.udp_bytes_sent += pkt.wire_size() as u64;
        ctx.obs().add(Counter::UdpBytesSent, pkt.wire_size() as u64);
        self.audit.on_frame(BW.send_time(pkt.wire_size()), pkt.tos_mark);
        ctx.send(PROXY_AP, pkt);
    }

    /// Burst datagrams to client `ci` within `remaining`; marks the last
    /// datagram if no TCP data will follow in this slot. Returns packets sent.
    fn burst_udp(
        &mut self,
        ctx: &mut Ctx<'_>,
        ci: usize,
        remaining: &mut SimDuration,
        mark_last: bool,
    ) -> u64 {
        let has_tcp_after = !mark_last
            && self.clients[ci]
                .splices
                .iter()
                .any(|&i| self.splices[i].pending_bytes + self.splices[i].client_side.unsent() > 0);
        let mut sent = 0u64;
        let mut last_pkt: Option<Packet> = None;
        while let Some(size) = self.clients[ci].queue.peek_size() {
            let cost = BW.send_time(size);
            if cost > *remaining {
                break;
            }
            *remaining -= cost;
            let pkt = self.clients[ci].queue.pop().expect("invariant: peek_size saw a packet");
            if let Some(prev) = last_pkt.replace(pkt) {
                self.send_datagram(ctx, prev);
                sent += 1;
            }
        }
        if let Some(mut last) = last_pkt {
            if !has_tcp_after {
                last.tos_mark = true;
                // The mark ends the client's listening window.
                self.clients[ci].burst_until = ctx.now();
            }
            self.send_datagram(ctx, last);
            sent += 1;
        }
        self.stats.udp_packets_sent += sent;
        ctx.obs().add(Counter::UdpFramesSent, sent);
        sent
    }

    /// Burst buffered TCP data for client `ci`, up to `budget` of estimated
    /// airtime: held frames (retransmissions, overflow from the previous
    /// burst) go first, then fresh data is fed into the client-side
    /// endpoints — but never more than their windows can emit *now*, so the
    /// end-of-burst mark really lands on the last frame of the burst.
    /// Returns bytes sent.
    fn burst_tcp(&mut self, ctx: &mut Ctx<'_>, ci: usize, budget: SimDuration, mark: bool) -> u64 {
        let mss = TcpConfig::default().mss;
        // Reserve airtime for the client's ACKs (one per two segments with
        // delayed ACKs) — §3.2.2: overrunning the slot delays every
        // subsequent client *and* the next schedule broadcast.
        // Guarantee progress: a slot always carries at least one segment,
        // even when it is smaller than one message's estimated cost
        // (min_slot-sized slots for tiny queues).
        let mut byte_budget = BW.bytes_in_with_echo(budget, mss + 40, 40, 0.5).max(mss as u64);
        let mut total = 0u64;
        let mut last_held: Option<Packet> = None;
        let mut splice_ids = std::mem::take(&mut self.burst_splices);
        splice_ids.clear();
        splice_ids.extend_from_slice(&self.clients[ci].splices);
        // Phase 1: release held frames (oldest data first). A mark that
        // spilled into the hold queue belongs to a *previous* interval and
        // is no longer the last frame of anything — strip it, or the
        // client would sleep mid-burst.
        for &sid in &splice_ids {
            while byte_budget > 0 {
                let Some(mut pkt) = self.splices[sid].held.pop_front() else { break };
                pkt.tos_mark = false;
                byte_budget = byte_budget.saturating_sub(pkt.wire_size() as u64);
                total += pkt.payload.len() as u64;
                if let Some(prev) = last_held.replace(pkt) {
                    self.audit.on_frame(BW.send_time(prev.wire_size()), prev.tos_mark);
                    ctx.send_assigning(PROXY_AP, prev);
                }
            }
        }
        // Phase 2: decide how much each splice gets, so the mark can be
        // nominated *before* the final bytes hit the wire (segments are
        // emitted the moment they are fed).
        let mut feeds = std::mem::take(&mut self.burst_feeds);
        feeds.clear();
        for &sid in &splice_ids {
            if byte_budget == 0 {
                break;
            }
            let s = &self.splices[sid];
            if s.closed {
                continue;
            }
            // Feed no more than the endpoint can plausibly emit inside
            // the slot: the windows open further as in-burst ACKs return
            // (hence the headroom factor), but feeding far beyond them
            // would re-nominate the end-of-burst mark onto bytes that
            // cannot reach the air this interval.
            let emit_capacity = (s.client_side.window_available() * 4).max(mss as u64);
            let allow = byte_budget.min(emit_capacity).min(s.pending_bytes);
            if allow > 0 {
                byte_budget -= allow;
                feeds.push((sid, allow));
            }
        }
        let last_feed = feeds.len().checked_sub(1);
        let mut nominated = false;
        for (k, &(sid, allow)) in feeds.iter().enumerate() {
            let now = ctx.now();
            let s = &mut self.splices[sid];
            if mark && Some(k) == last_feed {
                // §3.2.2: mark the byte that ends the burst. Every byte
                // the client half enqueues comes from these feeds, so that
                // is the stream's end once this feed is in; nominate it
                // before emission.
                s.client_side.set_mark(s.client_side.stream_len() + allow);
                nominated = true;
            }
            let mut left = allow;
            while left > 0 {
                let mut chunk = s
                    .pending
                    .pop_front()
                    .expect("invariant: pending_bytes tracks queued chunks exactly");
                if chunk.len() as u64 > left {
                    let rest = chunk.split_off(left as usize);
                    s.pending.push_front(rest);
                }
                let n = chunk.len() as u64;
                s.pending_bytes -= n;
                left -= n;
                s.client_side.send(now, chunk);
            }
            total += allow;
        }
        // A mark nominated in an earlier interval that has not yet reached
        // the air still closes this client's window when it emits — the
        // burst is covered either way.
        if !nominated && mark {
            nominated =
                splice_ids.iter().any(|&sid| self.splices[sid].client_side.has_pending_mark());
        }
        if nominated {
            self.audit.mark_nominated();
        }
        // If the burst carried only held frames, mark the last directly.
        if mark && feeds.is_empty() {
            if let Some(pkt) = last_held.as_mut() {
                pkt.tos_mark = true;
            }
        }
        if let Some(pkt) = last_held.take() {
            self.audit.on_frame(BW.send_time(pkt.wire_size()), pkt.tos_mark);
            ctx.send_assigning(PROXY_AP, pkt);
        }
        // Drain endpoint output inside the burst window.
        for &sid in &splice_ids {
            self.finish_splice_io(ctx, sid);
        }
        self.burst_splices = splice_ids;
        self.burst_feeds = feeds;
        self.stats.tcp_bytes_fed += total;
        ctx.obs().add(Counter::TcpBytesFed, total);
        total
    }

    // ---- splice lifecycle -----------------------------------------------------

    fn create_splice(
        &mut self,
        obs: &Recorder,
        client_sock: SockAddr,
        server_sock: SockAddr,
    ) -> usize {
        let ci = self.client_index[&client_sock.host];
        let idx = self.splices.len();
        let tcp = TcpConfig::default();
        self.splices.push(Splice {
            client_idx: ci,
            client_side: TcpEndpoint::passive(server_sock, client_sock, tcp),
            server_side: TcpEndpoint::active(client_sock, server_sock, tcp),
            pending: VecDeque::new(),
            pending_bytes: 0,
            server_fin: false,
            client_fin: false,
            closed: false,
            held: VecDeque::new(),
            timers: [None; 2],
        });
        self.splice_index.insert((client_sock, server_sock), idx);
        self.clients[ci].splices.push(idx);
        self.stats.splices_created += 1;
        obs.gauge_add(Gauge::ActiveSplices, 1);
        idx
    }

    /// Move data between the two halves and drive both endpoints.
    fn service_splice(&mut self, ctx: &mut Ctx<'_>, sid: usize) {
        let now = ctx.now();
        {
            let s = &mut self.splices[sid];
            // Uplink relay: client requests go straight to the server (only
            // downlink data is burst-scheduled).
            for chunk in s.client_side.delivered_mut().drain(..) {
                if !s.server_fin {
                    s.server_side.send(now, chunk);
                }
            }
            // Downlink buffer: server data waits for a burst slot.
            for chunk in s.server_side.delivered_mut().drain(..) {
                s.pending_bytes += chunk.len() as u64;
                s.pending.push_back(chunk);
            }
            for ev in s.server_side.events_mut().drain(..) {
                if ev == TcpEvent::RemoteFin {
                    s.server_fin = true;
                }
            }
            for ev in s.client_side.events_mut().drain(..) {
                if ev == TcpEvent::RemoteFin && !s.client_fin {
                    s.client_fin = true;
                    s.server_side.close(now);
                }
            }
            // Propagate the server's FIN once every buffered byte has been
            // handed to (and accepted by) the client side.
            if s.server_fin && !s.closed && s.pending_bytes == 0 && s.client_side.unsent() == 0 {
                s.closed = true;
                ctx.obs().gauge_add(Gauge::ActiveSplices, -1);
                s.client_side.close(now);
            }
        }
        self.finish_splice_io(ctx, sid);
    }

    /// Drain endpoint wire output and re-arm their timers.
    ///
    /// Every client-bound frame — data, SYN-ACK, pure ACKs, FIN — is
    /// released only during this client's burst slot; outside it frames
    /// park in the splice's hold queue. A sleeping radio hears nothing, so
    /// transmitting between bursts (as a naive forwarder would) only
    /// produces losses and retransmission storms.
    fn finish_splice_io(&mut self, ctx: &mut Ctx<'_>, sid: usize) {
        let ci = self.splices[sid].client_idx;
        let mut in_burst = self.bursting == Some(ci) || ctx.now() < self.clients[ci].burst_until;
        let mut close_window = false;
        let s = &mut self.splices[sid];
        for pkt in s.client_side.packets_mut().drain(..) {
            if !in_burst {
                // Dedup retransmitted copies of the same data segment
                // (pure ACKs are never deduped: their ack fields differ).
                let key = if pkt.payload.is_empty() {
                    None
                } else {
                    pkt.tcp.map(|h| (h.seq, pkt.payload.len()))
                };
                let dup = key.is_some()
                    && s.held.iter().any(|q| q.tcp.map(|h| (h.seq, q.payload.len())) == key);
                if !dup {
                    s.held.push_back(pkt);
                }
            } else {
                // The marked frame puts the client to sleep: nothing else
                // may follow it onto the air this interval.
                if pkt.tos_mark {
                    in_burst = false;
                    close_window = true;
                }
                self.audit.on_frame(BW.send_time(pkt.wire_size()), pkt.tos_mark);
                ctx.send_assigning(PROXY_AP, pkt);
            }
        }
        if close_window {
            self.clients[ci].burst_until = ctx.now();
        }
        let s = &mut self.splices[sid];
        for pkt in s.server_side.packets_mut().drain(..) {
            ctx.send_assigning(PROXY_LAN, pkt);
        }
        let deadlines = [s.client_side.next_deadline(), s.server_side.next_deadline()];
        for (side, (deadline, timer)) in deadlines.into_iter().zip(&mut s.timers).enumerate() {
            ctx.rearm_timer_at(timer, deadline, ProxyTimer::Splice(sid, side).token());
        }
    }

    // ---- packet classification -------------------------------------------------

    fn on_udp(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        if pkt.dst.port == ports::SCHEDULE {
            return; // our own broadcasts never come back, but be safe
        }
        if pkt.dst.port == ports::COORD && pkt.dst.host == self.cfg.addr.host {
            // A coordinator grant for this shard: remember the budget for
            // the next SRP. Anything malformed or mis-addressed is dropped
            // (never bridged onward — the else-arm below would echo it to
            // the radio).
            if let Some(g) = BudgetGrant::decode(&pkt.payload) {
                if g.cell == self.cfg.cell {
                    self.budget_permille = g.permille.min(1000);
                    self.stats.budget_grants_applied += 1;
                }
            }
            return;
        }
        if let Some(&ci) = self.client_index.get(&pkt.dst.host) {
            // §3.2.1 admission: refuse packets of rejected flows outright.
            if let Some(adm) = self.admission.as_mut() {
                if !adm.offer((pkt.dst, pkt.src), pkt.wire_size(), ctx.now()) {
                    return;
                }
            }
            // Downlink data: buffer for the next burst.
            if !self.clients[ci].queue.push(pkt) {
                self.stats.queue_drops += 1;
                ctx.obs().incr(Counter::ProxyQueueDrops);
            }
        } else if iface == PROXY_AP {
            // Uplink (stream feedback etc.): snoop, then forward toward
            // the servers untouched. Buffer-extended receiver reports tell
            // the buffer-aware policy each client's playout occupancy;
            // legacy 24-byte reports decode with `buffer_bytes: None` and
            // leave the snapshot untouched, so snooping is free for them.
            if pkt.dst.port == ports::FEEDBACK {
                if let Some(&ci) = self.client_index.get(&pkt.src.host) {
                    if let Some(report) = ReceiverReport::decode(&pkt.payload) {
                        if report.buffer_bytes.is_some() {
                            self.reported_buffers[ci] = report.buffer_bytes;
                        }
                    }
                }
            }
            ctx.send(PROXY_LAN, pkt);
        } else {
            // Server-to-server or unknown: bridge across.
            ctx.send(PROXY_AP, pkt);
        }
    }

    fn on_tcp(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        if self.cfg.mode == ProxyMode::PassThrough {
            if let Some(&ci) = self.client_index.get(&pkt.dst.host) {
                let has_payload = !pkt.payload.is_empty();
                if has_payload {
                    if !self.clients[ci].queue.push(pkt) {
                        self.stats.queue_drops += 1;
                        ctx.obs().incr(Counter::ProxyQueueDrops);
                    }
                } else {
                    // Control segments (SYN-ACK, bare ACKs, FIN) bypass the
                    // queue so the handshake and ACK clock survive.
                    ctx.send(PROXY_AP, pkt);
                }
            } else if iface == PROXY_AP {
                ctx.send(PROXY_LAN, pkt);
            } else {
                ctx.send(PROXY_AP, pkt);
            }
            return;
        }

        if self.is_client(pkt.src.host) {
            // Uplink: client ↔ proxy(spoofing server).
            let key = (pkt.src, pkt.dst);
            let sid = match self.splice_index.get(&key) {
                Some(&sid) => sid,
                None => {
                    let is_syn = pkt
                        .tcp
                        .map(|h| {
                            h.flags.contains(TcpFlags::SYN) && !h.flags.contains(TcpFlags::ACK)
                        })
                        .unwrap_or(false);
                    if !is_syn {
                        return; // stray segment for a dead splice
                    }
                    // §3.2.1 admission: refuse oversubscribing connections
                    // with a reset, spoofed from the server.
                    if let Some(adm) = self.admission.as_mut() {
                        if !adm.offer((pkt.src, pkt.dst), pkt.wire_size(), ctx.now()) {
                            let mut rst = Packet::tcp(
                                0,
                                pkt.dst,
                                pkt.src,
                                powerburst_net::TcpHeader {
                                    seq: 0,
                                    ack: 1,
                                    flags: TcpFlags::RST,
                                    window: 0,
                                },
                                bytes::Bytes::new(),
                            );
                            rst.id = 0;
                            ctx.send_assigning(PROXY_AP, rst);
                            return;
                        }
                    }
                    self.create_splice(ctx.obs(), pkt.src, pkt.dst)
                }
            };
            let now = ctx.now();
            self.splices[sid].client_side.on_packet(now, &pkt);
            // A fresh splice must also fire the server-side SYN (steps 5–6).
            if self.splices[sid].server_side.state() == powerburst_transport::TcpState::Closed {
                let now = ctx.now();
                self.splices[sid].server_side.connect(now);
            }
            self.service_splice(ctx, sid);
        } else if self.is_client(pkt.dst.host) {
            // Downlink: server ↔ proxy(spoofing client).
            let key = (pkt.dst, pkt.src);
            if let Some(&sid) = self.splice_index.get(&key) {
                let now = ctx.now();
                self.splices[sid].server_side.on_packet(now, &pkt);
                self.service_splice(ctx, sid);
            }
        } else if iface == PROXY_AP {
            ctx.send(PROXY_LAN, pkt);
        } else {
            ctx.send(PROXY_AP, pkt);
        }
    }
}

impl Node for Proxy {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // First SRP fires immediately so clients can sync from time zero.
        ctx.set_timer(SimDuration::from_ms(1), ProxyTimer::Srp.token());
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        match pkt.proto {
            Proto::Udp => self.on_udp(ctx, iface, pkt),
            Proto::Tcp => self.on_tcp(ctx, iface, pkt),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        match ProxyTimer::from_token(token) {
            ProxyTimer::Srp => self.on_srp(ctx),
            ProxyTimer::Burst(i) => self.run_burst(ctx, i),
            ProxyTimer::Splice(sid, side) if sid < self.splices.len() => {
                let now = ctx.now();
                if side == 0 {
                    self.splices[sid].client_side.on_tick(now);
                } else {
                    self.splices[sid].server_side.on_tick(now);
                }
                self.service_splice(ctx, sid);
            }
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The proxy arms a burst for every schedule entry, so a cell with more
    /// than 65 280 scheduled clients arms bursts at and past index 0xFF00.
    /// Those must still dispatch as bursts, never as splice ticks.
    #[test]
    fn timer_kinds_never_share_a_token() {
        for i in [0, 0xFF00, 0x1_0000, u32::MAX as usize] {
            let burst = ProxyTimer::Burst(i);
            assert_eq!(ProxyTimer::from_token(burst.token()), burst);
        }
        for t in [ProxyTimer::Srp, ProxyTimer::Splice(0, 0), ProxyTimer::Splice(0x7F80, 1)] {
            assert_eq!(ProxyTimer::from_token(t.token()), t);
        }
    }
}
