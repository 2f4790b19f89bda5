//! The discrete-event world: nodes, links, the wireless medium, and the
//! event loop that ties them together.
//!
//! Topology follows the paper's Figure 1: servers and the proxy on wired
//! links, an access point bridging onto a shared wireless medium, clients
//! (and a monitoring station) on the radio side. The world is fully
//! deterministic: one master seed derives every per-node and per-medium RNG
//! stream, and all event ties break by insertion order.
//!
//! ## Sharded execution (DESIGN.md §17)
//!
//! A multi-cell world is partitioned into **shards** once its topology
//! is frozen (at the first run, or by [`World::install_recorder`]):
//! one shard per radio cell (cell `c` → shard `c + 1`) plus shard 0 for
//! the wired backbone (servers, switch, coordinator). Each shard owns its
//! nodes, cells, outbound link halves, event queue (whose handles are its
//! nodes' timer handles), packet-id space, and sniffer; cross-shard frames
//! go into the sending shard's outbox and are applied to their receivers
//! at the conservative-lookahead epoch barrier ([`powerburst_sim::shard`]),
//! in (sender rank, send order). `World::finalize` is the one place
//! that decides which shard runs a node, and shard *k* records on
//! observability lane *k*, which its nodes reach through [`Ctx::obs`], so
//! every lane has exactly one writer. Single-cell worlds — every golden
//! scenario — stay one shard and run the exact sequential loop they always
//! did, so their traces are byte-identical by construction; multi-shard
//! worlds are deterministic for any thread count because shard execution
//! and the order mail is applied in never depend on which OS thread runs
//! a shard.

use powerburst_obs::{Counter, Recorder, RecorderConfig};
use powerburst_sim::rng::streams;
use powerburst_sim::shard::{run_epochs, EpochPlan, MailSender, Outboxes};
use powerburst_sim::{derive_rng, ClockModel, EventQueue, SimDuration, SimTime};
use rand::rngs::StdRng;

use powerburst_energy::{CardSpec, EnergyReport, Wnic};

use crate::addr::{ports, HostAddr, IfaceId, NodeId};
use crate::faults::{fault_stream, fault_streams, FaultInjector, FaultPlan, FaultStats};
use crate::link::{Endpoint, HalfLink, LinkSpec, WireOutcome};
use crate::medium::{AirtimeModel, Medium, TxOutcome};
use crate::node::{Ctx, Ev, Node};
use crate::packet::Packet;
use crate::sniffer::{Delivery, Sniffer, SnifferRecord};

/// Shard rank is packed into the top bits of per-shard packet ids, so ids
/// stay unique world-wide without a shared counter. Shard 0's ids are
/// `0, 1, 2, …` — exactly the legacy single-counter sequence.
const PACKET_SHARD_SHIFT: u64 = 40;

/// Per-node radio counters maintained by the engine: what a live
/// radio's naive energy baseline and its run summary are computed from.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeStats {
    /// Frames delivered to this node over the radio.
    pub rx_frames: u64,
    /// Airtime of frames delivered to this node.
    pub rx_airtime: SimDuration,
    /// Unicast frames addressed to this node that it slept through.
    pub missed_frames: u64,
    /// Airtime of frames it slept through.
    pub missed_airtime: SimDuration,
    /// Airtime of its transmissions.
    pub tx_airtime: SimDuration,
}

/// Per-node configuration at construction time.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Host address owned by this node, if traffic is addressed to it.
    pub host: Option<HostAddr>,
    /// Local clock model.
    pub clock: ClockModel,
    /// A live radio client carries the testbed's WaveLAN card
    /// ([`CardSpec::WAVELAN_DSSS`]): it genuinely sleeps and misses frames.
    /// Otherwise a wireless node's radio is always listening (the paper's
    /// methodology: clients capture everything and energy is computed
    /// postmortem).
    pub live_radio: bool,
}

impl NodeConfig {
    /// A wired node owning `host`.
    pub fn wired(host: HostAddr) -> NodeConfig {
        NodeConfig { host: Some(host), clock: ClockModel::perfect(), live_radio: false }
    }

    /// An infrastructure node (switch/AP/shaper) owning no host address.
    pub fn infrastructure() -> NodeConfig {
        NodeConfig { host: None, clock: ClockModel::perfect(), live_radio: false }
    }
}

struct NodeSlot {
    node: Box<dyn Node>,
    clock: ClockModel,
    rng: StdRng,
    host: Option<HostAddr>,
    wnic: Option<Wnic>,
    wireless_iface: Option<IfaceId>,
    /// Dense per-interface attachment table, indexed by `IfaceId`. Built
    /// at wiring time; interface ids are tiny (0..=2 in practice), so the
    /// per-hop routing lookup is one bounds-checked array load instead of
    /// a `(NodeId, IfaceId)` hash probe.
    attachments: Vec<Option<Attachment>>,
    stats: NodeStats,
}

impl NodeSlot {
    /// Record `iface`'s attachment; panics if it is already attached.
    fn attach(&mut self, iface: IfaceId, att: Attachment) {
        let i = iface.0 as usize;
        if self.attachments.len() <= i {
            self.attachments.resize(i + 1, None);
        }
        assert!(self.attachments[i].replace(att).is_none(), "iface attached twice");
    }
}

#[derive(Debug, Clone, Copy)]
enum Attachment {
    Wired { link: usize },
    Wireless,
}

/// One radio cell: a shared wireless medium, the access point bridging it
/// to the wired side, and the nodes attached to it. The single-AP world of
/// the paper is the 1-cell special case; city-scale scenarios instantiate
/// one cell per AP + proxy shard. Cells are fully isolated at the radio
/// layer — frames transmitted in one cell are never heard in another, and
/// cross-cell traffic always goes radio → AP → wired.
struct Cell {
    medium: Medium,
    /// Cell-local medium RNG (backoff jitter). Cell `k` draws from stream
    /// `AP_DELAY + k`, so cell 0 reproduces the legacy single-medium
    /// sequence byte-for-byte and each extra cell gets an independent,
    /// insertion-order-stable stream.
    rng: StdRng,
    /// The access point bridging this cell toward wired hosts.
    ap: NodeId,
    /// Radio nodes in this cell (including the AP), in attach order —
    /// which assemblers keep equal to node-id order so broadcast delivery
    /// order matches the legacy whole-world scan.
    members: Vec<NodeId>,
    /// Injected medium faults for this cell, when enabled. Cell `k` draws
    /// from stream `fault_stream(MEDIUM) + 256·k`: cell 0 reproduces the
    /// legacy single-injector sequence byte-for-byte, and per-cell streams
    /// keep fault draws shard-local (no cross-shard RNG ordering).
    faults: Option<FaultInjector>,
}

/// One direction of a wired link, owned by its sending shard, plus the
/// destination shard for routing the arrival.
struct WireHalf {
    half: HalfLink,
    peer_shard: u32,
}

/// The per-shard mutable simulation state. Before the world is finalized,
/// everything lives in a single staging shard 0; finalization
/// redistributes it by cell.
struct ShardState {
    rank: u32,
    now: SimTime,
    queue: EventQueue<Ev>,
    nodes: Vec<NodeSlot>,
    /// Radio cells owned by this shard, in creation order.
    cells: Vec<Cell>,
    /// Outbound link halves owned by this shard's senders.
    wires: Vec<WireHalf>,
    packet_seq: u64,
    send_buf: Vec<(IfaceId, Packet)>,
    sniffer: Sniffer,
    /// Events dispatched by this shard so far (always counted — it feeds
    /// the events/sec profiling figure even when observability is off).
    events_processed: u64,
    /// This shard's recorder lane, the one its nodes see as [`Ctx::obs`].
    obs: Recorder,
}

impl ShardState {
    fn new(rank: u32) -> ShardState {
        ShardState {
            rank,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            nodes: Vec::new(),
            cells: Vec::new(),
            wires: Vec::new(),
            packet_seq: (rank as u64) << PACKET_SHARD_SHIFT,
            send_buf: Vec::new(),
            sniffer: Sniffer::new(),
            events_processed: 0,
            obs: Recorder::disabled(),
        }
    }
}

/// Read-only (after finalize) topology tables shared by every shard.
struct Topo {
    /// Dense host → node table, indexed by `HostAddr.0`. Host addresses
    /// are small and assigned at wiring time (servers in the single
    /// digits, clients from a low base), so the per-frame destination
    /// lookup is an array load; `HostAddr::BROADCAST` (`u32::MAX`) never
    /// indexes because broadcast frames take the broadcast path first.
    host_index: Vec<Option<NodeId>>,
    /// Node id → (shard, index within the shard's node vec).
    node_loc: Vec<(u32, u32)>,
    /// Node id → the radio cell its wireless interface joined, if any.
    node_cell: Vec<Option<u32>>,
    /// Cell id → (shard, index within the shard's cell vec).
    cell_loc: Vec<(u32, u32)>,
    /// Conservative lookahead: minimum delay of any cross-shard link.
    /// `SimDuration::MAX` when no link crosses shards (single shard).
    lookahead: SimDuration,
}

impl Topo {
    #[inline]
    fn loc(&self, id: NodeId) -> (usize, usize) {
        let (sh, ix) = self.node_loc[id.index()];
        (sh as usize, ix as usize)
    }

    /// The node owning host address `h`, if any.
    #[inline]
    fn host_lookup(&self, h: HostAddr) -> Option<NodeId> {
        self.host_index.get(h.0 as usize).copied().flatten()
    }
}

/// The simulation world.
pub struct World {
    seed: u64,
    now: SimTime,
    started: bool,
    /// Topology frozen (state redistributed into shards)? Set lazily at
    /// the first run; all `add_*`/`attach_*` calls must precede it.
    finalized: bool,
    /// Worker threads for multi-shard runs (1 by default). Thread count
    /// never changes results.
    threads: usize,
    topo: Topo,
    /// Staging: exactly one shard holding everything until `finalize`.
    shards: Vec<ShardState>,
    /// Cross-shard outboxes, one per sending shard, sized at finalize:
    /// each message is a wire arrival `(time, event)` for the receiving
    /// shard's queue, pushed at the epoch barrier in (sender rank, send
    /// order).
    mail: Outboxes<(SimTime, Ev)>,
    /// Staged link halves, each with the endpoint that transmits on it;
    /// handed to the sender's shard at finalize.
    links: Vec<(Endpoint, HalfLink)>,
    /// Wired nodes explicitly pinned to a cell's shard (a cell's proxy
    /// front-end), applied at finalize.
    pins: Vec<(NodeId, u32)>,
}

impl World {
    /// A new empty world with the given master seed.
    pub fn new(seed: u64) -> World {
        World {
            seed,
            now: SimTime::ZERO,
            started: false,
            finalized: false,
            threads: 1,
            topo: Topo {
                host_index: Vec::new(),
                node_loc: Vec::new(),
                node_cell: Vec::new(),
                cell_loc: Vec::new(),
                lookahead: SimDuration::MAX,
            },
            shards: vec![ShardState::new(0)],
            mail: Outboxes::new(1),
            links: Vec::new(),
            pins: Vec::new(),
        }
    }

    /// Set the worker-thread count for multi-shard runs (1 by default).
    /// Purely a scheduling knob: results are identical for any value.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Number of shards this world runs as (1 until finalized, or for any
    /// world with fewer than two radio cells).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Freeze the topology and build the run's observability recorder:
    /// the disabled recorder unless `metrics`, otherwise one lane per
    /// shard, collecting events too when `events`. Shard *k* records on
    /// lane *k*: its nodes through [`Ctx::obs`], and each live radio on it
    /// (labelled by its node's host address) on the same lane. Every lane
    /// thus has exactly one writer, at any thread count. Returns the
    /// handle to export from.
    pub fn install_recorder(&mut self, metrics: bool, events: bool) -> Recorder {
        self.finalize();
        if !metrics {
            return Recorder::disabled();
        }
        let rec = Recorder::new(RecorderConfig { events, lanes: self.shards.len() });
        for s in &mut self.shards {
            s.obs = rec.lane(s.rank as usize);
        }
        for i in 0..self.topo.node_loc.len() {
            let (sh, ix) = self.topo.loc(NodeId(i as u32));
            let s = &mut self.shards[sh];
            let slot = &mut s.nodes[ix];
            if let Some(w) = slot.wnic.as_mut() {
                w.set_recorder(s.obs.clone(), slot.host.map_or(i as u32, |h| h.0));
            }
        }
        rec
    }

    /// Events dispatched by the event loop so far, summed over shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Add a node. Ids are assigned densely in insertion order.
    pub fn add_node(&mut self, node: Box<dyn Node>, cfg: NodeConfig) -> NodeId {
        assert!(!self.finalized, "topology is frozen once the world runs");
        let id = NodeId(self.topo.node_loc.len() as u32);
        if let Some(h) = cfg.host {
            assert!(!h.is_broadcast(), "the broadcast address cannot be a node's host");
            let i = h.0 as usize;
            if self.topo.host_index.len() <= i {
                self.topo.host_index.resize(i + 1, None);
            }
            assert!(
                self.topo.host_index[i].replace(id).is_none(),
                "host {h} assigned to two nodes"
            );
        }
        let stage = &mut self.shards[0];
        self.topo.node_loc.push((0, stage.nodes.len() as u32));
        self.topo.node_cell.push(None);
        stage.nodes.push(NodeSlot {
            node,
            clock: cfg.clock,
            rng: derive_rng(self.seed, streams::NODE_BASE + id.0 as u64),
            host: cfg.host,
            wnic: cfg.live_radio.then(|| Wnic::new(CardSpec::WAVELAN_DSSS)),
            wireless_iface: None,
            attachments: Vec::new(),
            stats: NodeStats::default(),
        });
        id
    }

    /// Shared access to a node's slot, wherever its shard put it.
    #[inline]
    fn slot(&self, id: NodeId) -> &NodeSlot {
        let (sh, ix) = self.topo.loc(id);
        &self.shards[sh].nodes[ix]
    }

    /// Exclusive access to a node's slot, wherever its shard put it.
    #[inline]
    fn slot_mut(&mut self, id: NodeId) -> &mut NodeSlot {
        let (sh, ix) = self.topo.loc(id);
        &mut self.shards[sh].nodes[ix]
    }

    /// Connect two node interfaces with a wired link.
    pub fn add_link(&mut self, a: Endpoint, b: Endpoint, spec: LinkSpec) {
        assert!(!self.finalized, "topology is frozen once the world runs");
        let idx = self.links.len();
        self.links.push((a, HalfLink::new(spec, b)));
        self.links.push((b, HalfLink::new(spec, a)));
        self.slot_mut(a.node).attach(a.iface, Attachment::Wired { link: idx });
        self.slot_mut(b.node).attach(b.iface, Attachment::Wired { link: idx + 1 });
    }

    /// Pin a *wired* node onto the shard of `cell` — a cell's proxy
    /// front-end belongs with its cell, not the backbone, so the chatty
    /// proxy↔AP traffic stays shard-local and only the calm proxy↔server
    /// backhaul crosses shards. Radio nodes follow their cell
    /// automatically and must not be pinned.
    pub fn pin_to_cell(&mut self, node: NodeId, cell: usize) {
        assert!(!self.finalized, "topology is frozen once the world runs");
        assert!(cell < self.topo.cell_loc.len(), "cell {cell} not installed");
        assert!(
            self.topo.node_cell[node.index()].is_none(),
            "pin_to_cell is for wired nodes; radio nodes follow their cell"
        );
        self.pins.push((node, cell as u32));
    }

    /// Create a radio cell: its own shared medium and the access point that
    /// bridges it to the wired side. Returns the cell index. Cell 0's
    /// medium RNG reproduces the legacy single-medium stream exactly; each
    /// further cell draws from its own derived stream, so per-cell
    /// outcomes are independent of how many other cells exist.
    pub fn add_cell(
        &mut self,
        airtime: AirtimeModel,
        max_backlog: SimDuration,
        ap: NodeId,
    ) -> usize {
        assert!(!self.finalized, "topology is frozen once the world runs");
        let idx = self.topo.cell_loc.len();
        let stage = &mut self.shards[0];
        self.topo.cell_loc.push((0, stage.cells.len() as u32));
        stage.cells.push(Cell {
            medium: Medium::new(airtime, max_backlog),
            rng: derive_rng(self.seed, streams::AP_DELAY + idx as u64),
            ap,
            members: Vec::new(),
            faults: None,
        });
        idx
    }

    /// Number of radio cells installed.
    pub fn cell_count(&self) -> usize {
        self.topo.cell_loc.len()
    }

    /// The cell a node's radio is attached to, if any.
    pub fn cell_of(&self, id: NodeId) -> Option<u32> {
        self.topo.node_cell[id.index()]
    }

    /// Shared access to a cell, wherever its shard put it.
    #[inline]
    fn cell(&self, cell: usize) -> &Cell {
        let (sh, ix) = self.topo.cell_loc[cell];
        &self.shards[sh as usize].cells[ix as usize]
    }

    /// The radio members of a cell (including its AP), in attach order.
    pub fn cell_members(&self, cell: usize) -> &[NodeId] {
        &self.cell(cell).members
    }

    /// Install a medium-level fault plan. Draws come from the dedicated
    /// fault stream, so an empty plan (the default) leaves every other
    /// random sequence — and thus the whole run — untouched. Each cell
    /// gets its own injector on its own derived stream (cell 0's stream is
    /// the legacy single-injector stream), keeping draws shard-local.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        if !plan.affects_medium() {
            return;
        }
        for k in 0..self.topo.cell_loc.len() {
            let seed = self.seed;
            let (sh, ix) = self.topo.cell_loc[k];
            self.shards[sh as usize].cells[ix as usize].faults = Some(FaultInjector::new(
                plan,
                derive_rng(seed, fault_stream(fault_streams::MEDIUM) + 256 * k as u64),
            ));
        }
    }

    /// Counters of injected medium faults so far, summed over cells.
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for s in &self.shards {
            for c in &s.cells {
                if let Some(f) = c.faults.as_ref() {
                    total.merge(&f.stats);
                }
            }
        }
        total
    }

    /// Mark `iface` on `node` as the node's radio interface, joined to the
    /// given cell. Attach the cell's AP first, then its clients in id
    /// order: broadcast delivery walks the member list in attach order.
    pub fn attach_wireless_cell(&mut self, node: NodeId, iface: IfaceId, cell: usize) {
        assert!(!self.finalized, "topology is frozen once the world runs");
        assert!(cell < self.topo.cell_loc.len(), "cell {cell} not installed (call add_cell first)");
        self.topo.node_cell[node.index()] = Some(cell as u32);
        let slot = self.slot_mut(node);
        slot.attach(iface, Attachment::Wireless);
        slot.wireless_iface = Some(iface);
        let (sh, ix) = self.topo.cell_loc[cell];
        self.shards[sh as usize].cells[ix as usize].members.push(node);
    }

    /// Engine counters for a node.
    pub fn stats(&self, id: NodeId) -> &NodeStats {
        &self.slot(id).stats
    }

    /// Energy report for a live-radio node as of the current time.
    pub fn wnic_report(&mut self, id: NodeId) -> Option<EnergyReport> {
        let now = self.now;
        self.slot_mut(id).wnic.as_mut().map(|w| w.report_at(now))
    }

    /// Take ownership of the captured trace, merged across shards in
    /// timestamp order (ties break by shard rank, then capture order —
    /// both deterministic). A single-shard world returns its capture
    /// as-is, byte-identical to the pre-shard engine.
    pub fn take_trace(&mut self) -> Vec<SnifferRecord> {
        if self.shards.len() == 1 {
            return self.shards[0].sniffer.take();
        }
        let mut all = Vec::new();
        for s in &mut self.shards {
            all.extend(s.sniffer.take());
        }
        // Each shard's capture is already time-ordered; a stable sort by
        // timestamp yields the (t, rank, capture-index) merge order.
        all.sort_by_key(|r| r.t);
        all
    }

    /// Frames dropped at the medium transmit queues, summed over cells.
    pub fn medium_drops(&self) -> u64 {
        self.shards.iter().flat_map(|s| s.cells.iter()).map(|c| c.medium.drops).sum()
    }

    /// Downcast a node to its concrete type.
    ///
    /// # Panics
    /// If the node is not a `T`.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        self.slot_mut(id)
            .node
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("invariant: caller names the node's registered concrete type (see Panics)")
    }

    /// Freeze the topology: decide every node's shard, redistribute the
    /// staging state, hand link halves to their senders' shards, derive
    /// the conservative lookahead, and pre-size every shard's event queue
    /// and scratch buffers from its own node count, so the steady-state
    /// hot path never reallocates (a capacity hint that cannot change any
    /// simulated outcome). Idempotent; runs lazily before the first event.
    /// Worlds with fewer than two radio cells stay one shard — the
    /// redistribution is then a no-op re-wiring and the event loop is the
    /// exact sequential loop of the pre-shard engine.
    fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        let cell_count = self.topo.cell_loc.len();
        let multi = cell_count >= 2;
        let shard_total = if multi { cell_count + 1 } else { 1 };

        // Every node's shard: its cell's (cell c → shard c+1), a pin, or
        // the wired backbone shard 0.
        let mut shard_of: Vec<u32> = self
            .topo
            .node_cell
            .iter()
            .map(|c| match c {
                Some(c) if multi => c + 1,
                _ => 0,
            })
            .collect();
        for &(id, cell) in &self.pins {
            if multi {
                shard_of[id.index()] = cell + 1;
            }
        }
        self.pins.clear();

        let stage = self.shards.pop().expect("invariant: the staging shard exists until finalize");
        assert!(self.shards.is_empty() && stage.queue.is_empty(), "finalize before any events");

        let mut shards: Vec<ShardState> = (0..shard_total as u32).map(ShardState::new).collect();
        for (i, slot) in stage.nodes.into_iter().enumerate() {
            let sh = shard_of[i] as usize;
            self.topo.node_loc[i] = (sh as u32, shards[sh].nodes.len() as u32);
            shards[sh].nodes.push(slot);
        }
        for (c, cell) in stage.cells.into_iter().enumerate() {
            let sh = if multi { c + 1 } else { 0 };
            self.topo.cell_loc[c] = (sh as u32, shards[sh].cells.len() as u32);
            shards[sh].cells.push(cell);
        }

        // Hand each staged link half to its sender's shard and re-point
        // the sender's attachment at that shard's wire table. The minimum
        // delay among shard-crossing halves is the lookahead.
        let mut lookahead = SimDuration::MAX;
        for (from_ep, half) in self.links.drain(..) {
            let from_sh = shard_of[from_ep.node.index()] as usize;
            let peer_shard = shard_of[half.peer.node.index()];
            if peer_shard as usize != from_sh {
                lookahead = lookahead.min(half.spec.delay);
            }
            let (sh, ix) = self.topo.loc(from_ep.node);
            debug_assert_eq!(sh, from_sh);
            let wire = shards[from_sh].wires.len();
            shards[sh].nodes[ix].attachments[from_ep.iface.0 as usize] =
                Some(Attachment::Wired { link: wire });
            shards[from_sh].wires.push(WireHalf { half, peer_shard });
        }
        if multi {
            assert!(
                !lookahead.is_zero(),
                "a zero-latency cross-shard link would force zero lookahead"
            );
        }
        self.topo.lookahead = lookahead;
        for s in &mut shards {
            // Empirically a node keeps a few dozen events in flight at
            // peak (timers, frames on the wire, schedule fan-outs). Sized
            // here, not in `ShardState::new`: the staging shard never
            // holds an event.
            s.queue.reserve(s.nodes.len().saturating_mul(64).max(1024));
            // `send_buf` is empty between dispatches, so this is an
            // absolute capacity floor for one handler's burst of sends.
            s.send_buf.reserve(32);
        }
        self.mail = Outboxes::new(shard_total);
        self.shards = shards;
    }

    /// Run the event loop until simulated `t` (inclusive of events at `t`).
    pub fn run_until(&mut self, t: SimTime) {
        self.finalize();
        if !self.started {
            self.started = true;
            // Start every node in id order, sequentially — identical to
            // the pre-shard engine's start sequence for any shard count.
            for i in 0..self.topo.node_loc.len() {
                self.with_node(NodeId(i as u32), |n, ctx| n.on_start(ctx));
            }
        }
        // Every window ends at `t + 1 µs` at the latest, so the call is
        // inclusive of events at `t` (time is integral µs). A one-shard
        // world has lookahead `SimDuration::MAX`: it runs as one window on
        // the caller's thread, the pre-shard event loop exactly.
        let plan = EpochPlan { threads: self.threads, target: t, lookahead: self.topo.lookahead };
        let topo = &self.topo;
        run_epochs(
            &mut self.shards,
            &mut self.mail,
            plan,
            |s: &ShardState| s.queue.peek_time(),
            |_, s, wend, tx| Exec { topo, s, tx }.run_window(wend),
            |s, (at, ev)| {
                s.queue.push(at, ev);
            },
        );
        for s in &mut self.shards {
            s.now = t;
        }
        self.now = t;
    }

    /// Run a handler on a node (out of band), then route its sends and
    /// synchronously apply any cross-shard mail they produced — injections
    /// between `run_until` calls must be visible before the next epoch is
    /// planned.
    fn with_node<F: FnOnce(&mut dyn Node, &mut Ctx<'_>)>(&mut self, id: NodeId, f: F) {
        self.finalize();
        let (sh, _) = self.topo.loc(id);
        let tx = self.mail.sender(sh);
        Exec { topo: &self.topo, s: &mut self.shards[sh], tx }.with_node(id, f);
        if self.shards.len() > 1 {
            let World { shards, mail, .. } = self;
            mail.drain_row(sh, |to, (at, ev)| {
                shards[to].queue.push(at, ev);
            });
        }
    }
}

/// One shard's execution view: the shard's own mutable state plus the
/// world-wide read-only tables and the shard's outbox. All event
/// dispatch — timers, wire arrivals, radio delivery — happens through
/// this; the only cross-shard effects are `tx` sends.
struct Exec<'a> {
    topo: &'a Topo,
    s: &'a mut ShardState,
    tx: MailSender<'a, (SimTime, Ev)>,
}

impl Exec<'_> {
    /// This shard's slot for a node; the node must live here.
    #[inline]
    fn local_slot(&mut self, id: NodeId) -> &mut NodeSlot {
        let (sh, ix) = self.topo.loc(id);
        debug_assert_eq!(sh, self.s.rank as usize, "node {id:?} dispatched on the wrong shard");
        &mut self.s.nodes[ix]
    }

    /// This shard's local index for a cell; the cell must live here.
    #[inline]
    fn local_cell(&self, cell: u32) -> usize {
        let (sh, ix) = self.topo.cell_loc[cell as usize];
        debug_assert_eq!(sh, self.s.rank, "cell {cell} touched from the wrong shard");
        ix as usize
    }

    /// Process every pending event strictly before `wend`, one at a time:
    /// pop the earliest, dispatch it, look again. An event therefore sees
    /// every effect of the events before it, same instant included — a
    /// timer cancelled by an earlier event of its own instant never fires.
    /// The window's event count reaches the recorder in one add.
    fn run_window(&mut self, wend: SimTime) {
        let before = self.s.events_processed;
        while self.s.queue.peek_time().is_some_and(|t| t < wend) {
            let (t, ev) = self.s.queue.pop().expect("invariant: peek_time saw an event");
            debug_assert!(t >= self.s.now, "event from the past");
            self.s.now = t;
            self.s.events_processed += 1;
            self.dispatch(ev);
        }
        self.s.obs.add(Counter::WorldEvents, self.s.events_processed - before);
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Timer { node, token } => {
                self.with_node(node, |n, ctx| n.on_timer(ctx, token));
            }
            Ev::WireArrive { node, iface, pkt } => {
                self.with_node(node, |n, ctx| n.on_packet(ctx, iface, pkt));
            }
            Ev::RadioArrive { pkt, from, airtime } => {
                self.radio_deliver(pkt, from, airtime);
            }
        }
    }

    /// Run a handler on a node, then route the sends it buffered.
    fn with_node<F: FnOnce(&mut dyn Node, &mut Ctx<'_>)>(&mut self, id: NodeId, f: F) {
        let mut sends = std::mem::take(&mut self.s.send_buf);
        debug_assert!(sends.is_empty());
        {
            let now = self.s.now;
            let (_, ix) = self.topo.loc(id);
            let slot = &mut self.s.nodes[ix];
            let mut ctx = Ctx {
                now,
                node: id,
                clock: &slot.clock,
                rng: &mut slot.rng,
                wnic: slot.wnic.as_mut(),
                queue: &mut self.s.queue,
                sends: &mut sends,
                packet_seq: &mut self.s.packet_seq,
                obs: &self.s.obs,
            };
            f(&mut *slot.node, &mut ctx);
        }
        for (iface, pkt) in sends.drain(..) {
            self.route_send(id, iface, pkt);
        }
        self.s.send_buf = sends;
    }

    /// Route one outbound frame onto its attachment.
    fn route_send(&mut self, from: NodeId, iface: IfaceId, pkt: Packet) {
        let att = self
            .local_slot(from)
            .attachments
            .get(iface.0 as usize)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("node {from:?} iface {iface:?} not attached"));
        match att {
            Attachment::Wired { link } => {
                let now = self.s.now;
                let w = &mut self.s.wires[link];
                match w.half.transmit(now, pkt.wire_size()) {
                    WireOutcome::Sent { arrive } => {
                        let peer = w.half.peer;
                        let peer_shard = w.peer_shard;
                        let ev = Ev::WireArrive { node: peer.node, iface: peer.iface, pkt };
                        if peer_shard == self.s.rank {
                            self.s.queue.push(arrive, ev);
                        } else {
                            // Arrives ≥ one lookahead away — at or past the
                            // epoch window's end — so applying it when the
                            // epoch ends is causally safe.
                            self.tx.send(peer_shard as usize, (arrive, ev));
                        }
                    }
                    WireOutcome::Dropped => { /* counted on the link */ }
                }
            }
            Attachment::Wireless => {
                let gci = self.topo.node_cell[from.index()]
                    .expect("invariant: wireless attachment implies a cell");
                let cix = self.local_cell(gci);
                let now = self.s.now;
                let cell = &mut self.s.cells[cix];
                // Fault decisions are drawn per attempted frame, before the
                // medium outcome, so the fault stream's position depends
                // only on traffic order (within this cell).
                let (reorder, dup) = match cell.faults.as_mut() {
                    Some(f) => (f.reorder_delay(), f.duplicate()),
                    None => (None, false),
                };
                match cell.medium.transmit(now, pkt.wire_size(), &mut cell.rng) {
                    TxOutcome::Sent { finish, airtime } => {
                        if dup {
                            // A retransmitted copy burns its own airtime slot.
                            if let TxOutcome::Sent { finish: f2, airtime: a2 } =
                                cell.medium.transmit(now, pkt.wire_size(), &mut cell.rng)
                            {
                                self.s.queue.push(
                                    f2,
                                    Ev::RadioArrive { pkt: pkt.clone(), from, airtime: a2 },
                                );
                            }
                        }
                        let arrive = match reorder {
                            Some(extra) => finish + extra,
                            None => finish,
                        };
                        self.s.queue.push(arrive, Ev::RadioArrive { pkt, from, airtime });
                    }
                    TxOutcome::Dropped => {
                        self.s.sniffer.record(SnifferRecord::of(
                            now,
                            &pkt,
                            SimDuration::ZERO,
                            Delivery::QueueDrop,
                        ));
                    }
                }
            }
        }
    }

    /// A frame's airtime completed: bill the transmitter, record it, and
    /// deliver to listening receivers in the transmitter's cell. Radio
    /// traffic never leaves the shard: every cell member (and the AP that
    /// bridges outward) lives on the cell's shard.
    fn radio_deliver(&mut self, pkt: Packet, from: NodeId, airtime: SimDuration) {
        let now = self.s.now;
        let gci = self.topo.node_cell[from.index()]
            .expect("invariant: radio frames originate from cell members");
        let cix = self.local_cell(gci);
        // Injected faults (frame loss, the §4.3 lossy channel, plus
        // targeted SRP drops): the frame burned its airtime but nobody
        // decodes it.
        let is_schedule = pkt.is_broadcast() && pkt.dst.port == ports::SCHEDULE;
        let corrupted =
            self.s.cells[cix].faults.as_mut().is_some_and(|f| f.should_drop(is_schedule));
        // Transmit-side energy (client uplink: TCP ACKs, stream feedback),
        // paid whether or not the frame was decoded.
        bill_transmit(self.local_slot(from), now, airtime);
        if corrupted {
            self.s.sniffer.record(SnifferRecord::of(now, &pkt, airtime, Delivery::Corrupted));
            return;
        }

        if pkt.is_broadcast() {
            self.s.sniffer.record(SnifferRecord::of(now, &pkt, airtime, Delivery::Broadcast));
            // Broadcast fan-out is bounded by the cell's member list — a
            // schedule broadcast in one cell costs O(cell size), never
            // O(total clients across the city.)
            let ap = self.s.cells[cix].ap;
            let n = self.s.cells[cix].members.len();
            for mi in 0..n {
                let id = self.s.cells[cix].members[mi];
                if id == from || id == ap {
                    continue; // the AP originated or bridged it; don't echo back
                }
                let slot = self.local_slot(id);
                let wiface =
                    slot.wireless_iface.expect("invariant: cell members always have a radio iface");
                if receive_if_listening(slot, now, airtime) {
                    let cloned = pkt.clone();
                    self.with_node(id, |n, ctx| n.on_packet(ctx, wiface, cloned));
                }
            }
            return;
        }

        // Unicast: find the owner of the destination host. Direct radio
        // delivery only within the transmitter's cell; anything else
        // (wired hosts, radios in other cells) bridges via the cell's AP.
        let ap = self.s.cells[cix].ap;
        let target = self.topo.host_lookup(pkt.dst.host);
        match target {
            Some(id) if self.topo.node_cell[id.index()] == Some(gci) && id != ap => {
                let slot = self.local_slot(id);
                let wiface =
                    slot.wireless_iface.expect("invariant: match arm checked wireless_iface");
                if receive_if_listening(slot, now, airtime) {
                    self.s.sniffer.record(SnifferRecord::of(
                        now,
                        &pkt,
                        airtime,
                        Delivery::Delivered,
                    ));
                    self.with_node(id, |n, ctx| n.on_packet(ctx, wiface, pkt));
                } else {
                    slot.stats.missed_frames += 1;
                    slot.stats.missed_airtime += airtime;
                    self.s.sniffer.record(SnifferRecord::of(
                        now,
                        &pkt,
                        airtime,
                        Delivery::MissedAsleep,
                    ));
                }
            }
            _ => {
                // Uplink toward a wired host, another cell, or unknown:
                // bridge via this cell's AP.
                if ap != from {
                    let wiface = self
                        .local_slot(ap)
                        .wireless_iface
                        .expect("invariant: the registered AP always has a radio iface");
                    self.s.sniffer.record(SnifferRecord::of(
                        now,
                        &pkt,
                        airtime,
                        Delivery::Delivered,
                    ));
                    self.with_node(ap, |n, ctx| n.on_packet(ctx, wiface, pkt));
                } else {
                    self.s.sniffer.record(SnifferRecord::of(
                        now,
                        &pkt,
                        airtime,
                        Delivery::NoSuchHost,
                    ));
                }
            }
        }
    }
}

/// Bill a transmitter for a frame's airtime.
#[inline]
fn bill_transmit(slot: &mut NodeSlot, now: SimTime, airtime: SimDuration) {
    slot.stats.tx_airtime += airtime;
    if let Some(w) = slot.wnic.as_mut() {
        w.on_transmit(now, airtime);
    }
}

/// If the node's radio is listening (wired-only nodes always are), bill
/// it for receiving a frame and return `true`.
#[inline]
fn receive_if_listening(slot: &mut NodeSlot, now: SimTime, airtime: SimDuration) -> bool {
    let listening = match slot.wnic.as_mut() {
        Some(w) => w.is_listening(now),
        None => true,
    };
    if listening {
        slot.stats.rx_frames += 1;
        slot.stats.rx_airtime += airtime;
        if let Some(w) = slot.wnic.as_mut() {
            w.on_receive(now, airtime);
        }
    }
    listening
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::SockAddr;
    use crate::node::{Ctx, Node, TimerId, TimerToken};
    use bytes::Bytes;
    use powerburst_obs::EventKind;
    use std::any::Any;

    /// Sends one UDP packet to a peer at start, counts what it receives.
    struct Chatter {
        peer: SockAddr,
        me: SockAddr,
        received: Vec<(SimTime, u64)>,
        send_at_start: bool,
    }

    impl Node for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if self.send_at_start {
                let id = ctx.alloc_packet_id();
                ctx.send(
                    IfaceId(0),
                    Packet::udp(id, self.me, self.peer, Bytes::from(vec![0; 100])),
                );
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, pkt: Packet) {
            self.received.push((ctx.now(), pkt.id));
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn chatter(me: SockAddr, peer: SockAddr, send: bool) -> Box<Chatter> {
        Box::new(Chatter { peer, me, received: Vec::new(), send_at_start: send })
    }

    #[test]
    fn wired_round_delivery() {
        let mut w = World::new(1);
        let ha = HostAddr(1);
        let hb = HostAddr(2);
        let a = w.add_node(
            chatter(SockAddr::new(ha, 1), SockAddr::new(hb, 2), true),
            NodeConfig::wired(ha),
        );
        let b = w.add_node(
            chatter(SockAddr::new(hb, 2), SockAddr::new(ha, 1), false),
            NodeConfig::wired(hb),
        );
        w.add_link(
            Endpoint { node: a, iface: IfaceId(0) },
            Endpoint { node: b, iface: IfaceId(0) },
            LinkSpec::FAST_ETHERNET,
        );
        w.run_until(SimTime::from_ms(10));
        let bn = w.node_mut::<Chatter>(b);
        assert_eq!(bn.received.len(), 1);
        // 148 bytes at 100Mbps ≈ 12us + 50us delay.
        assert!(bn.received[0].0.as_us() >= 50 && bn.received[0].0.as_us() < 200);
    }

    /// AP that bridges wired <-> wireless, used by radio tests here.
    struct MiniAp;
    impl Node for MiniAp {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
            // 0 = wired, 1 = radio: forward to the other side.
            let out = if iface == IfaceId(0) { IfaceId(1) } else { IfaceId(0) };
            ctx.send(out, pkt);
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn radio_world() -> (World, NodeId, NodeId, NodeId) {
        // server (wired) -- AP -- client (radio)
        let mut w = World::new(7);
        let hs = HostAddr(1);
        let hc = HostAddr(10);
        let server = w.add_node(
            chatter(SockAddr::new(hs, 1), SockAddr::new(hc, 2), true),
            NodeConfig::wired(hs),
        );
        let ap = w.add_node(Box::new(MiniAp), NodeConfig::infrastructure());
        let client = w.add_node(
            chatter(SockAddr::new(hc, 2), SockAddr::new(hs, 1), false),
            NodeConfig { host: Some(hc), clock: ClockModel::perfect(), live_radio: true },
        );
        w.add_link(
            Endpoint { node: server, iface: IfaceId(0) },
            Endpoint { node: ap, iface: IfaceId(0) },
            LinkSpec::FAST_ETHERNET,
        );
        w.add_cell(AirtimeModel::DSSS_11MBPS, SimDuration::from_ms(500), ap);
        w.attach_wireless_cell(ap, IfaceId(1), 0);
        w.attach_wireless_cell(client, IfaceId(0), 0);
        (w, server, ap, client)
    }

    #[test]
    fn radio_delivery_to_awake_client() {
        let (mut w, _s, _ap, client) = radio_world();
        w.run_until(SimTime::from_ms(50));
        assert_eq!(w.node_mut::<Chatter>(client).received.len(), 1);
        assert_eq!(w.stats(client).rx_frames, 1);
        assert_eq!(w.stats(client).missed_frames, 0);
        let rep = w.wnic_report(client).unwrap();
        assert!(rep.rx > SimDuration::ZERO);
        // Sniffer saw the downlink frame.
        assert!(w.take_trace().iter().any(|r| r.delivery == Delivery::Delivered));
    }

    /// Client that sleeps immediately and never wakes.
    struct Sleeper;
    impl Node for Sleeper {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.radio_sleep();
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _pkt: Packet) {
            panic!("a sleeping radio must not receive");
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn sleeping_client_misses_frames() {
        let mut w = World::new(9);
        let hs = HostAddr(1);
        let hc = HostAddr(10);
        let server = w.add_node(
            chatter(SockAddr::new(hs, 1), SockAddr::new(hc, 2), true),
            NodeConfig::wired(hs),
        );
        let ap = w.add_node(Box::new(MiniAp), NodeConfig::infrastructure());
        let client = w.add_node(
            Box::new(Sleeper),
            NodeConfig { host: Some(hc), clock: ClockModel::perfect(), live_radio: true },
        );
        w.add_link(
            Endpoint { node: server, iface: IfaceId(0) },
            Endpoint { node: ap, iface: IfaceId(0) },
            LinkSpec::FAST_ETHERNET,
        );
        w.add_cell(AirtimeModel::DSSS_11MBPS, SimDuration::from_ms(500), ap);
        w.attach_wireless_cell(ap, IfaceId(1), 0);
        w.attach_wireless_cell(client, IfaceId(0), 0);
        w.run_until(SimTime::from_ms(50));
        assert_eq!(w.stats(client).missed_frames, 1);
        assert_eq!(w.stats(client).rx_frames, 0);
        assert!(w.take_trace().iter().any(|r| r.delivery == Delivery::MissedAsleep));
        // Sleeping client burns roughly sleep power.
        let rep = w.wnic_report(client).unwrap();
        assert!(rep.sleep >= SimDuration::from_ms(49));
    }

    #[test]
    fn uplink_bridges_to_wired_host() {
        let mut w = World::new(11);
        let hs = HostAddr(1);
        let hc = HostAddr(10);
        // Server is silent; client sends at start.
        let server = w.add_node(
            chatter(SockAddr::new(hs, 1), SockAddr::new(hc, 2), false),
            NodeConfig::wired(hs),
        );
        let ap = w.add_node(Box::new(MiniAp), NodeConfig::infrastructure());
        let client = w.add_node(
            chatter(SockAddr::new(hc, 2), SockAddr::new(hs, 1), true),
            NodeConfig { host: Some(hc), clock: ClockModel::perfect(), live_radio: true },
        );
        w.add_link(
            Endpoint { node: server, iface: IfaceId(0) },
            Endpoint { node: ap, iface: IfaceId(0) },
            LinkSpec::FAST_ETHERNET,
        );
        w.add_cell(AirtimeModel::DSSS_11MBPS, SimDuration::from_ms(500), ap);
        w.attach_wireless_cell(ap, IfaceId(1), 0);
        w.attach_wireless_cell(client, IfaceId(0), 0);
        w.run_until(SimTime::from_ms(50));
        assert_eq!(w.node_mut::<Chatter>(server).received.len(), 1);
        // Client paid transmit energy.
        let rep = w.wnic_report(client).unwrap();
        assert!(rep.tx > SimDuration::ZERO);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let (mut w, _s, _a, _c) = radio_world();
            w.run_until(SimTime::from_ms(50));
            w.take_trace().iter().map(|r| (r.t, r.pkt_id, r.wire_size)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// AP that fires one broadcast onto its radio at start (and still
    /// bridges like MiniAp afterwards).
    struct BcastAp;
    impl Node for BcastAp {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let id = ctx.alloc_packet_id();
            ctx.send(
                IfaceId(1),
                Packet::udp(
                    id,
                    SockAddr::new(HostAddr(90), 7001),
                    SockAddr::new(HostAddr::BROADCAST, 7001),
                    Bytes::from(vec![0; 50]),
                ),
            );
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
            let out = if iface == IfaceId(0) { IfaceId(1) } else { IfaceId(0) };
            ctx.send(out, pkt);
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Two cells: client0+broadcasting AP in cell 0, client1+silent AP in
    /// cell 1, APs wired together.
    fn two_cell_world() -> (World, NodeId, NodeId) {
        let mut w = World::new(21);
        let h0 = HostAddr(10);
        let h1 = HostAddr(11);
        let ap0 = w.add_node(Box::new(BcastAp), NodeConfig::infrastructure());
        let client0 = w.add_node(
            chatter(SockAddr::new(h0, 2), SockAddr::new(h1, 2), false),
            NodeConfig { host: Some(h0), clock: ClockModel::perfect(), live_radio: false },
        );
        let ap1 = w.add_node(Box::new(MiniAp), NodeConfig::infrastructure());
        let client1 = w.add_node(
            chatter(SockAddr::new(h1, 2), SockAddr::new(h0, 2), false),
            NodeConfig { host: Some(h1), clock: ClockModel::perfect(), live_radio: false },
        );
        w.add_link(
            Endpoint { node: ap0, iface: IfaceId(0) },
            Endpoint { node: ap1, iface: IfaceId(0) },
            LinkSpec::FAST_ETHERNET,
        );
        let c0 = w.add_cell(AirtimeModel::DSSS_11MBPS, SimDuration::from_ms(500), ap0);
        let c1 = w.add_cell(AirtimeModel::DSSS_11MBPS, SimDuration::from_ms(500), ap1);
        w.attach_wireless_cell(ap0, IfaceId(1), c0);
        w.attach_wireless_cell(client0, IfaceId(0), c0);
        w.attach_wireless_cell(ap1, IfaceId(1), c1);
        w.attach_wireless_cell(client1, IfaceId(0), c1);
        assert_eq!(w.cell_count(), 2);
        assert_eq!(w.cell_of(client0), Some(0));
        assert_eq!(w.cell_of(client1), Some(1));
        assert_eq!(w.cell_members(0), &[ap0, client0]);
        assert_eq!(w.cell_members(1), &[ap1, client1]);
        (w, client0, client1)
    }

    #[test]
    fn broadcast_stays_inside_its_cell() {
        let (mut w, client0, client1) = two_cell_world();
        w.run_until(SimTime::from_ms(50));
        // Cell 0's broadcast reaches its own client, never cell 1's.
        assert_eq!(w.node_mut::<Chatter>(client0).received.len(), 1);
        assert_eq!(w.node_mut::<Chatter>(client1).received.len(), 0);
        assert_eq!(w.stats(client1).rx_frames, 0);
    }

    #[test]
    fn cross_cell_unicast_bridges_through_both_aps() {
        let (mut w, client0, client1) = two_cell_world();
        w.run_until(SimTime::from_ms(5));
        // Now make client0 talk to client1's host: radio → AP0 → wire →
        // AP1 → radio.
        let dst = SockAddr::new(HostAddr(11), 2);
        let src = SockAddr::new(HostAddr(10), 2);
        let pkt = Packet::udp(999, src, dst, Bytes::from(vec![0; 80]));
        w.with_node(client0, |_n, ctx| ctx.send(IfaceId(0), pkt));
        w.run_until(SimTime::from_ms(60));
        let got = &w.node_mut::<Chatter>(client1).received;
        assert!(got.iter().any(|(_, id)| *id == 999), "cross-cell unicast must arrive: {got:?}");
    }

    /// Records an event tagged with its cell through `ctx.obs()` at start
    /// and again when its 1 ms timer fires.
    struct Probe(u32);
    impl Probe {
        fn record(&self, ctx: &mut Ctx<'_>) {
            let kind = EventKind::BurstStart { client: self.0, budget_us: 0 };
            ctx.obs().event(ctx.now().as_us(), kind);
        }
    }
    impl Node for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.record(ctx);
            ctx.set_timer(SimDuration::from_ms(1), 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
            self.record(ctx);
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Two cells whose only radio is a probe, cell 1's probe added first:
    /// three shards (an empty wired backbone and one per cell), and node
    /// order opposite to cell order.
    fn probe_world() -> World {
        let mut w = World::new(5);
        let p1 = w.add_node(Box::new(Probe(1)), NodeConfig::infrastructure());
        let p0 = w.add_node(Box::new(Probe(0)), NodeConfig::infrastructure());
        for (c, p) in [p0, p1].into_iter().enumerate() {
            assert_eq!(w.add_cell(AirtimeModel::DSSS_11MBPS, SimDuration::from_ms(500), p), c);
            w.attach_wireless_cell(p, IfaceId(0), c);
        }
        w
    }

    #[test]
    fn nodes_record_on_their_shards_lane() {
        // Starts run in node order, so cell 1's probe records first at
        // t = 0; at 1 ms the cells' shards may run on different threads.
        // Lane order, which is shard order, decides both ties.
        for threads in [1, 2] {
            let mut w = probe_world();
            w.set_threads(threads);
            let rec = w.install_recorder(true, true);
            assert_eq!(w.shard_count(), 3);
            w.run_until(SimTime::from_ms(2));
            let got: Vec<(u64, u32)> = rec
                .export()
                .expect("enabled recorder")
                .events
                .iter()
                .map(|e| match e.kind {
                    EventKind::BurstStart { client, .. } => (e.t_us, client),
                    other => panic!("unexpected event {other:?}"),
                })
                .collect();
            assert_eq!(got, [(0, 0), (0, 1), (1_000, 0), (1_000, 1)], "threads={threads}");
        }
    }

    /// Arms timers 1 and 2 for the same instant; whichever fires first
    /// cancels timer 2.
    #[derive(Default)]
    struct SameInstantCancel {
        second: Option<TimerId>,
        fired: Vec<(u64, TimerToken)>,
        cancelled: Option<bool>,
    }
    impl Node for SameInstantCancel {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_ms(1), 1);
            self.second = Some(ctx.set_timer(SimDuration::from_ms(1), 2));
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
            self.fired.push((ctx.now().as_us(), token));
            if let Some(id) = self.second.take() {
                self.cancelled = Some(ctx.cancel_timer(id));
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn a_timer_cancelled_at_its_own_instant_never_fires() {
        let mut w = World::new(3);
        let n = w.add_node(Box::<SameInstantCancel>::default(), NodeConfig::infrastructure());
        w.run_until(SimTime::from_ms(2));
        let node = w.node_mut::<SameInstantCancel>(n);
        assert_eq!(node.fired, [(1_000, 1)]);
        assert_eq!(node.cancelled, Some(true), "the second timer was still pending");
    }

    /// Logs the tokens of the timers that fire.
    #[derive(Default)]
    struct TimerLog {
        fired: Vec<TimerToken>,
    }
    impl Node for TimerLog {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _pkt: Packet) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: TimerToken) {
            self.fired.push(token);
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn rearm_keeps_a_pending_timer_and_none_cancels_it() {
        let mut w = World::new(3);
        let n = w.add_node(Box::<TimerLog>::default(), NodeConfig::infrastructure());
        let mut timer = None;
        let at = Some(SimTime::from_ms(5));
        w.with_node(n, |_, ctx| ctx.rearm_timer_at(&mut timer, at, 7));
        let armed = timer.expect("a deadline arms the timer");
        let pending = w.shards[0].queue.len();
        // The same deadline keeps the handle and adds no heap entry.
        w.with_node(n, |_, ctx| ctx.rearm_timer_at(&mut timer, at, 7));
        assert_eq!(timer, Some(armed));
        assert_eq!(w.shards[0].queue.len(), pending);
        // No deadline cancels the timer and clears the slot.
        w.with_node(n, |_, ctx| ctx.rearm_timer_at(&mut timer, None, 7));
        assert_eq!(timer, None);
        assert_eq!(w.shards[0].queue.len(), pending - 1);
        w.run_until(SimTime::from_ms(10));
        assert!(w.node_mut::<TimerLog>(n).fired.is_empty(), "the cancelled timer fired");
    }

    #[test]
    #[should_panic(expected = "assigned to two nodes")]
    fn duplicate_host_panics() {
        let mut w = World::new(1);
        let h = HostAddr(5);
        w.add_node(chatter(SockAddr::new(h, 1), SockAddr::new(h, 1), false), NodeConfig::wired(h));
        w.add_node(chatter(SockAddr::new(h, 1), SockAddr::new(h, 1), false), NodeConfig::wired(h));
    }
}
