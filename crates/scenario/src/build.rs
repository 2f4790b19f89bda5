//! Topology assembly and scenario execution.
//!
//! Builds the paper's Figure-1 architecture: servers on Fast Ethernet, the
//! transparent proxy bridging toward the access point, clients (and the
//! implicit monitoring station — the engine sniffer) on the shared radio
//! medium; runs the workload; and collects per-client results through the
//! postmortem analyzer.
//!
//! [`run_scenario`] is the composition of public stages, so a harness can
//! step through one run and still get exactly its result: [`assemble`] →
//! `World::run_until` → `World::take_trace` → [`postmortem`] →
//! [`collect`].

use powerburst_client::PowerClient;
use powerburst_coord::{Coordinator, CoordinatorConfig, COORD_IFACE};
use powerburst_core::invariants::{check_energy_conservation, InvariantKind, Violation};
use powerburst_core::{
    AdmissionStats, PolicyKind, PolicyStats, Proxy, ProxyConfig, ProxyStats, PROXY_AP, PROXY_LAN,
};
use powerburst_energy::{naive_energy_mj, CardSpec};
use powerburst_net::faults::{clock_skew_ramp, fault_stream, fault_streams, ApJitterFault};
use powerburst_net::{
    ports, AccessPoint, AirtimeModel, ApDelayParams, ChannelModel, Endpoint, HostAddr, IfaceId,
    LinkSpec, NodeConfig, NodeId, Pipe, SnifferRecord, SockAddr, StaticRouter, Switch, World,
    AP_WIRED,
};
use powerburst_obs::{Counter, Recorder};
use powerburst_sim::rng::streams;
use powerburst_sim::{derive_rng, ClockModel, SimDuration, SimTime};
use powerburst_trace::{analyze_client, utilization, PostmortemReport};
use powerburst_traffic::{
    generate_script, App, ByteServer, FtpClientApp, StreamSpec, VideoClientApp, VideoServer,
    WebClientApp,
};

use crate::config::{ClientKind, RadioMode, ScenarioConfig};
use crate::results::{
    AppMetrics, ClientResult, FtpSummary, LiveSummary, ScenarioResult, WebSummary,
};

/// Well-known host numbering in assembled scenarios.
pub mod hosts {
    use powerburst_net::HostAddr;
    /// The streaming (Real) server.
    pub const VIDEO_SERVER: HostAddr = HostAddr(1);
    /// The web/ftp byte server.
    pub const BYTE_SERVER: HostAddr = HostAddr(2);
    /// The proxy itself (source of schedule broadcasts); in multi-cell
    /// worlds, the shard serving cell 0.
    pub const PROXY: HostAddr = HostAddr(3);
    /// The coordinator tier (instantiated in multi-cell worlds only).
    pub const COORDINATOR: HostAddr = HostAddr(4);
    /// Client `i` lives at `CLIENT_BASE + i`.
    pub const CLIENT_BASE: u32 = 100;

    /// Host address of client `i`.
    pub fn client(i: usize) -> HostAddr {
        HostAddr(CLIENT_BASE + i as u32)
    }

    /// Host address of proxy shard `r` in a world of `n_clients` clients.
    /// Shard 0 keeps the legacy [`PROXY`] address; later shards sit just
    /// above the client range so the dense host table stays compact.
    pub fn proxy_shard(r: usize, n_clients: usize) -> HostAddr {
        if r == 0 {
            PROXY
        } else {
            HostAddr(CLIENT_BASE + n_clients as u32 + r as u32)
        }
    }
}

/// Most occupied cells one world can hold. The switch numbers its
/// interfaces with a `u8`: two go to the servers, one to the coordinator,
/// and one to each occupied cell.
pub const MAX_CELLS: usize = u8::MAX as usize + 1 - 3;

/// AP transmit-queue bound, expressed as backlog time.
const MEDIUM_BACKLOG: SimDuration = SimDuration::from_ms(150);

/// Max client clock offset, microseconds (uniform ±).
const CLOCK_OFFSET_US: i64 = 5_000;

/// One proxy shard + access point serving one radio cell; `shards[c]`
/// serves cell `c`.
pub struct Shard {
    /// The shard proxy's node id.
    pub proxy: NodeId,
    /// The cell's access point node id.
    pub ap: NodeId,
    /// The shard proxy's host address.
    pub host: HostAddr,
    /// Indices (into `ScenarioConfig::clients`) of this cell's clients.
    pub clients: Vec<usize>,
}

/// Handles to the assembled world, for harnesses that need mid-run access.
pub struct Assembled {
    /// The world, ready to run.
    pub world: World,
    /// Client node ids, in spec order.
    pub clients: Vec<NodeId>,
    /// The video server's node id.
    pub video_server: NodeId,
    /// All proxy shards, one per occupied cell (length 1 in the paper's
    /// single-AP world).
    pub shards: Vec<Shard>,
    /// The coordinator's node id, in multi-cell worlds.
    pub coordinator: Option<NodeId>,
    /// The run's observability recorder (disabled unless the scenario
    /// enables collection), with one lane per world shard.
    pub obs: Recorder,
}

/// Build the world for a scenario without running it.
pub fn assemble(cfg: &ScenarioConfig) -> Assembled {
    let mut world = World::new(cfg.seed);
    let n = cfg.clients.len();

    // --- cell partition ------------------------------------------------------
    // Clients map onto cells round-robin, so the occupied cells are
    // `0..occupied_cells()` and each gets an AP + proxy shard: one client
    // in `cells: 16` assembles the identical 1-cell world.
    let cells = cfg.occupied_cells();
    // Switch ifaces: 0 video, 1 byte, 2+c per cell, one more for the
    // coordinator.
    assert!(cells <= MAX_CELLS, "too many occupied cells for the switch's u8 iface space: {cells}");
    let multi = cells > 1;
    let mut cell_clients: Vec<Vec<usize>> = vec![Vec::new(); cells];
    for i in 0..n {
        cell_clients[cfg.cell_of(i)].push(i);
    }

    // --- traffic provisioning ------------------------------------------------
    // §4.1: requests are spaced "roughly one second apart in order to
    // spread traffic". The jitter matters: exact multiples of the frame
    // interval would re-synchronize every stream's frame emissions.
    let mut stagger_rng = derive_rng(cfg.seed, streams::TRAFFIC_BASE + 999);
    let mut streams_v = Vec::new();
    for (i, spec) in cfg.clients.iter().enumerate() {
        if let ClientKind::Video { fidelity } = spec.kind {
            use rand::Rng;
            let jitter = powerburst_sim::SimDuration::from_us(stagger_rng.random_range(0..250_000));
            streams_v.push(StreamSpec {
                client: SockAddr::new(hosts::client(i), ports::MEDIA),
                fidelity,
                start: SimTime::ZERO + cfg.stagger * (i as u64 + 1) + jitter,
                duration: cfg.duration,
                flow: i as u64,
            });
        }
    }
    let streams = streams_v;
    let mut traffic_rng = derive_rng(cfg.seed, streams::TRAFFIC_BASE);
    let video_server = world.add_node(
        Box::new(VideoServer::new(
            SockAddr::new(hosts::VIDEO_SERVER, ports::MEDIA),
            streams,
            &mut traffic_rng,
        )),
        NodeConfig::wired(hosts::VIDEO_SERVER),
    );
    let byte_server = world.add_node(
        Box::new(ByteServer::new(SockAddr::new(hosts::BYTE_SERVER, ports::HTTP))),
        NodeConfig::wired(hosts::BYTE_SERVER),
    );

    // --- switch ---------------------------------------------------------------
    let mut router = StaticRouter::new();
    router.add_route(hosts::VIDEO_SERVER, IfaceId(0));
    router.add_route(hosts::BYTE_SERVER, IfaceId(1));
    router.set_default(IfaceId(2)); // shard 0 / unknown → proxy side
    if multi {
        // Each client's downstream traffic goes down its own cell's link;
        // later shard hosts and the coordinator get dedicated ifaces.
        // Shard 0 keeps riding the default route, exactly as before.
        for (c, clients) in cell_clients.iter().enumerate() {
            let iface = IfaceId((2 + c) as u8);
            for &i in clients {
                router.add_route(hosts::client(i), iface);
            }
            if c > 0 {
                router.add_route(hosts::proxy_shard(c, n), iface);
            }
        }
        router.add_route(hosts::COORDINATOR, IfaceId((2 + cells) as u8));
    }
    let switch = world.add_node(Box::new(Switch::new(router)), NodeConfig::infrastructure());

    // --- server uplinks ---------------------------------------------------------
    world.add_link(
        Endpoint { node: video_server, iface: IfaceId(0) },
        Endpoint { node: switch, iface: IfaceId(0) },
        LinkSpec::FAST_ETHERNET,
    );
    world.add_link(
        Endpoint { node: byte_server, iface: IfaceId(0) },
        Endpoint { node: switch, iface: IfaceId(1) },
        LinkSpec::FAST_ETHERNET,
    );

    // --- proxy shards + access points, one pair per occupied cell --------------
    // Creation order preserves the legacy 1-cell node-id layout exactly:
    // proxy(3), ap(4), pipe(5, when configured), then clients.
    let coord_addr = SockAddr::new(hosts::COORDINATOR, ports::COORD);
    let mut shards = Vec::with_capacity(cells);
    for (c, shard_clients) in cell_clients.into_iter().enumerate() {
        let shard_host = hosts::proxy_shard(c, n);
        let shard_client_hosts: Vec<HostAddr> =
            shard_clients.iter().map(|&i| hosts::client(i)).collect();
        let mut pcfg = ProxyConfig::new(
            SockAddr::new(shard_host, ports::SCHEDULE),
            shard_client_hosts,
            cfg.policy,
        );
        pcfg.mode = cfg.proxy_mode;
        pcfg.flag_unchanged = cfg.flag_unchanged;
        pcfg.admission = cfg.admission;
        pcfg.cell = c as u32;
        if multi {
            pcfg.coord = Some(coord_addr);
        }
        let mut proxy_node = Proxy::new(pcfg);
        // The Markov channel model is attached exactly for the policy that
        // reads it, so every other run keeps the paper's fixed-rate
        // information set. It draws from its own derived stream (one per
        // shard), so attaching it never perturbs any other stochastic
        // component of the run.
        if matches!(cfg.policy, PolicyKind::ChannelAware { .. }) {
            proxy_node.set_channel_model(ChannelModel::new(
                shard_clients.len(),
                derive_rng(cfg.seed, streams::CHANNEL + c as u64),
            ));
        }
        let proxy = world.add_node(
            Box::new(proxy_node),
            NodeConfig { host: Some(shard_host), clock: ClockModel::perfect(), live_radio: false },
        );

        let mut ap_node = AccessPoint::new(ApDelayParams::default());
        if cfg.faults.affects_ap() {
            ap_node = ap_node.with_fault_jitter(ApJitterFault::new(
                cfg.faults.ap_jitter_prob,
                cfg.faults.ap_jitter_max,
                // Cell 0 keeps the legacy AP fault stream; further cells
                // fan out far above every other fault-stream index.
                derive_rng(cfg.seed, fault_stream(fault_streams::AP) + 256 * c as u64),
            ));
        }
        let ap = world.add_node(Box::new(ap_node), NodeConfig::infrastructure());

        // In multi-cell worlds the switch → shard hop is the metro
        // backhaul, and the whole cell-side chain (pipe, proxy, AP, the
        // radio cell) is pinned onto the cell's shard — the backhaul's
        // delay is then the only cross-shard latency and becomes the
        // engine's conservative lookahead. 1-cell worlds keep the paper's
        // all-Fast-Ethernet LAN on the single sequential shard.
        let uplink_spec = if multi { LinkSpec::METRO_BACKHAUL } else { LinkSpec::FAST_ETHERNET };
        let uplink = Endpoint { node: switch, iface: IfaceId((2 + c) as u8) };
        let pipe =
            cfg.pipe.then(|| world.add_node(Box::<Pipe>::default(), NodeConfig::infrastructure()));
        match pipe {
            Some(pipe) => {
                world.add_link(uplink, Endpoint { node: pipe, iface: IfaceId(0) }, uplink_spec);
                world.add_link(
                    Endpoint { node: pipe, iface: IfaceId(1) },
                    Endpoint { node: proxy, iface: PROXY_LAN },
                    LinkSpec::FAST_ETHERNET,
                );
            }
            None => {
                world.add_link(uplink, Endpoint { node: proxy, iface: PROXY_LAN }, uplink_spec);
            }
        }
        world.add_link(
            Endpoint { node: proxy, iface: PROXY_AP },
            Endpoint { node: ap, iface: AP_WIRED },
            LinkSpec::FAST_ETHERNET,
        );
        let cell_idx = world.add_cell(AirtimeModel::DSSS_11MBPS, MEDIUM_BACKLOG, ap);
        debug_assert_eq!(cell_idx, c);
        world.attach_wireless_cell(ap, powerburst_net::AP_RADIO, c);
        if multi {
            world.pin_to_cell(proxy, c);
            if let Some(pipe) = pipe {
                world.pin_to_cell(pipe, c);
            }
        }

        shards.push(Shard { proxy, ap, host: shard_host, clients: shard_clients });
    }
    world.set_faults(cfg.faults);

    // --- clients --------------------------------------------------------------------------
    // Video clients send buffer-extended (32-byte) receiver reports only
    // under the buffer-aware policy, the one policy that reads them: the
    // legacy 24-byte reports keep every other run's trace byte-identical.
    let buffer_reports = matches!(cfg.policy, PolicyKind::BufferAware { .. });
    let mut clock_rng = derive_rng(cfg.seed, streams::CLOCK);
    let mut skew_rng = derive_rng(cfg.seed, fault_stream(fault_streams::CLOCK));
    let mut client_ids = Vec::with_capacity(n);
    for (i, spec) in cfg.clients.iter().enumerate() {
        let host = hosts::client(i);
        let app: Box<dyn App> = match &spec.kind {
            ClientKind::Video { fidelity } => {
                let mut app = VideoClientApp::new(
                    SockAddr::new(host, ports::MEDIA),
                    SockAddr::new(hosts::VIDEO_SERVER, ports::MEDIA),
                    i as u64,
                );
                if buffer_reports {
                    // Playout drains at the nominal stream rate.
                    app = app.with_buffer_reports(fidelity.effective_bps() as u64);
                }
                Box::new(app)
            }
            ClientKind::Web { script } => {
                let mut rng = derive_rng(cfg.seed, streams::TRAFFIC_BASE + 100 + i as u64);
                let pages = generate_script(script, &mut rng);
                Box::new(WebClientApp::new(
                    host,
                    SockAddr::new(hosts::BYTE_SERVER, ports::HTTP),
                    pages,
                ))
            }
            ClientKind::Ftp { size } => Box::new(FtpClientApp::new(
                SockAddr::new(host, 9_000),
                SockAddr::new(hosts::BYTE_SERVER, ports::HTTP),
                *size,
            )),
        };
        let mut clock = ClockModel::sample(&mut clock_rng, CLOCK_OFFSET_US, cfg.clock_drift_ppm);
        // Fault plan: pile an extra frequency error on top, so the
        // client↔proxy skew ramps linearly over the run.
        clock.drift_ppm += clock_skew_ramp(&cfg.faults, &mut skew_rng);
        // A Monitor-mode radio never sleeps and `postmortem` runs the
        // client policy, so the daemon there only hosts the app.
        let (daemon, live_radio) = match cfg.radio {
            RadioMode::Monitor => (PowerClient::monitor(app), false),
            RadioMode::Live => (PowerClient::live(host, spec.policy_params(), app), true),
        };
        let node =
            world.add_node(Box::new(daemon), NodeConfig { host: Some(host), clock, live_radio });
        world.attach_wireless_cell(node, IfaceId(0), cfg.cell_of(i));
        client_ids.push(node);
    }

    // --- coordinator (multi-cell only) ----------------------------------------
    let coordinator = if multi {
        let coord = world.add_node(
            Box::new(Coordinator::new(CoordinatorConfig {
                addr: coord_addr,
                pool_permille: cfg.coord_pool_permille,
            })),
            NodeConfig::wired(hosts::COORDINATOR),
        );
        world.add_link(
            Endpoint { node: switch, iface: IfaceId((2 + shards.len()) as u8) },
            Endpoint { node: coord, iface: COORD_IFACE },
            LinkSpec::FAST_ETHERNET,
        );
        Some(coord)
    } else {
        None
    };

    world.set_threads(cfg.threads);
    // One recorder per run: sweep jobs never share observability state, so
    // exports are deterministic regardless of how runs are parallelized.
    let obs = world.install_recorder(cfg.obs.metrics, cfg.obs.events);

    Assembled { world, clients: client_ids, video_server, shards, coordinator, obs }
}

/// Run a scenario to completion and collect results.
pub fn run_scenario(cfg: &ScenarioConfig) -> ScenarioResult {
    let mut a = assemble(cfg);
    a.world.run_until(SimTime::ZERO + cfg.duration);
    let trace = a.world.take_trace();
    let posts = postmortem(cfg, &trace);
    collect(cfg, &mut a, posts, &trace)
}

/// Replay the capture of a finished run once per client, in client order,
/// through the paper's postmortem analyzer.
pub fn postmortem(cfg: &ScenarioConfig, trace: &[SnifferRecord]) -> Vec<PostmortemReport> {
    let end = SimTime::ZERO + cfg.duration;
    cfg.clients
        .iter()
        .enumerate()
        .map(|(i, spec)| analyze_client(trace, hosts::client(i), end, &spec.policy_params()))
        .collect()
}

/// Fold a finished run into its result: live WNIC readouts, energy
/// conservation, daemon and app stats, the per-shard proxy, admission and
/// invariant counters, faults, utilization and the obs export. `posts`
/// are [`postmortem`]'s reports and `trace` the capture they came from.
pub fn collect(
    cfg: &ScenarioConfig,
    a: &mut Assembled,
    posts: Vec<PostmortemReport>,
    trace: &[SnifferRecord],
) -> ScenarioResult {
    let card = CardSpec::WAVELAN_DSSS;
    let mut clients = Vec::with_capacity(cfg.clients.len());
    let mut downshifts = 0u32;
    let mut dwell_violations: Vec<Violation> = Vec::new();
    assert_eq!(posts.len(), cfg.clients.len(), "one postmortem report per client");
    for ((i, spec), post) in cfg.clients.iter().enumerate().zip(posts) {
        let host = hosts::client(i);
        let node = a.clients[i];
        let live = match cfg.radio {
            RadioMode::Monitor => None,
            RadioMode::Live => {
                let stats = *a.world.stats(node);
                let rep = a.world.wnic_report(node).expect("live radio");
                let naive = naive_energy_mj(
                    &card,
                    cfg.duration,
                    stats.rx_airtime + stats.missed_airtime,
                    stats.tx_airtime,
                );
                Some(LiveSummary {
                    energy_mj: rep.total_mj,
                    naive_mj: naive,
                    saved: rep.saved_vs(naive),
                    missed_frames: stats.missed_frames,
                    rx_frames: stats.rx_frames,
                })
            }
        };

        // Energy conservation: the WNIC dwell times (live card in Live
        // runs, postmortem replay otherwise) must tile the run exactly.
        let dwell = match cfg.radio {
            RadioMode::Live => a.world.wnic_report(node).expect("live radio").duration(),
            RadioMode::Monitor => post.sleep + post.awake,
        };
        if let Some(v) =
            check_energy_conservation(host, dwell, cfg.duration, SimDuration::from_ms(2))
        {
            dwell_violations.push(v);
        }

        let (daemon, app) = {
            let pc = a.world.node_mut::<PowerClient>(node);
            let daemon = pc.stats;
            let app = match &spec.kind {
                ClientKind::Video { .. } => AppMetrics {
                    video: Some(pc.app_mut::<VideoClientApp>().stats()),
                    ..AppMetrics::default()
                },
                ClientKind::Web { .. } => {
                    let b = pc.app_mut::<WebClientApp>().stats();
                    let max = b.object_latencies_s.iter().copied().fold(0.0f64, f64::max);
                    AppMetrics {
                        web: Some(WebSummary {
                            objects_done: b.objects_done,
                            pages_done: b.pages_done,
                            bytes: b.bytes_received,
                            mean_latency_s: b.mean_latency_s(),
                            max_latency_s: max,
                        }),
                        ..AppMetrics::default()
                    }
                }
                ClientKind::Ftp { .. } => {
                    let f = pc.app_mut::<FtpClientApp>();
                    AppMetrics {
                        ftp: Some(FtpSummary {
                            done: f.done(),
                            transfer_s: f.transfer_time().map(|d| d.as_secs_f64()),
                            received: f.received,
                        }),
                        ..AppMetrics::default()
                    }
                }
            };
            (daemon, app)
        };

        clients.push(ClientResult {
            host,
            label: spec.kind.label(),
            is_video: spec.kind.is_video(),
            post,
            live,
            daemon,
            app,
        });
    }

    {
        let n_streams = cfg.clients.iter().filter(|c| c.kind.is_video()).count();
        let vs = a.world.node_mut::<VideoServer>(a.video_server);
        for s in 0..n_streams {
            downshifts += vs.downshifts(s);
        }
    }

    // Fold per-shard counters into one run-level picture. A 1-cell run has
    // exactly one shard, so this reduces to the legacy single-proxy reads.
    let mut proxy_stats = ProxyStats::default();
    let mut admission: Option<AdmissionStats> = None;
    let mut invariants = powerburst_core::invariants::InvariantLog::default();
    for s in &a.shards {
        let p = a.world.node_mut::<Proxy>(s.proxy);
        proxy_stats.merge(&p.stats);
        if let Some(shard_adm) = p.admission_stats() {
            admission.get_or_insert_with(AdmissionStats::default).merge(&shard_adm);
        }
        let log = p.take_invariants();
        invariants.merge(log);
    }
    for v in dwell_violations {
        invariants.record(v);
    }
    let faults = {
        let mut f = a.world.fault_stats();
        let mut spikes = 0u64;
        let mut fifo = 0u64;
        for s in &a.shards {
            let ap = a.world.node_mut::<AccessPoint>(s.ap);
            spikes += ap.fault_spikes();
            fifo += ap.fifo_violations;
        }
        f.ap_spikes = spikes;
        // record_counted is a no-op at zero, so summing across APs and
        // recording once keeps the 1-cell invariant log byte-identical.
        invariants.record_counted(
            fifo,
            Violation {
                kind: InvariantKind::ApOrdering,
                t: SimTime::ZERO + cfg.duration,
                client: None,
                detail: format!("{fifo} out-of-order AP departures"),
            },
        );
        f
    };
    // Mirror the invariant total into the metric catalog so a metrics
    // export alone is enough for CI to fail on violations.
    a.obs.add(Counter::InvariantViolations, invariants.total());
    // The live daemons' policy counters, reported once from their stats
    // (all zero in Monitor mode).
    let daemons = |f: fn(&PolicyStats) -> u64| clients.iter().map(|c| f(&c.daemon)).sum();
    a.obs.add(Counter::ClientSchedulesApplied, daemons(|d| d.schedules_applied));
    a.obs.add(Counter::ClientSchedulesMissed, daemons(|d| d.schedules_missed));
    a.obs.add(Counter::ClientMarksSeen, daemons(|d| d.marks_received));
    a.obs.add(Counter::ClientSkippedWakes, daemons(|d| d.skipped_srp_wakes));
    ScenarioResult {
        clients,
        proxy: proxy_stats,
        medium_drops: a.world.medium_drops(),
        utilization: utilization(trace, cfg.duration),
        trace_frames: trace.len(),
        duration: cfg.duration,
        downshifts,
        admission,
        faults,
        invariants,
        sim_events: a.world.events_processed(),
        obs: a.obs.export(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClientKind, ClientSpec, ScenarioConfig};
    use powerburst_core::PolicyKind;
    use powerburst_sim::SimDuration;
    use powerburst_traffic::Fidelity;

    fn video_cfg(n: usize, secs: u64) -> ScenarioConfig {
        let clients = (0..n)
            .map(|_| ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 }))
            .collect();
        ScenarioConfig::new(
            42,
            PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
            clients,
        )
        .with_duration(SimDuration::from_secs(secs))
    }

    #[test]
    fn single_video_client_end_to_end() {
        let r = run_scenario(&video_cfg(1, 20));
        let c = &r.clients[0];
        assert!(r.trace_frames > 100, "traffic flowed: {} frames", r.trace_frames);
        assert!(c.post.delivered > 50, "delivered {}", c.post.delivered);
        assert!(c.post.schedules_seen > 50, "schedules {}", c.post.schedules_seen);
        assert!(
            c.saved_pct() > 40.0,
            "low-rate stream must save energy, got {:.1}% (post: {:?})",
            c.saved_pct(),
            c.post
        );
        assert!(c.loss_pct() < 5.0, "loss {}", c.loss_pct());
        assert!(r.proxy.schedules_sent > 50);
        assert!(r.proxy.udp_packets_sent > 50);
    }

    proptest::proptest! {
        /// Round-robin placement partitions the clients for any client and
        /// cell count, fewer clients than cells included: every client's
        /// radio lands in cell `i % cells`, shards cover the client index
        /// space exactly once, each realized cell holds its AP plus
        /// precisely its own clients, and empty cells are elided.
        #[test]
        fn round_robin_cells_partition_clients(n in 1usize..32, cells in 1usize..40) {
            let clients = (0..n)
                .map(|_| ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 }))
                .collect();
            let cfg = ScenarioConfig::new(
                11,
                PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
                clients,
            )
            .with_cells(cells);
            let a = assemble(&cfg);

            let mut seen = vec![0u32; n];
            for (r, s) in a.shards.iter().enumerate() {
                for &i in &s.clients {
                    proptest::prop_assert_eq!(i % cells, r, "client {} misplaced", i);
                    seen[i] += 1;
                }
            }
            proptest::prop_assert!(seen.iter().all(|&c| c == 1), "partition: {:?}", seen);
            for (r, s) in a.shards.iter().enumerate() {
                proptest::prop_assert_eq!(
                    a.world.cell_members(r).len(),
                    s.clients.len() + 1,
                    "cell {} must hold its AP + its clients only", r
                );
                for &i in &s.clients {
                    proptest::prop_assert_eq!(a.world.cell_of(a.clients[i]), Some(r as u32));
                }
            }
            let occupied = n.min(cells);
            proptest::prop_assert_eq!(a.shards.len(), occupied, "one shard per occupied cell");
            proptest::prop_assert_eq!(a.world.cell_count(), occupied, "empty cells are elided");
            proptest::prop_assert_eq!(a.coordinator.is_some(), occupied > 1);
        }
    }

    #[test]
    fn three_mixed_clients_end_to_end() {
        let mut cfg = video_cfg(2, 20);
        cfg.clients.push(ClientSpec::new(ClientKind::Ftp { size: 300_000 }));
        let r = run_scenario(&cfg);
        assert_eq!(r.clients.len(), 3);
        let ftp = r.clients[2].app.ftp.expect("ftp metrics");
        assert!(ftp.done, "ftp finished: {ftp:?}");
        for c in &r.clients {
            assert!(c.saved_pct() > 20.0, "{}: {:.1}%", c.label, c.saved_pct());
        }
        assert!(r.proxy.splices_created >= 1);
        assert!(r.proxy.tcp_bytes_fed >= 300_000);
    }
}
