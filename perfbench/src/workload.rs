//! The benchmark's workloads and the pipelines that drive them.
//!
//! Every run goes from a [`ScenarioConfig`] to a result through the public
//! API of `powerburst-scenario` and the crates below it, on one worker
//! thread. Batch workloads (`paper-grid`, `tcp-faulted`) run untraced
//! through [`run_scenario`] and traced through `run_scenario_traced`, a
//! step-by-step copy of `run_scenario` with a span around every layer
//! call; equal output digests show the two agree. `city-live` takes the
//! light path (assemble + run, live-meter readout, no postmortem) in both
//! modes.

use std::time::Instant;

use powerburst_client::PowerClient;
use powerburst_coord::Coordinator;
use powerburst_core::{
    check_energy_conservation, AdmissionStats, InvariantKind, InvariantLog, PolicyKind, Proxy,
    ProxyStats, Violation,
};
use powerburst_energy::{naive_energy_mj, CardSpec};
use powerburst_net::{AccessPoint, FaultPlan};
use powerburst_obs::{Counter, EventKind, ObsEvent};
use powerburst_scenario::experiments::{city_cfg, INTERVALS};
use powerburst_scenario::{
    assemble, hosts, run_scenario, AppMetrics, Assembled, ClientKind, ClientResult, ClientSpec,
    FtpSummary, LiveSummary, ObsConfig, RadioMode, ScenarioConfig, ScenarioResult, VideoPattern,
    WebSummary,
};
use powerburst_sim::{SimDuration, SimTime};
use powerburst_trace::{analyze_client, utilization, PolicyParams, PostmortemReport};
use powerburst_traffic::{
    Fidelity, FtpClientApp, VideoClientApp, VideoServer, WebClientApp, WebScriptConfig,
};

use crate::span::Tracer;
use crate::stats::{median, run_seed, Digest};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 15 Figure-4 configurations, repeated over derived seeds.
    PaperGrid,
    /// §4.2's web clients and Figure 5's blend under the golden fault plan.
    TcpFaulted,
    /// 10 000 live-radio video clients in 157 cells with the coordinator.
    CityLive,
}

/// The five Figure-4 access patterns, in the paper's bar order.
const PATTERNS: [VideoPattern; 5] = [
    VideoPattern::All56,
    VideoPattern::All256,
    VideoPattern::All512,
    VideoPattern::Half56Half512,
    VideoPattern::Mixed,
];

/// The golden fault plan of the fault-injection and determinism tests:
/// 5 % loss, 1 % duplication, 2 % reordering, 2 % SRP drops, AP jitter
/// spikes and a 40 ppm clock-skew ramp.
pub(crate) const GOLDEN_FAULTS: FaultPlan = FaultPlan {
    loss_prob: 0.05,
    dup_prob: 0.01,
    reorder_prob: 0.02,
    reorder_max: SimDuration::from_ms(5),
    sched_drop_prob: 0.02,
    ap_jitter_prob: 0.2,
    ap_jitter_max: SimDuration::from_ms(10),
    clock_skew_ppm: 40.0,
};

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::PaperGrid, Workload::TcpFaulted, Workload::CityLive];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::TcpFaulted => "tcp-faulted",
            Workload::CityLive => "city-live",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether runs go through the full `run_scenario` (with postmortem).
    pub fn is_batch(self) -> bool {
        self != Workload::CityLive
    }
}

/// Worker threads per run: every workload measures one thread (the
/// traced `city-live` run adds a two-thread comparison).
pub(crate) const THREADS: usize = 1;

/// What one invocation runs: the workload, its seed and its size. Every
/// input is derived from these fields, so equal specs give equal inputs.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// The workload seed; run `i` uses `run_seed(seed, …)`.
    pub seed: u64,
    /// Scenario runs.
    pub runs: usize,
    /// Simulated length of each run.
    pub sim: SimDuration,
    /// Clients per run.
    pub clients: usize,
    /// Test-sized: also shortens the per-layer floors.
    pub tiny: bool,
}

impl Spec {
    /// The full-size workload for a measurement of about `seconds` host
    /// seconds. The run count depends only on `seconds`, never on how
    /// fast the host is, so the deterministic outputs (energy saved,
    /// loss, digest) depend only on the seed and `seconds`.
    pub fn full(workload: Workload, seed: u64, seconds: u64) -> Spec {
        let seconds = seconds.max(1) as usize;
        let (runs, sim, clients) = match workload {
            // A grid of 15 runs takes about 1.2 s: 24 grids at 30 s. From
            // 9 s up (7 grids) the p90 keeps at least 10 samples above it.
            Workload::PaperGrid => {
                (15 * (seconds * 4).div_ceil(5), SimDuration::from_secs(119), 10)
            }
            // About 35 ms a run; web and blend runs alternate.
            Workload::TcpFaulted => (2 * seconds * 14, SimDuration::from_secs(119), 10),
            // 0.5 s stagger ramp plus 3 s of steady state, about 2.5 s a run.
            Workload::CityLive => {
                ((seconds * 2).div_ceil(5).max(2), SimDuration::from_ms(3_500), 10_000)
            }
        };
        Spec { workload, seed, runs, sim, clients, tiny: false }
    }

    /// A seconds-long version for tests: few runs, short simulations and,
    /// for `city-live`, two cells of 64 clients.
    pub fn tiny(workload: Workload, seed: u64) -> Spec {
        let (runs, clients) = match workload {
            Workload::PaperGrid => (3, 10),
            Workload::TcpFaulted => (2, 10),
            Workload::CityLive => (2, 128),
        };
        Spec { workload, seed, runs, sim: SimDuration::from_secs(3), clients, tiny: true }
    }

    /// Radio cells per run.
    pub fn cells(&self) -> usize {
        match self.workload {
            Workload::CityLive => self.clients.div_ceil(64),
            _ => 1,
        }
    }

    /// The configuration of run `i`.
    pub fn config(&self, i: usize) -> ScenarioConfig {
        let i = i as u64;
        let cfg = match self.workload {
            Workload::PaperGrid => {
                // A grid of 15 shares one seed, like `experiment fig4`.
                let k = (i % 15) as usize;
                let policy = INTERVALS[k / 5].1.policy();
                let clients = video_clients(PATTERNS[k % 5], self.clients);
                ScenarioConfig::new(run_seed(self.seed, i / 15), policy, clients)
            }
            Workload::TcpFaulted => {
                // Even runs: ten web clients (§4.2); odd runs: seven 56K
                // video + three web clients (Figure 5). A pair shares a seed.
                let web = ClientSpec::new(ClientKind::Web { script: WebScriptConfig::default() });
                let clients = if i.is_multiple_of(2) {
                    vec![web; self.clients]
                } else {
                    let video = self.clients * 7 / 10;
                    let mut c = video_clients(VideoPattern::All56, video);
                    c.extend(std::iter::repeat_n(web, self.clients - video));
                    c
                };
                let policy = PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) };
                ScenarioConfig::new(run_seed(self.seed, i / 2), policy, clients)
                    .with_faults(GOLDEN_FAULTS)
                    .with_obs(ObsConfig::full())
            }
            Workload::CityLive => {
                let mut cfg = city_cfg(run_seed(self.seed, i), self.clients, self.sim);
                cfg.radio = RadioMode::Live;
                cfg
            }
        };
        cfg.with_duration(self.sim).with_threads(THREADS)
    }

    /// The spec as a JSON object, for the report.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"runs\":{},\"sim_s\":{},\"clients_per_run\":{},\"cells\":{},\"threads\":{}}}",
            self.workload.name(),
            self.seed,
            self.runs,
            self.sim.as_secs_f64(),
            self.clients,
            self.cells(),
            THREADS
        )
    }
}

fn video_clients(pattern: VideoPattern, n: usize) -> Vec<ClientSpec> {
    pattern
        .fidelities(n)
        .into_iter()
        .map(|fidelity: Fidelity| ClientSpec::new(ClientKind::Video { fidelity }))
        .collect()
}

/// Counts read from one run's result, summed over runs by [`Tally`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Events dispatched by the event loop.
    pub events: u64,
    /// Shards the world ran as (the largest seen, not a sum).
    pub shards: u64,
    /// Frames in the captured trace.
    pub trace_frames: u64,
    /// Trace frames × clients: the postmortem's work.
    pub frame_clients: u64,
    /// Frames dropped at the medium transmit queues.
    pub medium_drops: u64,
    /// Faults the injector applied (all kinds).
    pub faults_injected: u64,
    /// Schedules the proxies broadcast.
    pub schedules: u64,
    /// Schedules flagged unchanged.
    pub unchanged: u64,
    /// Packets dropped at the proxies' per-client queues.
    pub queue_drops: u64,
    /// UDP packets the proxies burst to clients.
    pub udp_sent: u64,
    /// TCP splices created.
    pub splices: u64,
    /// TCP payload bytes fed into splices.
    pub tcp_bytes_fed: u64,
    /// Bursts started (recorder counter).
    pub bursts_started: u64,
    /// Bursts that overran their slot (recorder counter).
    pub slot_overruns: u64,
    /// Schedules clients applied (recorder counter).
    pub sched_applied: u64,
    /// SRP wake-ups without a schedule (recorder counter).
    pub sched_missed: u64,
    /// Frames live radios slept through.
    pub missed_frames: u64,
    /// Demand reports the coordinator received.
    pub coord_reports: u64,
    /// Budget grants the coordinator sent.
    pub coord_grants: u64,
    /// Events in the obs export.
    pub obs_events: u64,
    /// Events the obs channel dropped at its cap.
    pub obs_dropped: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.shards = self.shards.max(o.shards);
        self.trace_frames += o.trace_frames;
        self.frame_clients += o.frame_clients;
        self.medium_drops += o.medium_drops;
        self.faults_injected += o.faults_injected;
        self.schedules += o.schedules;
        self.unchanged += o.unchanged;
        self.queue_drops += o.queue_drops;
        self.udp_sent += o.udp_sent;
        self.splices += o.splices;
        self.tcp_bytes_fed += o.tcp_bytes_fed;
        self.bursts_started += o.bursts_started;
        self.slot_overruns += o.slot_overruns;
        self.sched_applied += o.sched_applied;
        self.sched_missed += o.sched_missed;
        self.missed_frames += o.missed_frames;
        self.coord_reports += o.coord_reports;
        self.coord_grants += o.coord_grants;
        self.obs_events += o.obs_events;
        self.obs_dropped += o.obs_dropped;
    }
}

/// What one scenario run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Host seconds from config to result.
    pub run_s: f64,
    /// Host seconds in `scenario::assemble`.
    pub setup_s: f64,
    /// Simulated client-seconds completed.
    pub client_s: f64,
    /// Clients reported.
    pub clients: usize,
    /// Sum over clients of percent energy saved.
    pub saved_sum: f64,
    /// Sum over clients of percent packets lost.
    pub loss_sum: f64,
    /// The run's invariant log was clean.
    pub clean: bool,
    /// Digest of the run's deterministic outputs.
    pub digest: u64,
    /// Layer counts.
    pub counts: Counts,
}

impl Outcome {
    /// The outcome with its host times multiplied by `k` (a host-speed
    /// calibration, see [`crate::calib`]).
    pub fn scaled(&self, k: f64) -> Outcome {
        Outcome { run_s: self.run_s * k, setup_s: self.setup_s * k, ..self.clone() }
    }
}

/// Run `i` of `spec` untraced: the end-to-end path.
pub fn run_untraced(spec: &Spec, i: usize) -> Outcome {
    let cfg = spec.config(i);
    if spec.workload.is_batch() {
        batch_untraced(&cfg)
    } else {
        let mut o = city_run(&cfg, &mut Tracer::off());
        o.setup_s = setup_median(&cfg, Some(o.setup_s));
        o
    }
}

/// Run `i` of `spec` with spans recorded into `tr` (tagged with run `i`).
pub(crate) fn run_traced(spec: &Spec, i: usize, tr: &mut Tracer) -> Outcome {
    let cfg = spec.config(i);
    tr.set_run(i as u32);
    if spec.workload.is_batch() {
        batch_traced(&cfg, tr)
    } else {
        city_run(&cfg, tr)
    }
}

/// Host seconds of one `assemble` of `cfg` (the world's teardown is not
/// timed).
fn time_assemble(cfg: &ScenarioConfig) -> f64 {
    let t = Instant::now();
    let a = assemble(cfg);
    let s = t.elapsed().as_secs_f64();
    drop(a);
    s
}

/// Median of `first` and `SETUP_REPEATS - 1` more assembles of `cfg`.
fn setup_median(cfg: &ScenarioConfig, first: Option<f64>) -> f64 {
    let mut v: Vec<f64> = first.into_iter().collect();
    while v.len() < SETUP_REPEATS {
        v.push(time_assemble(cfg));
    }
    median(&v)
}

/// Assembles per run whose median is the run's set-up time: one slow
/// assemble (a page-fault burst, a preempted core) does not move it.
const SETUP_REPEATS: usize = 3;

/// A batch run through the full `run_scenario`. `setup_s` comes from
/// separate assembles of the same config, since `run_scenario` does not
/// expose its own.
pub(crate) fn batch_untraced(cfg: &ScenarioConfig) -> Outcome {
    let setup_s = setup_median(cfg, None);
    let t = Instant::now();
    let r = run_scenario(cfg);
    let run_s = t.elapsed().as_secs_f64();
    // Batch workloads are 1-cell worlds, which always run as one shard.
    batch_outcome(cfg, &r, run_s, setup_s, 1)
}

fn batch_traced(cfg: &ScenarioConfig, tr: &mut Tracer) -> Outcome {
    let root = tr.enter("scenario.run");
    let (r, setup_s, shards) = run_scenario_traced(cfg, tr);
    let run_s = tr.exit(root);
    batch_outcome(cfg, &r, run_s, setup_s, shards)
}

/// Outcome of a batch run from its result.
pub fn batch_outcome(
    cfg: &ScenarioConfig,
    r: &ScenarioResult,
    run_s: f64,
    setup_s: f64,
    shards: usize,
) -> Outcome {
    let f = &r.faults;
    let obs = |c: Counter| r.obs.as_ref().map_or(0, |o| o.counter(c));
    let counts = Counts {
        events: r.sim_events,
        shards: shards as u64,
        trace_frames: r.trace_frames as u64,
        frame_clients: (r.trace_frames * r.clients.len()) as u64,
        medium_drops: r.medium_drops,
        faults_injected: f.frames_lost
            + f.schedules_dropped
            + f.frames_duplicated
            + f.frames_reordered
            + f.ap_spikes,
        schedules: r.proxy.schedules_sent,
        unchanged: r.proxy.unchanged_schedules,
        queue_drops: r.proxy.queue_drops,
        udp_sent: r.proxy.udp_packets_sent,
        splices: r.proxy.splices_created,
        tcp_bytes_fed: r.proxy.tcp_bytes_fed,
        bursts_started: obs(Counter::BurstsStarted),
        slot_overruns: obs(Counter::SlotOverruns),
        sched_applied: obs(Counter::ClientSchedulesApplied),
        sched_missed: obs(Counter::ClientSchedulesMissed),
        missed_frames: r.clients.iter().filter_map(|c| c.live).map(|l| l.missed_frames).sum(),
        coord_reports: 0,
        coord_grants: 0,
        obs_events: r.obs.as_ref().map_or(0, |o| o.events.len() as u64),
        obs_dropped: r.obs.as_ref().map_or(0, |o| o.events_dropped),
    };
    Outcome {
        run_s,
        setup_s,
        client_s: r.clients.len() as f64 * cfg.duration.as_secs_f64(),
        clients: r.clients.len(),
        saved_sum: r.clients.iter().map(ClientResult::saved_pct).sum(),
        loss_sum: r.clients.iter().map(client_loss_pct).sum(),
        clean: r.invariants.is_clean(),
        digest: result_digest(r),
        counts,
    }
}

/// A client's packet loss, percent. A video client counts the stream
/// packets the server sent that never reached its player (proxy queue
/// drops, AP drops, faults, frames slept through). TCP recovers every
/// loss, so a web client counts what its radio lost: frames addressed to
/// it that arrived while it slept.
pub(crate) fn client_loss_pct(c: &ClientResult) -> f64 {
    match c.app.video {
        Some(p) => p.loss_fraction() * 100.0,
        None => c.loss_pct(),
    }
}

/// Digest of everything deterministic in a batch result: the event count,
/// every per-client report, the run counters, the invariant log and the
/// obs export (metrics JSON bytes and every event). `Debug` prints floats
/// exactly (shortest round-trip form), so equal digests mean bit-equal
/// results.
pub(crate) fn result_digest(r: &ScenarioResult) -> u64 {
    let mut d = Digest::default();
    d.feed_u64(r.sim_events);
    let body = format!(
        "{:?}|{:?}|{}|{:?}|{}|{:?}|{}|{:?}|{:?}|{:?}",
        r.clients,
        r.proxy,
        r.medium_drops,
        r.utilization,
        r.trace_frames,
        r.duration,
        r.downshifts,
        r.admission,
        r.faults,
        r.invariants
    );
    d.feed(body.as_bytes());
    if let Some(o) = &r.obs {
        d.feed(o.metrics_json().as_bytes());
        d.feed_u64(o.events_dropped);
        for e in &o.events {
            feed_event(&mut d, e);
        }
    }
    d.value()
}

/// Fold every field of one exported event into `d`: the content of its
/// JSONL line, without the cost of rendering it (tens of thousands of
/// events per `tcp-faulted` run).
fn feed_event(d: &mut Digest, e: &ObsEvent) {
    d.feed_u64(e.t_us);
    d.feed(e.kind.tag().as_bytes());
    match e.kind {
        EventKind::ScheduleBroadcast { seq, entries, bytes, next_srp_us, unchanged, saturated } => {
            for v in
                [seq, entries.into(), bytes.into(), next_srp_us, unchanged.into(), saturated.into()]
            {
                d.feed_u64(v);
            }
        }
        EventKind::BurstStart { client, budget_us } => {
            d.feed_u64(client.into());
            d.feed_u64(budget_us);
        }
        EventKind::BurstEnd { client, spent_us, margin_us } => {
            d.feed_u64(client.into());
            d.feed_u64(spent_us);
            d.feed(&margin_us.to_le_bytes());
        }
        EventKind::WakeLead { client, lead_us, woke_for } => {
            d.feed_u64(client.into());
            d.feed_u64(lead_us);
            d.feed(woke_for.as_bytes());
        }
        EventKind::WnicState { client, from, to } => {
            d.feed_u64(client.into());
            d.feed(from.as_bytes());
            d.feed(to.as_bytes());
        }
        EventKind::QueueDepth { client, bytes, pkts } => {
            d.feed_u64(client.into());
            d.feed_u64(bytes);
            d.feed_u64(pkts);
        }
        EventKind::HarnessBanner { name, seed, duration_us, threads } => {
            d.feed(name.as_bytes());
            d.feed_u64(seed);
            d.feed_u64(duration_us);
            d.feed_u64(threads.into());
        }
    }
}

/// `run_scenario`, step by step, with a span around each layer call:
/// `scenario.assemble`, `sim.run_until`, `net.take_trace`,
/// `trace.postmortem`, `scenario.collect`, `obs.export` and
/// `scenario.teardown`. Must return exactly what `run_scenario` returns
/// (the traced run checks this through the digest). Also returns the
/// assemble time and the world's shard count.
pub(crate) fn run_scenario_traced(
    cfg: &ScenarioConfig,
    tr: &mut Tracer,
) -> (ScenarioResult, f64, usize) {
    let end = SimTime::ZERO + cfg.duration;
    let span = tr.enter("scenario.assemble");
    let mut a = assemble(cfg);
    let setup_s = tr.exit(span);
    tr.time("sim.run_until", || a.world.run_until(end));
    let trace = tr.time("net.take_trace", || a.world.take_trace());
    let (posts, util) = tr.time("trace.postmortem", || {
        let posts: Vec<PostmortemReport> = cfg
            .clients
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let policy = PolicyParams {
                    early_transition: spec.early_transition,
                    skip_unchanged: spec.skip_unchanged,
                    ..PolicyParams::default()
                };
                analyze_client(&trace, hosts::client(i), end, &policy)
            })
            .collect();
        (posts, utilization(&trace, cfg.duration))
    });
    let frames = trace.len();
    let mut r = tr.time("scenario.collect", || collect_batch(cfg, &mut a, posts, util, frames));
    r.obs = tr.time("obs.export", || a.obs.export());
    let shards = a.world.shard_count();
    tr.time("scenario.teardown", || drop((a, trace)));
    (r, setup_s, shards)
}

/// The result assembly of `run_scenario` after the postmortem: live
/// summaries, energy conservation, daemon and app stats, proxy counters,
/// faults and the invariant log.
fn collect_batch(
    cfg: &ScenarioConfig,
    a: &mut Assembled,
    posts: Vec<PostmortemReport>,
    util: f64,
    trace_frames: usize,
) -> ScenarioResult {
    let card = CardSpec::WAVELAN_DSSS;
    let mut clients = Vec::with_capacity(cfg.clients.len());
    let mut dwell_violations: Vec<Violation> = Vec::new();
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
        let dwell = match cfg.radio {
            RadioMode::Live => a.world.wnic_report(node).expect("live radio").duration(),
            RadioMode::Monitor => post.sleep + post.awake,
        };
        if let Some(v) =
            check_energy_conservation(host, dwell, cfg.duration, SimDuration::from_ms(2))
        {
            dwell_violations.push(v);
        }
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

    let mut downshifts = 0u32;
    let n_streams = cfg.clients.iter().filter(|c| c.kind.is_video()).count();
    let vs = a.world.node_mut::<VideoServer>(a.video_server);
    for s in 0..n_streams {
        downshifts += vs.downshifts(s);
    }

    let mut proxy = ProxyStats::default();
    let mut admission: Option<AdmissionStats> = None;
    let mut invariants = InvariantLog::default();
    for s in &a.shards {
        let p = a.world.node_mut::<Proxy>(s.proxy);
        proxy.merge(&p.stats);
        if let Some(shard_adm) = p.admission_stats() {
            let total = admission.get_or_insert(AdmissionStats::default());
            total.admitted += shard_adm.admitted;
            total.rejected += shard_adm.rejected;
            total.packets_refused += shard_adm.packets_refused;
        }
        invariants.merge(p.take_invariants());
    }
    for v in dwell_violations {
        invariants.record(v);
    }
    let mut faults = a.world.fault_stats();
    let (spikes, fifo) = ap_totals(a);
    faults.ap_spikes = spikes;
    record_fifo(&mut invariants, fifo, cfg.duration);
    a.obs.add(Counter::InvariantViolations, invariants.total());
    ScenarioResult {
        clients,
        proxy,
        medium_drops: a.world.medium_drops(),
        utilization: util,
        trace_frames,
        duration: cfg.duration,
        downshifts,
        admission,
        faults,
        invariants,
        sim_events: a.world.events_processed(),
        obs: None,
    }
}

/// AP jitter spikes and FIFO violations summed over every cell's AP.
fn ap_totals(a: &mut Assembled) -> (u64, u64) {
    let (mut spikes, mut fifo) = (0, 0);
    for s in &a.shards {
        let ap = a.world.node_mut::<AccessPoint>(s.ap);
        spikes += ap.fault_spikes();
        fifo += ap.fifo_violations;
    }
    (spikes, fifo)
}

fn record_fifo(log: &mut InvariantLog, fifo: u64, duration: SimDuration) {
    log.record_counted(
        fifo,
        Violation {
            kind: InvariantKind::ApOrdering,
            t: SimTime::ZERO + duration,
            client: None,
            detail: format!("{fifo} out-of-order AP departures"),
        },
    );
}

/// A `city-live` run on the light path: assemble, run, then read every
/// client's live WNIC meter and the proxies' and coordinator's counters.
/// No trace is analyzed. The invariant log holds the proxies' checks,
/// energy conservation of every live meter and AP ordering.
pub(crate) fn city_run(cfg: &ScenarioConfig, tr: &mut Tracer) -> Outcome {
    let t0 = Instant::now();
    let root = tr.enter("scenario.run");
    let ta = Instant::now();
    let span = tr.enter("scenario.assemble");
    let mut a = assemble(cfg);
    tr.exit(span);
    let setup_s = ta.elapsed().as_secs_f64();
    let end = SimTime::ZERO + cfg.duration;
    tr.time("sim.run_until", || a.world.run_until(end));
    let mut out = tr.time("scenario.collect", || collect_live(cfg, &mut a));
    tr.time("scenario.teardown", || drop(a));
    tr.exit(root);
    out.run_s = t0.elapsed().as_secs_f64();
    out.setup_s = setup_s;
    out
}

fn collect_live(cfg: &ScenarioConfig, a: &mut Assembled) -> Outcome {
    let card = CardSpec::WAVELAN_DSSS;
    let mut d = Digest::default();
    d.feed_u64(a.world.events_processed());
    let mut invariants = InvariantLog::default();
    let (mut saved_sum, mut loss_sum, mut missed) = (0.0, 0.0, 0u64);
    for (i, &node) in a.clients.iter().enumerate() {
        let stats = *a.world.stats(node);
        let rep = a.world.wnic_report(node).expect("city-live clients carry live radios");
        let naive = naive_energy_mj(
            &card,
            cfg.duration,
            stats.rx_airtime + stats.missed_airtime,
            stats.tx_airtime,
        );
        saved_sum += rep.saved_vs(naive) * 100.0;
        let player = a.world.node_mut::<PowerClient>(node).app_mut::<VideoClientApp>().stats();
        loss_sum += player.loss_fraction() * 100.0;
        missed += stats.missed_frames;
        if let Some(v) = check_energy_conservation(
            hosts::client(i),
            rep.duration(),
            cfg.duration,
            SimDuration::from_ms(2),
        ) {
            invariants.record(v);
        }
        d.feed_u64(rep.total_mj.to_bits());
        d.feed_u64(naive.to_bits());
        d.feed_u64(stats.rx_frames);
        d.feed_u64(stats.missed_frames);
        d.feed_u64(player.received);
        d.feed_u64(player.highest_plus_one);
    }
    let mut proxy = ProxyStats::default();
    for s in &a.shards {
        let p = a.world.node_mut::<Proxy>(s.proxy);
        proxy.merge(&p.stats);
        invariants.merge(p.take_invariants());
    }
    let (_, fifo) = ap_totals(a);
    record_fifo(&mut invariants, fifo, cfg.duration);
    let coord = a.coordinator.map(|c| a.world.node_mut::<Coordinator>(c).stats).unwrap_or_default();
    let medium_drops = a.world.medium_drops();
    d.feed(format!("{proxy:?}|{coord:?}|{medium_drops}|{invariants:?}").as_bytes());
    Outcome {
        run_s: 0.0,
        setup_s: 0.0,
        client_s: a.clients.len() as f64 * cfg.duration.as_secs_f64(),
        clients: a.clients.len(),
        saved_sum,
        loss_sum,
        clean: invariants.is_clean(),
        digest: d.value(),
        counts: Counts {
            events: a.world.events_processed(),
            shards: a.world.shard_count() as u64,
            medium_drops,
            schedules: proxy.schedules_sent,
            unchanged: proxy.unchanged_schedules,
            queue_drops: proxy.queue_drops,
            udp_sent: proxy.udp_packets_sent,
            splices: proxy.splices_created,
            tcp_bytes_fed: proxy.tcp_bytes_fed,
            missed_frames: missed,
            coord_reports: coord.reports_received,
            coord_grants: coord.grants_sent,
            ..Counts::default()
        },
    }
}

/// Runs of one pass, folded together.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Runs attempted.
    pub attempted: usize,
    /// Runs whose invariant log was not clean.
    pub failed: usize,
    /// Host seconds of each run.
    pub run_s: Vec<f64>,
    /// Host seconds in `assemble`, summed.
    pub setup_s: f64,
    /// Simulated client-seconds, summed.
    pub client_s: f64,
    /// Clients reported, summed.
    pub clients: usize,
    /// Percent saved, summed over clients.
    pub saved_sum: f64,
    /// Percent lost, summed over clients.
    pub loss_sum: f64,
    /// Layer counts, summed.
    pub counts: Counts,
    /// Per-run digests, in run order.
    pub digests: Vec<u64>,
}

impl Tally {
    /// Fold in one run.
    pub fn add(&mut self, o: &Outcome) {
        self.attempted += 1;
        self.failed += usize::from(!o.clean);
        self.run_s.push(o.run_s);
        self.setup_s += o.setup_s;
        self.client_s += o.client_s;
        self.clients += o.clients;
        self.saved_sum += o.saved_sum;
        self.loss_sum += o.loss_sum;
        self.counts.add(&o.counts);
        self.digests.push(o.digest);
    }

    /// Failed runs as a percentage of runs attempted.
    pub fn fail_pct(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64 * 100.0
        }
    }

    /// Host seconds over all runs.
    pub fn wall_s(&self) -> f64 {
        self.run_s.iter().sum()
    }

    /// Simulated client-seconds per host second.
    pub fn client_s_per_s(&self) -> f64 {
        self.client_s / self.wall_s()
    }

    /// Mean per-client percent energy saved.
    pub fn saved_pct(&self) -> f64 {
        self.saved_sum / self.clients.max(1) as f64
    }

    /// Mean per-client percent packet loss.
    pub fn loss_pct(&self) -> f64 {
        self.loss_sum / self.clients.max(1) as f64
    }

    /// One digest over every run's digest, in run order.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for &x in &self.digests {
            d.feed_u64(x);
        }
        d.value()
    }
}

/// Checks every run must pass: events ran, every client reported and the
/// headline figures are percentages in range.
pub(crate) fn check_outcome(spec: &Spec, o: &Outcome) -> Result<(), String> {
    let n = spec.clients;
    if o.counts.events == 0 {
        return Err("no events processed".into());
    }
    if o.clients != n {
        return Err(format!("{} of {n} clients reported", o.clients));
    }
    let saved = o.saved_sum / n as f64;
    let loss = o.loss_sum / n as f64;
    if !(saved > 0.0 && saved <= 100.0) {
        return Err(format!("energy saved {saved}% out of range"));
    }
    if !(0.0..=100.0).contains(&loss) {
        return Err(format!("loss {loss}% out of range"));
    }
    Ok(())
}
