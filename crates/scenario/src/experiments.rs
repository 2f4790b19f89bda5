//! The paper's experiments, one registry entry per table/figure.
//!
//! [`EXPERIMENTS`] names every experiment once. Each entry's run function
//! builds the configurations, fans them across cores with
//! [`powerburst_sim::parallel_sweep`], and renders the rows/series the
//! paper reports. The CLI's `list` and `experiment` commands and
//! [`run_all`] iterate the registry; `tests/experiments_golden.rs`
//! snapshots all of it at a shortened duration.

use powerburst_core::{CompMode, PolicyKind, ProxyMode, DEFAULT_TARGET_BUFFER};
use powerburst_energy::{optimal_savings_for_rate, CardSpec};
use powerburst_net::{AirtimeModel, FaultPlan, SnifferRecord};
use powerburst_sim::{parallel_sweep, SimDuration, SimTime, Summary};
use powerburst_traffic::{Fidelity, WebScriptConfig};

use crate::build::{assemble, postmortem, run_scenario};
use crate::calibrate::calibrate;
use crate::config::{ClientKind, ClientSpec, RadioMode, ScenarioConfig, VideoPattern};
use crate::report::{banner, fmt_summary, Table};
use crate::results::ClientResult;

/// Common experiment options.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Master seed.
    pub seed: u64,
    /// Run duration (the paper's trailer is 119 s).
    pub duration: SimDuration,
    /// Worker threads for the sweep.
    pub threads: usize,
}

impl ExpOptions {
    /// A scenario at these options' seed and duration.
    fn scenario(&self, policy: PolicyKind, clients: Vec<ClientSpec>) -> ScenarioConfig {
        ScenarioConfig::new(self.seed, policy, clients).with_duration(self.duration)
    }
}

/// One paper experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Name on the command line (`powerburst experiment <name>`).
    pub name: &'static str,
    /// One-line description (`powerburst list`).
    pub about: &'static str,
    /// Run the experiment and render its tables.
    pub run: fn(&ExpOptions) -> String,
}

/// Every experiment, in report order: the paper's evaluation (E1–E10),
/// the ablations (A1–A7), then the bandwidth microbenchmark (M1).
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig4",
        about: "Figure 4: ten video clients, five patterns x three intervals",
        run: fig4_udp_video,
    },
    Experiment { name: "tcp-only", about: "§4.2: ten web clients", run: tab_tcp_only },
    Experiment {
        name: "fig5",
        about: "Figure 5: seven video + three web clients",
        run: fig5_mixed,
    },
    Experiment {
        name: "optimal",
        about: "§4.3: comparison to the theoretical optimal",
        run: tab_optimal,
    },
    Experiment {
        name: "fig6",
        about: "Figure 6: early-transition sweep",
        run: fig6_early_transition,
    },
    Experiment { name: "loss", about: "§4.3: packet loss survey", run: tab_packet_loss },
    Experiment {
        name: "static",
        about: "§4.3: static vs dynamic schedules",
        run: tab_static_vs_dynamic,
    },
    Experiment {
        name: "fig7",
        about: "Figure 7: slotted TCP/UDP static schedules",
        run: fig7_slotted_static,
    },
    Experiment {
        name: "drops",
        about: "§4.3: Netfilter/DummyNet drop impact",
        run: tab_drop_impact,
    },
    Experiment {
        name: "penalty",
        about: "§4.3: 100 ms vs 500 ms transition penalty",
        run: tab_transition_penalty,
    },
    Experiment {
        name: "split",
        about: "A1: split connections vs pass-through",
        run: abl_split_connection,
    },
    Experiment {
        name: "unchanged",
        about: "A2: §5 schedule-unchanged optimization",
        run: abl_schedule_unchanged,
    },
    Experiment { name: "intervals", about: "A3: burst-interval sweep", run: abl_burst_interval },
    Experiment {
        name: "comp",
        about: "A4: adaptive vs fixed-anchor delay compensation",
        run: abl_delay_compensation,
    },
    Experiment {
        name: "psm",
        about: "A5: proxy schedule vs 802.11-PSM baseline",
        run: abl_psm_baseline,
    },
    Experiment {
        name: "admission",
        about: "A6: §3.2.1 admission control under overload",
        run: abl_admission_control,
    },
    Experiment {
        name: "policies",
        about: "A7: scheduling-policy A/B (fixed/variable/channel/buffer)",
        run: ab_policy_comparison,
    },
    Experiment {
        name: "bandwidth",
        about: "M1: bandwidth microbenchmark + linear fit",
        run: tab_bandwidth_model,
    },
];

/// Run *every* experiment and concatenate the renders (the EXPERIMENTS.md
/// regeneration path).
pub fn run_all(opt: &ExpOptions) -> String {
    let mut out = String::new();
    for e in EXPERIMENTS {
        out.push_str(&(e.run)(opt));
        out.push('\n');
    }
    out
}

/// The three burst-interval configurations of the evaluation.
pub const INTERVALS: [(&str, IntervalKind); 3] = [
    ("100ms", IntervalKind::Fixed100),
    ("500ms", IntervalKind::Fixed500),
    ("variable", IntervalKind::Variable),
];

/// Burst-interval selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalKind {
    /// Fixed 100 ms.
    Fixed100,
    /// Fixed 500 ms.
    Fixed500,
    /// Variable (100–500 ms).
    Variable,
}

impl IntervalKind {
    /// The proxy policy for this interval kind.
    pub fn policy(self) -> PolicyKind {
        match self {
            IntervalKind::Fixed100 => {
                PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) }
            }
            IntervalKind::Fixed500 => {
                PolicyKind::DynamicFixed { interval: SimDuration::from_ms(500) }
            }
            IntervalKind::Variable => PolicyKind::DynamicVariable {
                min: SimDuration::from_ms(100),
                max: SimDuration::from_ms(500),
            },
        }
    }
}

fn video_clients(pattern: VideoPattern, n: usize) -> Vec<ClientSpec> {
    pattern
        .fidelities(n)
        .into_iter()
        .map(|f| ClientSpec::new(ClientKind::Video { fidelity: f }))
        .collect()
}

fn web_spec() -> ClientSpec {
    ClientSpec::new(ClientKind::Web { script: WebScriptConfig::default() })
}

/// Figure 5's blend: seven video clients of `pattern` + three web clients.
fn video_web_blend(pattern: VideoPattern) -> Vec<ClientSpec> {
    let mut clients = video_clients(pattern, 7);
    clients.extend((0..3).map(|_| web_spec()));
    clients
}

/// A city-scale multi-cell configuration: `n` 56k video clients spread
/// round-robin over `n / 64` cells (one AP + proxy shard each), with the
/// paper's 1 s request stagger compressed so every client starts early in
/// a short run.
pub fn city_cfg(seed: u64, n: usize, duration: SimDuration) -> ScenarioConfig {
    let specs =
        (0..n).map(|_| ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 })).collect();
    let mut cfg = ScenarioConfig::new(
        seed,
        PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
        specs,
    )
    .with_duration(duration)
    .with_cells(n.div_ceil(64));
    cfg.stagger = SimDuration::from_us(50);
    cfg
}

/// Run `cfg`'s world to its end and return the capture. A Monitor-mode
/// world never reads the client's replay parameters
/// (`ClientSpec::early_transition`, `skip_unchanged`), so a sweep over
/// them replays this one capture through [`postmortem`] per value.
fn capture(cfg: &ScenarioConfig) -> Vec<SnifferRecord> {
    debug_assert_eq!(cfg.radio, RadioMode::Monitor, "a live radio runs the policy in the world");
    let mut a = assemble(cfg);
    a.world.run_until(SimTime::ZERO + cfg.duration);
    a.world.take_trace()
}

/// One rendered table: the header line, then one line per row of cells.
fn table(headers: &[&str], rows: impl IntoIterator<Item = Vec<String>>) -> String {
    let mut t = Table::new(headers.to_vec());
    for cells in rows {
        t.row(cells);
    }
    t.render()
}

/// The cells of every row in `rows` tagged `tag`, in order.
fn group<'a>(
    rows: &'a [(&str, Vec<String>)],
    tag: &'a str,
) -> impl Iterator<Item = Vec<String>> + 'a {
    rows.iter().filter(move |(t, _)| *t == tag).map(|(_, cells)| cells.clone())
}

/// E1 — Figure 4: ten UDP (video) clients, five patterns × three
/// intervals, one panel per interval.
fn fig4_udp_video(opt: &ExpOptions) -> String {
    let patterns = [
        VideoPattern::All56,
        VideoPattern::All256,
        VideoPattern::All512,
        VideoPattern::Half56Half512,
        VideoPattern::Mixed,
    ];
    let mut configs = Vec::new();
    for (iname, ikind) in INTERVALS {
        for p in patterns {
            configs.push((iname, p, opt.scenario(ikind.policy(), video_clients(p, 10))));
        }
    }
    let rows = parallel_sweep(configs, opt.threads, |(iname, p, cfg)| {
        let r = run_scenario(cfg);
        let cells = vec![
            p.label().to_string(),
            fmt_summary(&r.saved_all()),
            format!("{:.2}", r.loss_summary(|_| true).mean),
            // RealServer downshifts: the 512 kbps anomaly indicator.
            r.downshifts.to_string(),
        ];
        (*iname, cells)
    });
    let mut out = banner("Figure 4 — ten clients viewing UDP (video) streams");
    for (iname, _) in INTERVALS {
        out.push_str(&format!("\nUDP with {iname} burst interval\n"));
        let headers = ["pattern", "energy saved % (min–max)", "loss %", "downshifts"];
        out.push_str(&table(&headers, group(&rows, iname)));
    }
    out
}

/// E2 — §4.2 text: ten TCP (web) clients. The paper reports 70–80 %
/// savings.
fn tab_tcp_only(opt: &ExpOptions) -> String {
    let configs: Vec<_> = INTERVALS
        .iter()
        .map(|(iname, ikind)| {
            (*iname, opt.scenario(ikind.policy(), (0..10).map(|_| web_spec()).collect()))
        })
        .collect();
    let rows = parallel_sweep(configs, opt.threads, |(iname, cfg)| {
        let r = run_scenario(cfg);
        let lat: Vec<f64> =
            r.clients.iter().filter_map(|c| c.app.web.map(|w| w.mean_latency_s)).collect();
        let objects: usize =
            r.clients.iter().filter_map(|c| c.app.web.map(|w| w.objects_done)).sum();
        vec![
            iname.to_string(),
            fmt_summary(&r.saved_all()),
            format!("{:.3}s", lat.iter().sum::<f64>() / lat.len().max(1) as f64),
            objects.to_string(),
        ]
    });
    let mut out = banner("TCP-only — ten clients browsing the web (§4.2)");
    out.push_str(&table(
        &["interval", "energy saved % (min–max)", "mean obj latency", "objects"],
        rows,
    ));
    out
}

/// E3 — Figure 5: seven video + three web clients, one panel per
/// interval.
fn fig5_mixed(opt: &ExpOptions) -> String {
    let patterns: [(&str, VideoPattern); 4] = [
        ("56K/TCP", VideoPattern::All56),
        ("256K/TCP", VideoPattern::All256),
        ("512K/TCP", VideoPattern::All512),
        ("All/TCP", VideoPattern::Mixed),
    ];
    let mut configs = Vec::new();
    for (iname, ikind) in INTERVALS {
        for (plabel, p) in patterns {
            configs.push((iname, plabel, opt.scenario(ikind.policy(), video_web_blend(p))));
        }
    }
    let rows = parallel_sweep(configs, opt.threads, |(iname, plabel, cfg)| {
        let r = run_scenario(cfg);
        let cells = vec![
            plabel.to_string(),
            fmt_summary(&r.saved_video()),
            fmt_summary(&r.saved_tcp()),
            format!("{:.2}", r.loss_summary(|_| true).mean),
        ];
        (*iname, cells)
    });
    let mut out = banner("Figure 5 — seven UDP (video) + three TCP (web) clients");
    for (iname, _) in INTERVALS {
        out.push_str(&format!("\nUDP/TCP power savings for {iname}\n"));
        let headers = ["pattern", "UDP saved %", "TCP saved %", "loss %"];
        out.push_str(&table(&headers, group(&rows, iname)));
    }
    out
}

/// E4 — §4.3 comparison to the theoretical optimal: measured savings
/// averaged over the three interval types, next to the paper's figures.
fn tab_optimal(opt: &ExpOptions) -> String {
    // (fidelity, pattern, paper optimal %, paper measured %)
    let fids = [
        (Fidelity::K56, VideoPattern::All56, 90.0, 77.0),
        (Fidelity::K256, VideoPattern::All256, 83.0, 66.0),
        (Fidelity::K512, VideoPattern::All512, 77.0, 53.0),
    ];
    // Effective single-receiver bandwidth at media packet size.
    let eff_bps = AirtimeModel::DSSS_11MBPS.effective_bps(728);
    let mut configs = Vec::new();
    for (_, pattern, _, _) in fids {
        for (_, ikind) in INTERVALS {
            configs.push(opt.scenario(ikind.policy(), video_clients(pattern, 10)));
        }
    }
    let measured = parallel_sweep(configs, opt.threads, |cfg| run_scenario(cfg).saved_all().mean);
    let rows = fids.iter().zip(measured.chunks(INTERVALS.len())).map(
        |(&(fid, _, p_opt, p_meas), measured)| {
            let optimal = optimal_savings_for_rate(
                &CardSpec::WAVELAN_DSSS,
                fid.effective_bps(),
                opt.duration,
                eff_bps,
            )
            .saved
                * 100.0;
            let measured = measured.iter().sum::<f64>() / measured.len() as f64;
            vec![
                fid.label().to_string(),
                format!("{optimal:.1}"),
                format!("{measured:.1}"),
                format!("{:.1}", optimal - measured),
                format!("{p_opt:.0}"),
                format!("{p_meas:.0}"),
            ]
        },
    );
    let mut out = banner("Comparison to theoretical optimal (§4.3)");
    out.push_str(&table(
        &["stream", "optimal %", "measured %", "gap", "paper optimal %", "paper measured %"],
        rows,
    ));
    out
}

/// E5 — Figure 6: one client, 100 ms interval, early-transition amount
/// ∈ {0,2,4,6,8,10} ms. The amount is a replay parameter, so one capture
/// is replayed once per amount.
fn fig6_early_transition(opt: &ExpOptions) -> String {
    let spec = ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 });
    let mut cfg = opt.scenario(IntervalKind::Fixed100.policy(), vec![spec]);
    let trace = capture(&cfg);
    let card = CardSpec::WAVELAN_DSSS;
    let rows = [0u64, 2, 4, 6, 8, 10].map(|early_ms| {
        cfg.clients[0].early_transition = SimDuration::from_ms(early_ms);
        let post = &postmortem(&cfg, &trace)[0];
        // Energy wasted waking early and on missed schedules, joules.
        let early_j = post.early_waste_mj(&card) / 1_000.0;
        let missed_j = post.missed_waste_mj(&card) / 1_000.0;
        vec![
            early_ms.to_string(),
            format!("{early_j:.2}"),
            format!("{missed_j:.2}"),
            format!("{:.2}", early_j + missed_j),
            format!("{:.2}", post.loss_fraction() * 100.0),
            post.schedules_missed.to_string(),
            format!("{:.1}", post.saved * 100.0),
        ]
    });
    let mut out = banner("Figure 6 — effect of the early-transition amount (100 ms interval)");
    out.push_str(&table(
        &[
            "early (ms)",
            "Early waste (J)",
            "MissedSched waste (J)",
            "total (J)",
            "missed pkts %",
            "missed scheds",
            "saved %",
        ],
        rows,
    ));
    out
}

/// E6 — §4.3 packet-loss survey across workloads: losses should typically
/// be < 2 %.
fn tab_packet_loss(opt: &ExpOptions) -> String {
    let mut configs: Vec<(String, ScenarioConfig)> = Vec::new();
    for (iname, ikind) in INTERVALS {
        configs.push((
            format!("10xvideo-56K @{iname}"),
            opt.scenario(ikind.policy(), video_clients(VideoPattern::All56, 10)),
        ));
        configs.push((
            format!("10xvideo-256K @{iname}"),
            opt.scenario(ikind.policy(), video_clients(VideoPattern::All256, 10)),
        ));
        configs.push((
            format!("7xvideo+3xweb @{iname}"),
            opt.scenario(ikind.policy(), video_web_blend(VideoPattern::Mixed)),
        ));
    }
    let rows = parallel_sweep(configs, opt.threads, |(label, cfg)| {
        let r = run_scenario(cfg);
        vec![label.clone(), fmt_summary(&r.loss_summary(|_| true)), r.medium_drops.to_string()]
    });
    let mut out = banner("Packets lost or dropped (§4.3) — typically < 2 %");
    out.push_str(&table(&["scenario", "loss % (min–max)", "AP drops"], rows));
    out
}

/// E7 — §4.3 static vs dynamic schedules: with identical fidelities, a
/// static equal schedule should show lower variance (and no
/// schedule-reception early cost once clients know the permanent slots).
fn tab_static_vs_dynamic(opt: &ExpOptions) -> String {
    let patterns = [VideoPattern::All56, VideoPattern::All256, VideoPattern::All512];
    let mut configs = Vec::new();
    for p in patterns {
        for static_mode in [false, true] {
            let policy = if static_mode {
                PolicyKind::StaticEqual { interval: SimDuration::from_ms(100) }
            } else {
                IntervalKind::Fixed100.policy()
            };
            let mut clients = video_clients(p, 10);
            if static_mode {
                // §4.3: a static schedule removes the per-interval schedule
                // reception (clients know their permanent slots).
                for c in &mut clients {
                    c.skip_unchanged = true;
                }
            }
            let mut cfg = opt.scenario(policy, clients);
            cfg.flag_unchanged = static_mode;
            configs.push(cfg);
        }
    }
    let saved = parallel_sweep(configs, opt.threads, |cfg| run_scenario(cfg).saved_all());
    // Two runs per fidelity: dynamic, then static.
    let rows = patterns.iter().zip(saved.chunks(2)).map(|(p, pair)| {
        let (dynamic, static_) = (&pair[0], &pair[1]);
        vec![
            p.label().to_string(),
            fmt_summary(dynamic),
            format!("{:.2}", dynamic.std),
            fmt_summary(static_),
            format!("{:.2}", static_.std),
        ]
    });
    let mut out = banner("Static vs dynamic schedule, identical fidelities @100 ms (§4.3)");
    out.push_str(&table(
        &["fidelity", "dynamic saved %", "dyn std", "static saved %", "static std"],
        rows,
    ));
    out
}

/// E8 — Figure 7: static TCP/UDP slots at 500 ms with TCP weights
/// 10 % / 33 % / 56 %, nine video clients (mixed fidelities) + one web
/// client generating "medium" background traffic. Reports energy used
/// (100 − saved) per fidelity and the TCP client's latency.
fn fig7_slotted_static(opt: &ExpOptions) -> String {
    let rows = parallel_sweep(vec![0.10f64, 0.33, 0.56], opt.threads, |&w| {
        use Fidelity::*;
        let fids = [K56, K56, K128, K128, K256, K256, K512, K512, K56];
        let mut clients: Vec<ClientSpec> =
            fids.iter().map(|&f| ClientSpec::new(ClientKind::Video { fidelity: f })).collect();
        // "Medium" background TCP traffic.
        let script = WebScriptConfig {
            pages: 40,
            think_s: (1.0, 3.0),
            objects_per_page: (2, 6),
            object_bytes: (5_000, 80_000),
            max_parallel: 2,
        };
        clients.push(ClientSpec::new(ClientKind::Web { script }));
        let policy =
            PolicyKind::SlottedStatic { interval: SimDuration::from_ms(500), tcp_weight: w };
        let r = run_scenario(&opt.scenario(policy, clients));
        let mut cells = vec![format!("{}%", (w * 100.0).round() as u32)];
        for fid in [K56, K128, K256, K512] {
            let s = r.saved_summary(|c| c.label == format!("video-{}", fid.label()));
            cells.push(if s.n > 0 { format!("{:.1}", 100.0 - s.mean) } else { "-".into() });
        }
        let tcp = r.clients.iter().find(|c| !c.is_video).expect("one web client");
        let web = tcp.app.web.expect("web metrics");
        cells.push(format!("{:.1}", 100.0 - tcp.saved_pct()));
        cells.push(format!("{:.0}", web.mean_latency_s * 1_000.0));
        cells.push(web.objects_done.to_string());
        cells
    });
    let mut out = banner("Figure 7 — static TCP/UDP slots @500 ms, medium background traffic");
    out.push_str(&table(
        &[
            "TCP wt.",
            "56k used %",
            "128k used %",
            "256k used %",
            "512k used %",
            "TCP used %",
            "TCP latency (ms)",
            "objects",
        ],
        rows,
    ));
    out
}

/// E9 — §4.3 drop-impact validation (Netfilter / DummyNet): a sleeping
/// client that *really* drops packets should see ≤ ~10 % transfer-time
/// increase and a small energy increase versus the capture-everything
/// methodology. The DummyNet row reproduces the paper's lossy-channel
/// validation (a 4 Mb/s effective medium — ours already is — with 2 ms
/// RTT and 5 % drops on the radio hop, the fault plan's frame loss); a
/// wired-path pipe variant is also included for reference.
fn tab_drop_impact(opt: &ExpOptions) -> String {
    let mk = |radio: RadioMode, pipe: bool, loss_prob: f64| {
        let ftp = ClientSpec::new(ClientKind::Ftp { size: 2_000_000 });
        let mut cfg = opt.scenario(IntervalKind::Fixed100.policy(), vec![ftp]);
        cfg.radio = radio;
        cfg.pipe = pipe;
        cfg.faults = FaultPlan { loss_prob, ..FaultPlan::NONE };
        cfg
    };
    let configs = vec![
        ("monitor (capture all)", mk(RadioMode::Monitor, false, 0.0)),
        ("live (real drops)", mk(RadioMode::Live, false, 0.0)),
        ("live + 5% radio loss (DummyNet)", mk(RadioMode::Live, false, 0.05)),
        ("live + wired pipe 4Mb/s 2ms 5%", mk(RadioMode::Live, true, 0.0)),
    ];
    let runs = parallel_sweep(configs, opt.threads, |(label, cfg)| {
        let r = run_scenario(cfg);
        let c = &r.clients[0];
        let ftp = c.app.ftp.expect("ftp metrics");
        // Frames genuinely dropped at the sleeping radio.
        let (energy_mj, dropped) = match &c.live {
            Some(l) => (l.energy_mj, l.missed_frames),
            None => (c.post.energy_mj, 0),
        };
        (*label, ftp.transfer_s, energy_mj, dropped)
    });
    let base = runs.first().and_then(|r| r.1);
    let rows = runs.into_iter().map(|(label, transfer_s, energy_mj, dropped)| {
        let transfer = match (transfer_s, base) {
            (Some(t0), Some(b)) if b > 0.0 => {
                format!("{:.2} ({:+.1}%)", t0, (t0 / b - 1.0) * 100.0)
            }
            (Some(t0), _) => format!("{t0:.2}"),
            (None, _) => "incomplete".into(),
        };
        vec![
            label.to_string(),
            transfer,
            format!("{:.1}", energy_mj / 1_000.0),
            dropped.to_string(),
        ]
    });
    let mut out = banner("Drop impact (§4.3) — 2 MB ftp download, 100 ms interval");
    out.push_str(&table(&["config", "transfer (s)", "energy (J)", "dropped frames"], rows));
    out
}

/// E10 — §4.3 transition penalty, 100 ms vs 500 ms: mean per-client
/// high-power time attributable to early transitions. The paper reports
/// roughly a 4× penalty increase (≈3 s → ≈11 s of high-power time) from
/// 500 ms to 100 ms intervals.
fn tab_transition_penalty(opt: &ExpOptions) -> String {
    let configs = vec![("500ms", IntervalKind::Fixed500), ("100ms", IntervalKind::Fixed100)];
    let runs = parallel_sweep(configs, opt.threads, |(iname, ikind)| {
        let r = run_scenario(&opt.scenario(ikind.policy(), video_clients(VideoPattern::All56, 10)));
        let n = r.clients.len() as f64;
        let penalty_s: f64 = r
            .clients
            .iter()
            .map(|c| c.post.early_wait.as_secs_f64() + c.post.transitions as f64 * 0.002)
            .sum::<f64>()
            / n;
        let transitions: f64 = r.clients.iter().map(|c| c.post.transitions as f64).sum::<f64>() / n;
        (*iname, penalty_s, transitions, r.saved_all().mean)
    });
    let rows = runs.iter().map(|&(iname, penalty_s, transitions, saved)| {
        vec![
            iname.to_string(),
            format!("{penalty_s:.2}"),
            format!("{transitions:.0}"),
            format!("{saved:.1}"),
        ]
    });
    let mut out = banner("Early-transition penalty: 100 ms vs 500 ms (§4.3)");
    out.push_str(&table(&["interval", "penalty time (s)", "transitions", "saved %"], rows));
    if runs[0].1 > 0.0 {
        out.push_str(&format!(
            "\npenalty factor (100ms / 500ms): {:.1}x (paper: ~4x)\n",
            runs[1].1 / runs[0].1
        ));
    }
    out
}

/// A1 — split connections vs pass-through (ablation D3): pass-through
/// buffering inflates the end-to-end RTT by the burst interval,
/// strangling the window.
fn abl_split_connection(opt: &ExpOptions) -> String {
    let configs =
        vec![("split (paper design)", ProxyMode::Split), ("pass-through", ProxyMode::PassThrough)];
    let rows = parallel_sweep(configs, opt.threads, |(label, mode)| {
        let ftp = ClientSpec::new(ClientKind::Ftp { size: 3_000_000 });
        let mut cfg = opt.scenario(IntervalKind::Fixed500.policy(), vec![ftp]);
        cfg.proxy_mode = *mode;
        let r = run_scenario(&cfg);
        let c = &r.clients[0];
        let ftp = c.app.ftp.expect("ftp");
        let elapsed = ftp.transfer_s.unwrap_or(opt.duration.as_secs_f64());
        vec![
            label.to_string(),
            ftp.transfer_s.map(|t0| format!("{t0:.2}")).unwrap_or_else(|| "incomplete".into()),
            format!("{:.2}", ftp.received as f64 * 8.0 / elapsed / 1e6),
            format!("{:.1}", c.saved_pct()),
        ]
    });
    let mut out = banner("Ablation A1 — split connections vs pass-through (3 MB ftp @500 ms)");
    out.push_str(&table(&["mode", "transfer (s)", "goodput (Mb/s)", "saved %"], rows));
    out
}

/// A2 — the §5 schedule-unchanged optimization (ablation D5) under a
/// static schedule, where consecutive schedules are identical and the
/// flag fires every interval.
fn abl_schedule_unchanged(opt: &ExpOptions) -> String {
    let policy = PolicyKind::StaticEqual { interval: SimDuration::from_ms(100) };
    let mut cfg = opt.scenario(policy, video_clients(VideoPattern::All56, 10));
    cfg.flag_unchanged = true;
    let trace = capture(&cfg);
    let rows = [("baseline", false), ("skip-unchanged (§5)", true)].map(|(label, skip)| {
        for c in &mut cfg.clients {
            c.skip_unchanged = skip;
        }
        let posts = postmortem(&cfg, &trace);
        let skipped_wakes: u64 = posts.iter().map(|p| p.skipped_srp_wakes).sum();
        let saved = Summary::from_iter(posts.iter().map(|p| p.saved * 100.0));
        let loss = Summary::from_iter(posts.iter().map(|p| p.loss_fraction() * 100.0));
        vec![
            label.to_string(),
            fmt_summary(&saved),
            skipped_wakes.to_string(),
            format!("{:.2}", loss.mean),
        ]
    });
    let mut out = banner("Ablation A2 — §5 schedule-unchanged optimization (static @100 ms)");
    out.push_str(&table(&["mode", "saved %", "skipped SRP wakes", "loss %"], rows));
    out
}

/// A3 — burst-interval sweep (ablation D1).
fn abl_burst_interval(opt: &ExpOptions) -> String {
    let configs: Vec<u64> = vec![50, 100, 200, 300, 500, 700, 1_000];
    let rows = parallel_sweep(configs, opt.threads, |&ms| {
        let policy = PolicyKind::DynamicFixed { interval: SimDuration::from_ms(ms) };
        let r = run_scenario(&opt.scenario(policy, video_clients(VideoPattern::All256, 10)));
        vec![
            ms.to_string(),
            fmt_summary(&r.saved_all()),
            format!("{:.2}", r.loss_summary(|_| true).mean),
        ]
    });
    let mut out = banner("Ablation A3 — burst-interval sweep (10 × 256K video)");
    out.push_str(&table(&["interval (ms)", "saved %", "loss %"], rows));
    out
}

/// A4 — §3.3 ablation, adaptive vs fixed-anchor delay compensation: the
/// adaptive algorithm re-anchors every wake-up to the latest schedule
/// arrival; the fixed-anchor baseline anchors to the first schedule only,
/// so clock drift and AP delay level shifts accumulate. Live radios (real
/// losses).
fn abl_delay_compensation(opt: &ExpOptions) -> String {
    let configs =
        vec![("adaptive (§3.3)", CompMode::Adaptive), ("fixed anchor", CompMode::FixedAnchor)];
    let rows = parallel_sweep(configs, opt.threads, |(label, comp)| {
        let mut clients = video_clients(VideoPattern::All56, 10);
        for c in &mut clients {
            c.comp = *comp;
        }
        let mut cfg = opt.scenario(IntervalKind::Fixed100.policy(), clients);
        cfg.radio = RadioMode::Live;
        // Stress the clocks (cheap 2004-era crystals): drift accumulates
        // ~24 ms over the two-minute run, past any early-transition margin.
        cfg.clock_drift_ppm = 200.0;
        let r = run_scenario(&cfg);
        let lost_frames: u64 =
            r.clients.iter().map(|c| c.live.map(|l| l.missed_frames).unwrap_or(0)).sum();
        let schedules_missed: u64 = r.clients.iter().map(|c| c.daemon.schedules_missed).sum();
        vec![
            label.to_string(),
            fmt_summary(&r.saved_all()),
            lost_frames.to_string(),
            schedules_missed.to_string(),
        ]
    });
    let mut out = banner("Ablation A4 — adaptive vs fixed-anchor delay compensation (live radios)");
    out.push_str(&table(&["algorithm", "saved %", "lost frames", "missed schedules"], rows));
    out
}

/// A5 — proxy scheduling vs an 802.11 PSM-style baseline (§2 related
/// work): under PSM every client listens through the shared post-beacon
/// delivery window, so per-client savings collapse as the cell fills —
/// the §2 argument for proxy scheduling.
fn abl_psm_baseline(opt: &ExpOptions) -> String {
    let mut configs = Vec::new();
    for n in [2usize, 10] {
        configs.push(("proxy schedule", n, IntervalKind::Fixed100.policy()));
        configs.push((
            "PSM beacons",
            n,
            PolicyKind::PsmBeacon { interval: SimDuration::from_ms(100) },
        ));
    }
    let rows = parallel_sweep(configs, opt.threads, |(label, n, policy)| {
        let r = run_scenario(&opt.scenario(*policy, video_clients(VideoPattern::All256, *n)));
        vec![
            label.to_string(),
            n.to_string(),
            fmt_summary(&r.saved_all()),
            format!("{:.2}", r.loss_summary(|_| true).mean),
        ]
    });
    let mut out = banner("Ablation A5 — proxy schedule vs 802.11-PSM-style baseline (256K video)");
    out.push_str(&table(&["scheme", "clients", "saved %", "loss %"], rows));
    out
}

/// A6 — §3.2.1 admission control under overload: ten 512 kbps streams
/// oversubscribe the cell. Without admission everyone degrades
/// (loss-driven downshifts); with reservation-based admission, the flows
/// that fit keep full fidelity and clean slots while the rest are refused
/// outright. Loss and savings count served clients only.
fn abl_admission_control(opt: &ExpOptions) -> String {
    let configs = vec![("no admission (paper)", false), ("reservation admission", true)];
    let rows = parallel_sweep(configs, opt.threads, |(label, admission)| {
        let mut cfg =
            opt.scenario(IntervalKind::Fixed100.policy(), video_clients(VideoPattern::All512, 10));
        cfg.admission = *admission;
        let r = run_scenario(&cfg);
        let served = |c: &ClientResult| c.post.delivered > 100;
        // Without admission control every stream counts as admitted.
        let (admitted, rejected) = match r.admission {
            Some(a) => (a.admitted, a.rejected),
            None => (r.clients.len() as u64, 0),
        };
        vec![
            label.to_string(),
            admitted.to_string(),
            rejected.to_string(),
            format!("{:.2}", r.loss_summary(served).mean),
            fmt_summary(&r.saved_summary(served)),
            r.downshifts.to_string(),
        ]
    });
    let mut out = banner("Ablation A6 — §3.2.1 admission control, ten 512K streams (overload)");
    out.push_str(&table(
        &["config", "admitted", "rejected", "served loss %", "served saved %", "downshifts"],
        rows,
    ));
    out
}

/// A7 — scheduling-policy A/B: every registered slot allocator, at the
/// paper's 100 ms cadence, over the two reference workloads — Figure 4's
/// mixed-fidelity video row and Figure 5's video+web blend.
/// `assemble` attaches the Markov channel model for `channel` and turns on
/// buffer-extended reports for `buffer`, so each policy runs with
/// exactly the information set it would have in a real deployment;
/// `fixed` is byte-identical to the paper's builder.
fn ab_policy_comparison(opt: &ExpOptions) -> String {
    let policies = [
        ("fixed", IntervalKind::Fixed100.policy()),
        ("variable", IntervalKind::Variable.policy()),
        ("channel", PolicyKind::ChannelAware { interval: SimDuration::from_ms(100) }),
        (
            "buffer",
            PolicyKind::BufferAware {
                interval: SimDuration::from_ms(100),
                target_buffer: DEFAULT_TARGET_BUFFER,
            },
        ),
    ];
    let workloads = ["10xvideo-mixed", "7xvideo+3xweb"];
    let mut configs = Vec::new();
    for (pname, policy) in policies {
        let mixed = video_clients(VideoPattern::Mixed, 10);
        configs.push((pname, workloads[0], opt.scenario(policy, mixed)));
        configs.push((
            pname,
            workloads[1],
            opt.scenario(policy, video_web_blend(VideoPattern::Mixed)),
        ));
    }
    let rows = parallel_sweep(configs, opt.threads, |(pname, wlabel, cfg)| {
        let r = run_scenario(cfg);
        let cells = vec![
            pname.to_string(),
            fmt_summary(&r.saved_all()),
            format!("{:.2}", r.loss_summary(|_| true).mean),
            r.downshifts.to_string(),
            r.proxy.schedules_sent.to_string(),
        ];
        (*wlabel, cells)
    });
    let mut out = banner("A7 — scheduling-policy A/B (fixed / variable / channel / buffer)");
    for wlabel in workloads {
        out.push_str(&format!("\n{wlabel}\n"));
        let headers = ["policy", "energy saved % (min–max)", "loss %", "downshifts", "schedules"];
        out.push_str(&table(&headers, group(&rows, wlabel)));
    }
    out
}

/// M1 — the §3.2.2 bandwidth microbenchmark: calibrate the send-cost
/// model and compare the fit with the medium's true airtime.
fn tab_bandwidth_model(opt: &ExpOptions) -> String {
    let truth = AirtimeModel::DSSS_11MBPS;
    let cal = calibrate(opt.seed);
    let mut out = banner("M1 — bandwidth microbenchmark and linear fit (§3.2.2)");
    out.push_str(&format!(
        "fitted:  time_us = {:.1} + {:.4} * bytes   (R² = {:.4}, {} samples)\n",
        cal.model.alpha_us, cal.model.beta_us, cal.r2, cal.samples
    ));
    out.push_str(&format!(
        "truth:   time_us = {:.1} + {:.4} * bytes   (medium model)\n\n",
        truth.fixed_us, truth.per_byte_us
    ));
    let rows = [100usize, 500, 1_000, 1_472].map(|b| {
        vec![
            b.to_string(),
            cal.model.send_time(b).as_us().to_string(),
            truth.airtime(b).as_us().to_string(),
        ]
    });
    out.push_str(&table(&["bytes", "predicted (us)", "true (us)"], rows));
    out
}
