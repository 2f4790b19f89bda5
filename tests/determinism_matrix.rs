//! Thread-count determinism matrix (DESIGN.md §17).
//!
//! The sharded event core's contract is *byte-identity*: `threads = 1`
//! and `threads = N` must produce the same trace and the same metrics
//! exports, bit for bit, for every scenario — not statistically similar,
//! identical. This suite re-runs the committed golden scenarios and a
//! genuinely sharded multi-cell city at 1/2/4/8 worker threads and
//! compares every export byte.
//!
//! Single-cell worlds build one shard and take the sequential fast path
//! (their golden snapshots in `tests/golden/` are already the 1-thread
//! reference, re-checked here at every thread count); the multi-cell
//! configs are the ones that actually cross the epoch barriers.

use std::fmt::Write as _;
use std::path::PathBuf;

use powerburst::golden::check_golden;
use powerburst::prelude::*;
use powerburst::trace::to_jsonl;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join(name)
}

/// The golden suite's fixed scenario (5 video clients, seed 42).
fn video_cfg(seed: u64) -> ScenarioConfig {
    let clients =
        (0..5).map(|_| ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 })).collect();
    ScenarioConfig::new(
        seed,
        PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
        clients,
    )
    .with_duration(SimDuration::from_secs(20))
}

/// A city slice that genuinely shards: 12 clients over 4 cells builds a
/// 5-shard world (wired backbone + 4 cells) behind metro backhaul links.
fn city_cfg(seed: u64) -> ScenarioConfig {
    let clients = (0..12)
        .map(|i| {
            if i % 4 == 3 {
                ClientSpec::new(ClientKind::Web { script: WebScriptConfig::default() })
            } else {
                ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 })
            }
        })
        .collect();
    ScenarioConfig::new(
        seed,
        PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
        clients,
    )
    .with_cells(4)
    .with_duration(SimDuration::from_secs(10))
}

/// Everything a run exports, concatenated: the raw frame trace plus (when
/// instrumented) the metrics JSON/CSV and the event stream. Any
/// thread-count dependence anywhere in the engine lands in these bytes.
fn full_export(cfg: &ScenarioConfig) -> String {
    let r = run_scenario(cfg);
    let mut s = String::new();
    let _ = writeln!(s, "sim_events = {}", r.sim_events);
    let _ = writeln!(s, "trace_frames = {}", r.trace_frames);
    let _ = writeln!(s, "medium_drops = {}", r.medium_drops);
    let _ = writeln!(s, "schedules_sent = {}", r.proxy.schedules_sent);
    let _ = writeln!(s, "udp_bytes_sent = {}", r.proxy.udp_bytes_sent);
    let _ = writeln!(s, "tcp_bytes_fed = {}", r.proxy.tcp_bytes_fed);
    let _ = writeln!(s, "frames_lost = {}", r.faults.frames_lost);
    let _ = writeln!(s, "invariant_violations = {}", r.invariants.total());
    for c in &r.clients {
        let _ = writeln!(
            s,
            "client {} delivered = {} sleep_us = {} awake_us = {}",
            c.host.0,
            c.post.delivered,
            c.post.sleep.as_us(),
            c.post.awake.as_us()
        );
    }
    if let Some(rep) = r.obs {
        s.push_str(&rep.metrics_json());
        s.push_str(&rep.metrics_csv());
        s.push_str(&rep.events_jsonl());
    }
    s
}

/// The raw sniffer-trace JSONL of a run at a given thread count.
fn trace_jsonl(cfg: &ScenarioConfig) -> String {
    let mut a = powerburst::scenario::assemble(cfg);
    a.world.run_until(SimTime::ZERO + cfg.duration);
    to_jsonl(&a.world.take_trace())
}

#[test]
fn golden_scenarios_are_byte_identical_at_every_thread_count() {
    for (label, cfg) in [
        ("baseline", video_cfg(42)),
        (
            "faulted",
            video_cfg(42).with_faults(FaultPlan {
                loss_prob: 0.05,
                dup_prob: 0.01,
                reorder_prob: 0.02,
                reorder_max: SimDuration::from_ms(5),
                sched_drop_prob: 0.02,
                ap_jitter_prob: 0.2,
                ap_jitter_max: SimDuration::from_ms(10),
                clock_skew_ppm: 40.0,
            }),
        ),
        ("instrumented", video_cfg(42).with_obs(ObsConfig::full())),
    ] {
        let reference = full_export(&cfg.clone().with_threads(1));
        for t in THREADS {
            let got = full_export(&cfg.clone().with_threads(t));
            assert_eq!(got, reference, "{label}: threads={t} diverged from threads=1");
        }
    }
}

#[test]
fn golden_trace_file_is_reproduced_at_every_thread_count() {
    // Not just self-consistency: every thread count must reproduce the
    // *committed* frame-by-frame snapshot from `tests/golden/`.
    let cfg = video_cfg(42).with_duration(SimDuration::from_secs(5));
    for t in THREADS {
        let rendered = trace_jsonl(&cfg.clone().with_threads(t));
        if let Err(e) = check_golden(&golden_path("trace_5c_seed42.jsonl"), &rendered) {
            panic!("threads={t}: {e}");
        }
    }
}

#[test]
fn sharded_city_is_byte_identical_at_every_thread_count() {
    // The genuinely parallel case: 5 shards exchanging cross-shard mail
    // at epoch barriers. Compare the full export (trace counters, client
    // postmortems, metrics, event stream) across the whole matrix.
    let cfg = city_cfg(42).with_obs(ObsConfig::full());
    let reference = full_export(&cfg.clone().with_threads(1));
    assert!(!reference.is_empty());
    for t in THREADS {
        let got = full_export(&cfg.clone().with_threads(t));
        assert_eq!(got, reference, "city: threads={t} diverged from threads=1");
    }
}

#[test]
fn sharded_city_trace_is_byte_identical_at_every_thread_count() {
    let cfg = city_cfg(7);
    let reference = trace_jsonl(&cfg.clone().with_threads(1));
    assert!(reference.lines().count() > 100, "city run produced a real trace");
    for t in THREADS {
        let got = trace_jsonl(&cfg.clone().with_threads(t));
        assert_eq!(got, reference, "city trace: threads={t} diverged from threads=1");
    }
}

/// The sharded city's run counters, every client's live-radio summary
/// (exact floats), the metrics JSON, the event count and the head of the
/// event stream. The head holds the t = 1 000 µs block where all four
/// cells' proxies record at the same instant, each on its own shard's
/// recorder lane, so a node that records on another lane reorders it.
fn render_city_live(cfg: &ScenarioConfig) -> String {
    let r = run_scenario(cfg);
    let mut s = String::new();
    let _ = writeln!(s, "[run]");
    let _ = writeln!(s, "sim_events = {}", r.sim_events);
    let _ = writeln!(s, "trace_frames = {}", r.trace_frames);
    let _ = writeln!(s, "medium_drops = {}", r.medium_drops);
    let _ = writeln!(s, "schedules_sent = {}", r.proxy.schedules_sent);
    let _ = writeln!(s, "bursts = {}", r.proxy.bursts);
    let _ = writeln!(s, "udp_bytes_sent = {}", r.proxy.udp_bytes_sent);
    let _ = writeln!(s, "tcp_bytes_fed = {}", r.proxy.tcp_bytes_fed);
    let _ = writeln!(s, "invariant_violations = {}", r.invariants.total());
    for c in &r.clients {
        let live = c.live.expect("live radios measure every client");
        let _ = writeln!(s, "client-{} {} {live:?}", c.host.0, c.label);
    }
    let obs = r.obs.expect("obs enabled");
    let _ = writeln!(s, "[metrics]");
    let _ = writeln!(s, "{}", obs.metrics_json());
    let _ = writeln!(s, "[events]");
    let _ = writeln!(s, "events = {}", obs.events.len());
    for line in obs.events_jsonl().lines().take(32) {
        let _ = writeln!(s, "{line}");
    }
    s
}

#[test]
fn sharded_city_matches_golden_at_every_thread_count() {
    // The tests above compare thread counts within one build: mail that
    // is dropped or delayed the same way at every thread count passes
    // them. This committed snapshot pins a 5-shard world across changes.
    // Live radios, because the Monitor-mode postmortem replays every
    // cell's schedule broadcasts for every client (ROADMAP).
    let mut cfg = city_cfg(42).with_obs(ObsConfig::full());
    cfg.radio = RadioMode::Live;
    for t in THREADS {
        let rendered = render_city_live(&cfg.clone().with_threads(t));
        if let Err(e) = check_golden(&golden_path("city_live_4cell_seed42.txt"), &rendered) {
            panic!("threads={t}: {e}");
        }
    }
}

#[test]
fn faulted_sharded_city_is_byte_identical_at_every_thread_count() {
    // Per-cell fault injectors + per-cell medium RNG under parallel
    // execution: the stochastic paths must partition by cell exactly.
    let cfg = city_cfg(42).with_faults(FaultPlan {
        loss_prob: 0.03,
        dup_prob: 0.01,
        reorder_prob: 0.02,
        reorder_max: SimDuration::from_ms(4),
        sched_drop_prob: 0.01,
        ap_jitter_prob: 0.1,
        ap_jitter_max: SimDuration::from_ms(8),
        clock_skew_ppm: 25.0,
    });
    let reference = full_export(&cfg.clone().with_threads(1));
    for t in THREADS {
        let got = full_export(&cfg.clone().with_threads(t));
        assert_eq!(got, reference, "faulted city: threads={t} diverged from threads=1");
    }
}
