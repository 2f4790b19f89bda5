//! Golden-trace regression tests: a fixed-seed run's rendered summary is
//! snapshotted under `tests/golden/` and any drift fails the build.
//!
//! Refresh intentionally-changed snapshots with
//! `PB_UPDATE_GOLDEN=1 cargo test --test golden_trace`.

use std::fmt::Write as _;
use std::path::PathBuf;

use powerburst::golden::{check_golden, render_postmortem};
use powerburst::net::Delivery;
use powerburst::obs::EventKind;
use powerburst::prelude::*;
use powerburst::trace::to_jsonl;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join(name)
}

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

/// Canonical rendering of a whole run: run-level counters, fault stats,
/// then each client's postmortem block.
fn render_run(r: &ScenarioResult) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "[run]");
    let _ = writeln!(s, "clients = {}", r.clients.len());
    let _ = writeln!(s, "duration_us = {}", r.duration.as_us());
    let _ = writeln!(s, "schedules_sent = {}", r.proxy.schedules_sent);
    let _ = writeln!(s, "bursts = {}", r.proxy.bursts);
    let _ = writeln!(s, "udp_packets_sent = {}", r.proxy.udp_packets_sent);
    let _ = writeln!(s, "udp_bytes_sent = {}", r.proxy.udp_bytes_sent);
    let _ = writeln!(s, "tcp_bytes_fed = {}", r.proxy.tcp_bytes_fed);
    let _ = writeln!(s, "medium_drops = {}", r.medium_drops);
    let _ = writeln!(s, "trace_frames = {}", r.trace_frames);
    let _ = writeln!(s, "frames_lost = {}", r.faults.frames_lost);
    let _ = writeln!(s, "schedules_dropped = {}", r.faults.schedules_dropped);
    let _ = writeln!(s, "frames_duplicated = {}", r.faults.frames_duplicated);
    let _ = writeln!(s, "frames_reordered = {}", r.faults.frames_reordered);
    let _ = writeln!(s, "ap_spikes = {}", r.faults.ap_spikes);
    let _ = writeln!(s, "invariant_violations = {}", r.invariants.total());
    for c in &r.clients {
        s.push_str(&render_postmortem(&format!("client-{} {}", c.host.0, c.label), &c.post));
    }
    s
}

#[test]
fn baseline_run_matches_golden_snapshot() {
    let cfg = video_cfg(42);
    let rendered = render_run(&run_scenario(&cfg));
    // Same seed, same build → bit-identical rendering.
    let again = render_run(&run_scenario(&cfg));
    assert_eq!(rendered, again, "same-seed runs must render identically");
    if let Err(e) = check_golden(&golden_path("baseline_5c_seed42.txt"), &rendered) {
        panic!("{e}");
    }
}

/// The fault plan `faulted_5c_seed42.txt` pins: every fault kind at once.
fn golden_faults() -> FaultPlan {
    FaultPlan {
        loss_prob: 0.05,
        dup_prob: 0.01,
        reorder_prob: 0.02,
        reorder_max: SimDuration::from_ms(5),
        sched_drop_prob: 0.02,
        ap_jitter_prob: 0.2,
        ap_jitter_max: SimDuration::from_ms(10),
        clock_skew_ppm: 40.0,
    }
}

#[test]
fn faulted_run_matches_golden_snapshot() {
    let cfg = video_cfg(42).with_faults(golden_faults());
    let rendered = render_run(&run_scenario(&cfg));
    let again = render_run(&run_scenario(&cfg));
    assert_eq!(rendered, again, "same-seed faulted runs must render identically");
    if let Err(e) = check_golden(&golden_path("faulted_5c_seed42.txt"), &rendered) {
        panic!("{e}");
    }
}

/// The fault injector is the one source of corruption on the air, so the
/// capture's `Corrupted` records are exactly the frames it counts as lost
/// or as dropped schedules.
#[test]
fn capture_and_fault_counters_agree() {
    for faults in [golden_faults(), FaultPlan::NONE] {
        let cfg = video_cfg(42).with_faults(faults);
        let mut a = assemble(&cfg);
        a.world.run_until(SimTime::ZERO + cfg.duration);
        let corrupted =
            a.world.take_trace().iter().filter(|rec| rec.delivery == Delivery::Corrupted).count()
                as u64;
        let stats = a.world.fault_stats();
        assert_eq!(corrupted, stats.frames_lost + stats.schedules_dropped, "{faults:?}");
        if faults == FaultPlan::NONE {
            assert_eq!(corrupted, 0, "a fault-free run corrupts nothing");
        } else {
            assert!(stats.frames_lost > 0 && stats.schedules_dropped > 0, "{stats:?}");
        }
    }
}

/// TCP-timer regression gate: ten web clients under 20 % frame loss, the
/// run `powerburst run --clients 0 --web 10 --secs 60 --seed 9
/// --fault-loss 0.2 --metrics-out m.json` makes. Every proxy splice,
/// browser connection and server connection re-arms and cancels its
/// retransmission timers here, and the metrics export's `world_events`
/// counts every dispatched event, so a single stale or lost timer shows
/// up even when the per-client summary does not move.
#[test]
fn web_loss_run_matches_golden_snapshot() {
    let clients = (0..10)
        .map(|_| ClientSpec::new(ClientKind::Web { script: WebScriptConfig::default() }))
        .collect();
    let mut cfg = ScenarioConfig::new(
        9,
        PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
        clients,
    )
    .with_duration(SimDuration::from_secs(60))
    .with_obs(ObsConfig::metrics());
    cfg.faults = FaultPlan { loss_prob: 0.2, ..FaultPlan::default() };
    let r = run_scenario(&cfg);
    let mut rendered = render_run(&r);
    let _ = writeln!(rendered, "[metrics]");
    let _ = writeln!(rendered, "{}", r.obs.expect("metrics enabled").metrics_json());
    if let Err(e) = check_golden(&golden_path("web_loss_10c_seed9.txt"), &rendered) {
        panic!("{e}");
    }
}

/// Event-queue-rewrite regression gate: the **raw sniffer trace** of one
/// fixed scenario, byte-compared frame by frame.
///
/// The run-summary snapshots above aggregate; this test does not. Every
/// frame's timestamp, id, and delivery outcome ride on the exact order
/// the event queue pops `(time, seq)` ties, so any rewrite of the queue
/// or of `World::route_send`'s routing tables that perturbs pop order or
/// routing — even transiently, in a way aggregation would wash out —
/// shows up here as the first differing JSONL line.
#[test]
fn sniffer_trace_matches_golden_snapshot() {
    let cfg = video_cfg(42).with_duration(SimDuration::from_secs(5));
    let run = || {
        let mut a = powerburst::scenario::assemble(&cfg);
        a.world.run_until(SimTime::ZERO + cfg.duration);
        to_jsonl(&a.world.take_trace())
    };
    let rendered = run();
    assert_eq!(rendered, run(), "same-seed traces must be byte-identical");
    if let Err(e) = check_golden(&golden_path("trace_5c_seed42.jsonl"), &rendered) {
        panic!("{e}");
    }
}

#[test]
fn different_seed_renders_differently() {
    // Guard against a renderer that ignores its input: a different seed
    // must change the snapshot (frame timings, energy, counters).
    let a = render_run(&run_scenario(&video_cfg(42)));
    let b = render_run(&run_scenario(&video_cfg(43)));
    assert_ne!(a, b);
}

/// All three observability exports of one instrumented run.
fn obs_exports(cfg: &ScenarioConfig) -> (String, String, String) {
    let r = run_scenario(cfg);
    let rep = r.obs.expect("obs collection enabled");
    (rep.metrics_json(), rep.metrics_csv(), rep.events_jsonl())
}

#[test]
fn obs_exports_are_byte_identical_across_repeats() {
    let cfg = video_cfg(42).with_obs(ObsConfig::full());
    let (j1, c1, e1) = obs_exports(&cfg);
    let (j2, c2, e2) = obs_exports(&cfg);
    assert!(!e1.is_empty(), "instrumented run records events");
    assert_eq!(j1, j2, "metrics JSON must be byte-identical across repeats");
    assert_eq!(c1, c2, "metrics CSV must be byte-identical across repeats");
    assert_eq!(e1, e2, "event stream must be byte-identical across repeats");
}

#[test]
fn obs_exports_are_byte_identical_across_sweep_thread_counts() {
    // Each run owns its recorder, so fanning instrumented runs across
    // worker threads must not perturb any export byte.
    let configs: Vec<ScenarioConfig> =
        (0..4).map(|i| video_cfg(42 + i).with_obs(ObsConfig::full())).collect();
    let single = powerburst::sim::parallel_sweep(configs.clone(), 1, obs_exports);
    let multi = powerburst::sim::parallel_sweep(configs, 4, obs_exports);
    assert_eq!(single, multi, "exports must not depend on sweep thread count");
}

#[test]
fn instrumentation_is_passive() {
    // Turning observability on must not change what the simulation does:
    // the golden-checked rendering is identical with and without it.
    let plain = render_run(&run_scenario(&video_cfg(42)));
    let instrumented = render_run(&run_scenario(&video_cfg(42).with_obs(ObsConfig::full())));
    assert_eq!(plain, instrumented, "observability must not perturb the run");
}

#[test]
fn determinism_and_passivity_hold_across_seeds() {
    // The queue/routing rewrite must preserve these properties for every
    // seed, not just the snapshotted one: repeats are byte-identical and
    // instrumentation stays passive across seeds 1/2/3/7.
    for seed in [1, 2, 3, 7] {
        let cfg = video_cfg(seed).with_duration(SimDuration::from_secs(10));
        let plain = render_run(&run_scenario(&cfg));
        let again = render_run(&run_scenario(&cfg));
        assert_eq!(plain, again, "seed {seed}: repeats must render identically");
        let instrumented = render_run(&run_scenario(&cfg.clone().with_obs(ObsConfig::full())));
        assert_eq!(plain, instrumented, "seed {seed}: observability must stay passive");
    }
}

#[test]
fn live_event_stream_is_in_time_order() {
    // A live radio records its `waking → awake` transition only when it
    // next bills, stamped with the instant the wake completed; the export
    // must still list every event in time order.
    let mut cfg = video_cfg(42).with_obs(ObsConfig::full());
    cfg.radio = RadioMode::Live;
    let events = run_scenario(&cfg).obs.expect("obs collection enabled").events;
    let wakes = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WnicState { to: "awake", .. }))
        .count();
    assert!(wakes > 0, "live radios record their wake-ups");
    let out_of_order = events.windows(2).filter(|w| w[0].t_us > w[1].t_us).count();
    assert_eq!(out_of_order, 0, "{out_of_order} of {} events out of time order", events.len());
}
