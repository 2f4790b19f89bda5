//! Live-vs-postmortem oracle: one client power policy, run two ways.
//!
//! The live daemon drives the policy with what its sleeping radio hears;
//! the postmortem replay (the paper's §3.1 method) drives the same policy
//! with the sniffer's capture of the same run. Where the capture is
//! exactly what the radio could have heard — no frame-loss faults — the
//! two must agree client by client: energy saved within 0.05 points,
//! the same frames slept through, the same schedules missed. Any rule
//! that one side applies and the other does not shows up here.
//!
//! Frame-loss faults stay out: the replay counts a corrupted unicast
//! frame addressed to the client as received, which no radio does.
//!
//! In Monitor mode the replay is the only policy run: no radio sleeps, so
//! the world itself, capture and event count alike, must not depend on
//! the client policy's parameters.

use powerburst::prelude::*;
use powerburst::scenario::experiments::INTERVALS;
use powerburst::sim::parallel_sweep;
use powerburst::trace::to_jsonl;

const SECS: u64 = 20;
/// Largest tolerated |postmortem − live| energy saved, in points.
const SAVED_BOUND_PTS: f64 = 0.05;

fn live(seed: u64, policy: PolicyKind, clients: Vec<ClientSpec>) -> ScenarioConfig {
    let mut cfg =
        ScenarioConfig::new(seed, policy, clients).with_duration(SimDuration::from_secs(SECS));
    cfg.radio = RadioMode::Live;
    cfg
}

fn video(pattern: VideoPattern, n: usize) -> Vec<ClientSpec> {
    pattern
        .fidelities(n)
        .into_iter()
        .map(|f| ClientSpec::new(ClientKind::Video { fidelity: f }))
        .collect()
}

/// Figure 5's blend: seven 56K video clients and three web clients.
fn blend(seed: u64) -> ScenarioConfig {
    let mut clients = video(VideoPattern::All56, 7);
    clients.extend(
        (0..3).map(|_| ClientSpec::new(ClientKind::Web { script: WebScriptConfig::default() })),
    );
    live(seed, PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) }, clients)
}

/// The fault plan of the faulted golden snapshots.
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

/// Every disagreement between the daemon and the replay in `cfg`'s run,
/// one line each.
fn disagreements(name: &str, cfg: &ScenarioConfig) -> Vec<String> {
    let r = run_scenario(cfg);
    let mut out = Vec::new();
    for c in &r.clients {
        let l = c.live.expect("live radios");
        let gap = (c.post.saved - l.saved).abs() * 100.0;
        if gap > SAVED_BOUND_PTS {
            out.push(format!("{name} {}: saved gap {gap:.3} points", c.host.0));
        }
        if l.missed_frames != c.post.missed {
            out.push(format!(
                "{name} {}: live missed {} frames, postmortem {}",
                c.host.0, l.missed_frames, c.post.missed
            ));
        }
        if c.daemon.schedules_missed != c.post.schedules_missed {
            out.push(format!(
                "{name} {}: daemon missed {} schedules, postmortem {}",
                c.host.0, c.daemon.schedules_missed, c.post.schedules_missed
            ));
        }
    }
    out
}

fn assert_agree(runs: Vec<(String, ScenarioConfig)>) {
    let bad: Vec<String> = parallel_sweep(runs, 2, |(name, cfg)| disagreements(name, cfg))
        .into_iter()
        .flatten()
        .collect();
    assert!(bad.is_empty(), "live and postmortem disagree:\n{}", bad.join("\n"));
}

#[test]
fn figure4_grid_live_matches_postmortem() {
    let patterns = [
        VideoPattern::All56,
        VideoPattern::All256,
        VideoPattern::All512,
        VideoPattern::Half56Half512,
        VideoPattern::Mixed,
    ];
    let mut runs = Vec::new();
    for (iname, ikind) in INTERVALS {
        for p in patterns {
            runs.push((format!("{iname}/{}", p.label()), live(7, ikind.policy(), video(p, 10))));
        }
    }
    assert_agree(runs);
}

#[test]
fn figure5_blend_live_matches_postmortem() {
    assert_agree([1, 7, 42].map(|seed| (format!("blend seed {seed}"), blend(seed))).to_vec());
}

#[test]
fn faulted_blend_without_frame_loss_live_matches_postmortem() {
    let runs = [1, 7, 42].map(|seed| {
        let mut cfg = blend(seed);
        // The golden fault plan minus frame loss: duplication, reordering,
        // SRP drops, AP jitter and clock skew all stay on.
        cfg.faults = FaultPlan { loss_prob: 0.0, ..golden_faults() };
        (format!("faulted blend seed {seed}"), cfg)
    });
    assert_agree(runs.to_vec());
}

#[test]
fn monitor_mode_world_does_not_depend_on_the_client_policy() {
    // The faulted blend in Monitor mode, with `unchanged` flags on the
    // air so `skip_unchanged` has something to skip.
    let capture = |set: fn(&mut ClientSpec)| {
        let mut cfg = blend(7);
        cfg.radio = RadioMode::Monitor;
        cfg.flag_unchanged = true;
        cfg.faults = golden_faults();
        cfg.clients.iter_mut().for_each(set);
        let mut a = assemble(&cfg);
        a.world.run_until(SimTime::ZERO + cfg.duration);
        (to_jsonl(&a.world.take_trace()), a.world.events_processed())
    };
    let (trace, events) = capture(|_| {});
    let (other_trace, other_events) = capture(|c| {
        c.early_transition = SimDuration::ZERO;
        c.skip_unchanged = true;
        c.comp = CompMode::FixedAnchor;
    });
    assert!(trace == other_trace, "the capture depends on the client policy");
    assert_eq!(events, other_events, "the event count depends on the client policy");
}
