//! Acceptance tests for the PR 7 Markov channel model.
//!
//! Three contracts:
//!
//! 1. **Determinism** — the channel-state trajectory is a pure function of
//!    `(seed, epochs, client count)`: identical across repeats, across
//!    sampling cadences, and across `parallel_sweep` thread counts.
//! 2. **Passivity** — the model is observational: attaching it to a run
//!    whose policy ignores channel states (the paper's fixed policy)
//!    changes *nothing* — the same whole result.
//! 3. **End-to-end determinism** — full channel-aware scenarios render
//!    bit-identically whether jobs run inline on the caller's thread or
//!    across worker threads.

use powerburst::net::{ChannelModel, ChannelQuality};
use powerburst::prelude::*;
use powerburst::scenario::{collect, postmortem};
use powerburst::sim::rng::streams;
use powerburst::sim::{derive_rng, parallel_sweep};

fn channel_cfg(seed: u64, policy: PolicyKind) -> ScenarioConfig {
    let clients =
        (0..6).map(|_| ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 })).collect();
    ScenarioConfig::new(seed, policy, clients).with_duration(SimDuration::from_secs(20))
}

/// The whole result, floats printed exactly.
fn render(r: &ScenarioResult) -> String {
    format!("{r:?}")
}

/// Walk a model for `epochs` 100 ms epochs, recording one state vector per
/// epoch.
fn trajectory(seed: u64, clients: usize, epochs: u64) -> Vec<Vec<ChannelQuality>> {
    let mut m = ChannelModel::new(clients, derive_rng(seed, streams::CHANNEL));
    (1..=epochs)
        .map(|e| {
            m.advance_to(powerburst::sim::SimTime::ZERO + SimDuration::from_ms(100) * e);
            m.states().to_vec()
        })
        .collect()
}

#[test]
fn same_seed_gives_identical_trajectories() {
    let a = trajectory(42, 8, 600);
    let b = trajectory(42, 8, 600);
    assert_eq!(a, b, "same seed must replay the same trajectory");
    let c = trajectory(43, 8, 600);
    assert_ne!(a, c, "different seeds should diverge over 600 epochs");
}

#[test]
fn trajectory_is_independent_of_sampling_cadence() {
    // Advancing epoch-by-epoch or in one leap must land on the same
    // states: lazy advancement cannot depend on how often the proxy asks.
    let fine = trajectory(7, 5, 300);
    let mut m = ChannelModel::new(5, derive_rng(7, streams::CHANNEL));
    m.advance_to(powerburst::sim::SimTime::ZERO + SimDuration::from_ms(100) * 300);
    assert_eq!(
        fine.last().expect("300 epochs").as_slice(),
        m.states(),
        "coarse sampling diverged from epoch-by-epoch advancement"
    );
}

#[test]
fn trajectories_are_identical_across_thread_counts() {
    // The trajectory is pure data + a derived RNG; fanning the *same*
    // computation across sweep workers must change nothing.
    let seeds: Vec<u64> = vec![11, 12, 13, 14];
    let inline: Vec<_> = seeds.iter().map(|&s| trajectory(s, 10, 200)).collect();
    let threaded = parallel_sweep(seeds, 4, |&s| trajectory(s, 10, 200));
    assert_eq!(inline, threaded, "thread count changed a channel trajectory");
}

#[test]
fn model_is_passive_under_channel_blind_policies() {
    // Same scenario, fixed (channel-blind) policy, with and without the
    // model attached: the model only *observes* epochs-elapsed and draws
    // from its own stream, so the simulation must be untouched — event
    // for event, byte for byte.
    let cfg = channel_cfg(42, PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) });
    let run = |attach: bool| {
        let mut a = assemble(&cfg);
        if attach {
            let shard = &a.shards[0];
            let model =
                ChannelModel::new(shard.clients.len(), derive_rng(cfg.seed, streams::CHANNEL));
            a.world.node_mut::<Proxy>(shard.proxy).set_channel_model(model);
        }
        a.world.run_until(SimTime::ZERO + cfg.duration);
        let trace = a.world.take_trace();
        let posts = postmortem(&cfg, &trace);
        collect(&cfg, &mut a, posts, &trace)
    };
    let r_without = run(false);
    let r_with = run(true);
    assert_eq!(
        r_without.sim_events, r_with.sim_events,
        "attaching the channel model changed the sim event count under a fixed policy"
    );
    assert_eq!(
        render(&r_without),
        render(&r_with),
        "attaching the channel model perturbed a channel-blind run"
    );
}

#[test]
fn channel_aware_runs_are_deterministic_across_thread_counts() {
    let policy = PolicyKind::ChannelAware { interval: SimDuration::from_ms(100) };
    let configs: Vec<ScenarioConfig> =
        [201u64, 202, 203, 204].iter().map(|&s| channel_cfg(s, policy)).collect();
    let inline: Vec<String> = configs.iter().map(|c| render(&run_scenario(c))).collect();
    let threaded = parallel_sweep(configs, 4, |c| render(&run_scenario(c)));
    assert_eq!(inline, threaded, "thread count changed a channel-aware run");
}

#[test]
fn channel_aware_run_is_clean_and_saves_energy() {
    let policy = PolicyKind::ChannelAware { interval: SimDuration::from_ms(100) };
    let r = run_scenario(&channel_cfg(42, policy));
    assert!(r.invariants.is_clean(), "violations: {:?}", r.invariants.violations());
    let saved = r.saved_all();
    assert!(saved.mean > 40.0, "channel-aware policy should still save energy: {saved:?}");
}

#[test]
fn buffer_aware_run_is_clean_and_saves_energy() {
    let policy = PolicyKind::BufferAware {
        interval: SimDuration::from_ms(100),
        target_buffer: powerburst::core::DEFAULT_TARGET_BUFFER,
    };
    let r = run_scenario(&channel_cfg(42, policy));
    assert!(r.invariants.is_clean(), "violations: {:?}", r.invariants.violations());
    let saved = r.saved_all();
    assert!(saved.mean > 40.0, "buffer-aware policy should still save energy: {saved:?}");
}
