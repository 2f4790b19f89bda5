//! Acceptance tests for the fault-injection + invariant layer.
//!
//! The contract under test: a scenario with a 5% injected frame-loss rate
//! and 10 ms AP jitter still runs with **zero invariant violations**, the
//! clients' visible loss stays far below the injected budget (the proxy's
//! burst scheduling absorbs it), and the whole pipeline is deterministic —
//! the same master seed renders bit-identically whether runs execute
//! inline on the caller's thread or spread across `parallel_sweep` worker
//! threads.

use powerburst::prelude::*;
use powerburst::sim::parallel_sweep;

fn faulted_cfg(seed: u64) -> ScenarioConfig {
    let clients =
        (0..6).map(|_| ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 })).collect();
    let mut cfg = ScenarioConfig::new(
        seed,
        PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
        clients,
    )
    .with_duration(SimDuration::from_secs(20));
    cfg.faults = FaultPlan {
        loss_prob: 0.05,
        ap_jitter_prob: 0.2,
        ap_jitter_max: SimDuration::from_ms(10),
        ..FaultPlan::default()
    };
    cfg
}

/// The whole result of a run, floats printed exactly.
fn render(r: &ScenarioResult) -> String {
    format!("{r:?}")
}

#[test]
fn faulted_run_keeps_invariants_and_recovers_loss() {
    let r = run_scenario(&faulted_cfg(42));

    // The injector actually fired — otherwise this test proves nothing.
    assert!(r.faults.frames_lost > 0, "5% loss plan must drop frames");
    assert!(r.faults.ap_spikes > 0, "20% jitter plan must delay frames");

    // Zero runtime invariant violations despite the faults.
    assert!(
        r.invariants.is_clean(),
        "faulted run violated invariants: {:?}",
        r.invariants.violations()
    );

    // Client-visible loss stays under 2% even with 5% injected loss: the
    // proxy holds undelivered media and the schedule re-bursts it.
    let (mut delivered, mut missed) = (0u64, 0u64);
    for c in &r.clients {
        delivered += c.post.delivered;
        missed += c.post.missed;
    }
    assert!(delivered > 0, "clients received traffic");
    let loss = missed as f64 / (delivered + missed) as f64;
    assert!(loss < 0.02, "mean client loss {:.4} exceeds 2% despite recovery", loss);
}

#[test]
fn same_seed_runs_render_identically() {
    let cfg = faulted_cfg(7);
    let a = render(&run_scenario(&cfg));
    let b = render(&run_scenario(&cfg));
    assert_eq!(a, b, "same master seed must give a byte-identical summary");
}

#[test]
fn sweep_is_deterministic_across_thread_counts() {
    // Four seeds, run once inline on this thread (as `powerburst run`
    // does) and once over four worker threads: scheduling across threads
    // must not leak into the results.
    let configs: Vec<ScenarioConfig> =
        [101u64, 102, 103, 104].iter().map(|&s| faulted_cfg(s)).collect();
    let inline: Vec<String> = configs.iter().map(|c| render(&run_scenario(c))).collect();
    let threaded = parallel_sweep(configs, 4, |c| render(&run_scenario(c)));
    assert_eq!(inline, threaded, "thread count changed a run's rendered summary");
}
