//! Multi-cell topology tests: sharded proxies, per-cell broadcast
//! containment, coordinator liveness, and — the hard constraint — byte
//! determinism at city scale plus exact 1-cell equivalence when the
//! extra cells are empty.

use powerburst::net::ports;
use powerburst::prelude::*;
use powerburst::scenario::hosts;
use powerburst::trace::to_jsonl;

fn video_cells(seed: u64, cells: usize, per_cell: usize, secs: u64) -> ScenarioConfig {
    let clients = (0..cells * per_cell)
        .map(|_| ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 }))
        .collect();
    let mut cfg = ScenarioConfig::new(
        seed,
        PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
        clients,
    )
    .with_duration(SimDuration::from_secs(secs))
    .with_cells(cells)
    // Two workers, so the threaded epoch executor (which the sanitizer
    // job runs these tests for) drives every multi-cell world here.
    .with_threads(2);
    // City-scale runs can't afford the paper's 1 s request stagger — every
    // client must start well inside the (short) test window.
    cfg.stagger = SimDuration::from_ms(1);
    cfg
}

/// Raw radio capture of one run, rendered to JSONL (no postmortem).
fn raw_trace(cfg: &ScenarioConfig) -> String {
    let mut a = assemble(cfg);
    a.world.run_until(SimTime::ZERO + cfg.duration);
    to_jsonl(&a.world.take_trace())
}

#[test]
fn sixteen_cells_of_sixty_four_clients_run_deterministically() {
    // ISSUE acceptance shape: 16 cells × 64 clients, same seed →
    // byte-identical exports, independent of sweep thread count.
    let cfg = video_cells(42, 16, 64, 2);
    let jobs: Vec<ScenarioConfig> = vec![cfg.clone(), cfg];
    let single = powerburst::sim::parallel_sweep(jobs.clone(), 1, raw_trace);
    let multi = powerburst::sim::parallel_sweep(jobs, 4, raw_trace);
    assert!(!single[0].is_empty(), "city-scale run produced traffic");
    assert_eq!(single[0], single[1], "same-seed runs must be byte-identical");
    assert_eq!(single, multi, "exports must not depend on sweep thread count");
}

#[test]
fn every_client_lands_in_exactly_one_cell() {
    let cells = 16;
    let per_cell = 64;
    let cfg = video_cells(7, cells, per_cell, 1);
    let a = assemble(&cfg);
    assert_eq!(a.shards.len(), cells);
    assert!(a.coordinator.is_some(), "multi-cell worlds get a coordinator");

    // The shards partition the client index space.
    let mut seen = vec![0u32; cells * per_cell];
    for s in &a.shards {
        assert_eq!(s.clients.len(), per_cell, "round-robin fills cells evenly");
        for &i in &s.clients {
            seen[i] += 1;
        }
    }
    assert!(seen.iter().all(|&c| c == 1), "every client in exactly one shard");

    // And the radio attachment agrees: each cell holds its AP + clients.
    for (r, s) in a.shards.iter().enumerate() {
        let members = a.world.cell_members(r);
        assert_eq!(members.len(), per_cell + 1, "cell {r}: AP + its clients, nobody else");
        assert_eq!(members[0], s.ap, "AP attached first (broadcast order)");
        assert_eq!(a.world.cell_of(s.ap), Some(r as u32));
        for &i in &s.clients {
            assert_eq!(a.world.cell_of(a.clients[i]), Some(r as u32));
        }
    }
}

#[test]
fn schedule_broadcasts_stay_bounded_by_cell_size() {
    // Per-cell broadcasts must name only that shard's clients — the whole
    // point of sharding is that broadcast size is O(cell), not O(city).
    let cfg = video_cells(42, 4, 8, 3);
    let mut a = assemble(&cfg);
    a.world.run_until(SimTime::ZERO + cfg.duration);
    let shard_of_host: Vec<(HostAddr, usize)> =
        a.shards.iter().enumerate().map(|(r, s)| (s.host, r)).collect();
    let mut broadcasts_per_shard = vec![0u64; a.shards.len()];
    for rec in a.world.take_trace() {
        if rec.src.port != ports::SCHEDULE {
            continue;
        }
        let sched = Schedule::decode(&rec.payload).expect("schedule frames decode");
        let (_, r) = *shard_of_host
            .iter()
            .find(|(h, _)| *h == rec.src.host)
            .expect("broadcast came from a known shard");
        broadcasts_per_shard[r] += 1;
        let shard = &a.shards[r];
        assert!(
            sched.entries.len() <= shard.clients.len(),
            "shard {r}: {} entries for {} clients",
            sched.entries.len(),
            shard.clients.len()
        );
        for e in &sched.entries {
            assert!(
                shard.clients.iter().any(|&i| hosts::client(i) == e.client),
                "shard {r} scheduled foreign client {:?}",
                e.client
            );
        }
    }
    for (r, n) in broadcasts_per_shard.iter().enumerate() {
        assert!(*n > 10, "shard {r} broadcast schedules ({n})");
    }
}

#[test]
fn coordinator_reports_and_grants_flow() {
    let cfg = video_cells(42, 4, 8, 3);
    let r = run_scenario(&cfg);
    assert!(r.proxy.demand_reports_sent > 30, "reports: {}", r.proxy.demand_reports_sent);
    assert!(r.proxy.budget_grants_applied > 30, "grants: {}", r.proxy.budget_grants_applied);
    assert_eq!(r.invariants.total(), 0, "{:?}", r.invariants);
}

#[test]
fn capped_airtime_pool_stays_deterministic() {
    let cfg = video_cells(42, 4, 8, 3).with_coord_pool(600);
    let a = run_scenario(&cfg);
    let b = run_scenario(&cfg);
    assert!(a.proxy.budget_grants_applied > 30);
    assert_eq!(a.proxy.udp_bytes_sent, b.proxy.udp_bytes_sent);
    assert_eq!(a.trace_frames, b.trace_frames);
}

#[test]
fn empty_cells_collapse_to_the_single_cell_world() {
    // One client in 16 cells occupies one cell: the 15 empty ones are
    // elided, so `assemble` must build the *identical* 1-cell world —
    // same node ids, same RNG streams, same frames, byte for byte.
    let cfg = |cells| {
        ScenarioConfig::new(
            42,
            PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
            vec![ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 })],
        )
        .with_duration(SimDuration::from_secs(5))
        .with_cells(cells)
    };
    let single = raw_trace(&cfg(1));
    assert!(!single.is_empty(), "the stream reached the air");
    assert_eq!(raw_trace(&cfg(16)), single, "empty cells changed the 1-cell world");
}
