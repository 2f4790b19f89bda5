//! The policy-contract property harness: every policy in
//! [`powerburst_core::registry`] must satisfy the four policy contract
//! clauses (no overlap, fit, coverage-unless-saturated, purity)
//! for arbitrary demand snapshots — including snapshots carrying the PR 7
//! inputs (Markov channel states, reported buffer occupancies).
//!
//! New policies are picked up automatically: list the `PolicyKind` in
//! `registry()` and this harness starts fuzzing it.

use proptest::prelude::*;

use powerburst_core::{registry, BuilderConfig, ClientDemand, PolicyScratch, Schedule};
use powerburst_net::{ChannelQuality, HostAddr};

/// One generated client demand: bytes, packet size, channel state, and a
/// reported buffer level (values past 200 000 decode to "no report").
fn arb_demand() -> impl Strategy<Value = (u64, u64, usize, u8, u64)> {
    (
        0u64..2_000_000, // udp bytes
        0u64..500_000,   // tcp bytes
        64usize..1_500,  // avg pkt
        0u8..3,          // channel state index
        0u64..400_000,   // buffer report; >= 200_000 means None
    )
}

fn mk_demands(raw: Vec<(u64, u64, usize, u8, u64)>) -> Vec<ClientDemand> {
    raw.into_iter()
        .enumerate()
        .map(|(i, (udp, tcp, avg, chan, buf))| {
            let mut d = ClientDemand::new(HostAddr(i as u32 + 1), udp, tcp, avg);
            d.channel = match chan {
                0 => ChannelQuality::Good,
                1 => ChannelQuality::Fair,
                _ => ChannelQuality::Bad,
            };
            d.buffer_bytes = if buf < 200_000 { Some(buf) } else { None };
            d
        })
        .collect()
}

/// Contract clauses 1–3 for one built schedule (panics on violation).
fn check_layout(name: &str, sched: &Schedule, demands: &[ClientDemand], cfg: &BuilderConfig) {
    // 1. No overlap: entries in rendezvous order, each starting at or
    //    after the previous slot's end.
    let mut cursor = powerburst_sim::SimDuration::ZERO;
    for e in &sched.entries {
        prop_assert!(e.rp_offset >= cursor, "[{name}] slot overlap at {e:?}");
        cursor = e.rp_offset + e.duration;
    }
    // 2. Fit: the layout never spills past the advertised interval.
    prop_assert!(
        cursor <= sched.next_srp,
        "[{name}] layout {cursor} spills past interval {}",
        sched.next_srp
    );
    // 3. Coverage: every client with nonzero demand is served — its own
    //    slot or a broadcast window — unless the schedule says saturated.
    if !sched.saturated {
        let broadcast = sched.entries.iter().any(|e| e.client == HostAddr::BROADCAST);
        for d in demands.iter().filter(|d| d.total() > 0) {
            let has = broadcast || sched.entries.iter().any(|e| e.client == d.client);
            prop_assert!(
                has,
                "[{name}] demand {:?} (total {}) lost its slot in a non-saturated \
                 schedule ({} entries, guard {})",
                d.client,
                d.total(),
                sched.entries.len(),
                cfg.guard
            );
        }
    }
}

proptest! {
    /// Clauses 1–3 (no overlap / fit / coverage) for every registered
    /// policy over arbitrary demand snapshots.
    #[test]
    fn all_policies_honor_layout_contract(
        raw in prop::collection::vec(arb_demand(), 1..16),
        seq in 0u64..1_000,
    ) {
        let cfg = BuilderConfig::default();
        let demands = mk_demands(raw);
        for policy in registry() {
            let sched = policy.build(&cfg, &demands, seq);
            prop_assert_eq!(sched.seq, seq, "[{}] wrong seq", policy.name());
            check_layout(policy.name(), &sched, &demands, &cfg);
        }
    }

    /// Clause 4 (purity): the output is a function of `(cfg, demands,
    /// seq)` alone. Rebuilt with fresh buffers, rebuilt into dirty
    /// buffers, or rebuilt after serving an unrelated snapshot, the
    /// result is identical.
    #[test]
    fn all_policies_are_pure_functions_of_the_snapshot(
        raw in prop::collection::vec(arb_demand(), 1..12),
        other_raw in prop::collection::vec(arb_demand(), 1..12),
        seq in 0u64..1_000,
    ) {
        let cfg = BuilderConfig::default();
        let demands = mk_demands(raw);
        let others = mk_demands(other_raw);
        let mut scratch = PolicyScratch::default();
        let mut out = Schedule::default();
        for policy in registry() {
            let fresh = policy.build(&cfg, &demands, seq);
            // Dirty the scratch and output with an unrelated build, then
            // rebuild the original snapshot into the same buffers.
            policy.build_into(&cfg, &others, seq.wrapping_add(13), &mut scratch, &mut out);
            policy.build_into(&cfg, &demands, seq, &mut scratch, &mut out);
            prop_assert_eq!(
                &out, &fresh,
                "[{}] build_into with dirty buffers diverged from a fresh build",
                policy.name()
            );
            // And a straight repeat is also identical (no hidden state).
            let again = policy.build(&cfg, &demands, seq);
            prop_assert_eq!(&again, &fresh, "[{}] repeated build diverged", policy.name());
        }
    }

    /// Integer-division dust audit at city-scale cell populations: with
    /// 100–1 000 active clients, the proportional split in `fit_shares_
    /// into` loses strictly less than 1 µs per client to truncation, so a
    /// non-saturated schedule's slots cover the whole usable window up to
    /// that dust plus the documented sub-guard tail trim. A re-divide or
    /// rounding change that strands airtime (or drops a client) fails
    /// here long before it would show up as idle air in an experiment.
    #[test]
    fn fit_shares_dust_is_bounded_at_city_scale(
        weights in prop::collection::vec(1u64..50_000_000, 100..1_000),
        seq in 0u64..1_000,
    ) {
        let n = weights.len();
        // City-scale slot geometry: the defaults' 2 ms floor would
        // saturate any sane interval at 1 000 clients.
        let cfg = BuilderConfig {
            min_slot: powerburst_sim::SimDuration::from_us(10),
            guard: powerburst_sim::SimDuration::from_us(5),
            ..BuilderConfig::default()
        };
        let interval = powerburst_sim::SimDuration::from_ms(100);
        let demands: Vec<ClientDemand> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| ClientDemand::new(HostAddr(i as u32 + 1), w, 0, 1_000))
            .collect();
        let sched =
            powerburst_core::PolicyKind::DynamicFixed { interval }.build(&cfg, &demands, seq);
        prop_assert!(!sched.saturated, "{n} clients fit this geometry");
        prop_assert_eq!(sched.entries.len(), n, "one slot per active client");
        check_layout("dust-audit", &sched, &demands, &cfg);
        let usable =
            interval - cfg.schedule_airtime - cfg.guard * (n as u64 + 1);
        let granted: u64 = sched.entries.iter().map(|e| e.duration.as_us()).sum();
        prop_assert!(granted <= usable.as_us(), "shares over-fill: {granted} > {usable}");
        let dust = usable.as_us() - granted;
        prop_assert!(
            dust < n as u64 + cfg.guard.as_us(),
            "stranded airtime {dust} µs exceeds the <1 µs/client + tail-trim bound \
             ({n} clients, guard {})",
            cfg.guard
        );
    }

    /// The schedule wire codec round-trips every policy's output, so any
    /// layout the policies can produce survives broadcast intact.
    #[test]
    fn all_policy_outputs_round_trip_the_wire(
        raw in prop::collection::vec(arb_demand(), 1..10),
        seq in 0u64..1_000,
    ) {
        let cfg = BuilderConfig::default();
        let demands = mk_demands(raw);
        for policy in registry() {
            let sched = policy.build(&cfg, &demands, seq);
            prop_assert_eq!(
                Schedule::decode(&sched.encode()).as_ref(),
                Some(&sched),
                "[{}] encode/decode mangled the schedule",
                policy.name()
            );
        }
    }
}
