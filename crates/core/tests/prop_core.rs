//! Property tests for the proxy's core pieces: the marking protocol's
//! invariant, schedule wire-format round trips, and slot-layout safety for
//! arbitrary demand vectors.

use proptest::prelude::*;

use powerburst_core::{
    BuilderConfig, ClientDemand, MarkCoordinator, PolicyKind, Schedule, ScheduleEntry,
};
use powerburst_net::HostAddr;
use powerburst_sim::SimDuration;

proptest! {
    /// §3.2.2 invariant: `forwarded ≤ sent` holds for any interleaving of
    /// burst/forward operations, and each end_burst yields at most one mark.
    #[test]
    fn marking_invariant_and_single_mark(
        bursts in prop::collection::vec(1u64..10_000, 1..20),
    ) {
        let mut mc = MarkCoordinator::new();
        let mut queued = 0u64;
        let mut forwarded = 0u64;
        for &b in &bursts {
            mc.on_burst_bytes(b);
            queued += b;
            let m = mc.end_burst();
            prop_assert_eq!(m, Some(queued));
            // Forward in odd-sized chunks; exactly one chunk must mark.
            let mut marks = 0;
            while forwarded < queued {
                let n = ((queued - forwarded) / 2).max(1);
                if mc.on_forward(n) {
                    marks += 1;
                }
                forwarded += n;
                let (s, f, _) = mc.snapshot();
                prop_assert!(f <= s, "invariant violated: f={f} s={s}");
            }
            prop_assert_eq!(marks, 1, "exactly one mark per fully-forwarded burst");
        }
    }

    /// Schedule encode/decode is the identity for arbitrary schedules.
    #[test]
    fn schedule_round_trips(
        seq in 0u64..u64::MAX,
        unchanged in any::<bool>(),
        fixed_slots in any::<bool>(),
        saturated in any::<bool>(),
        next_srp_us in 0u64..10_000_000,
        entries in prop::collection::vec(
            (0u32..1_000, 0u64..4_000_000, 0u64..4_000_000),
            0..30,
        ),
    ) {
        let s = Schedule {
            seq,
            entries: entries
                .into_iter()
                .map(|(h, rp, d)| ScheduleEntry {
                    client: HostAddr(h),
                    rp_offset: SimDuration::from_us(rp),
                    duration: SimDuration::from_us(d),
                })
                .collect(),
            next_srp: SimDuration::from_us(next_srp_us),
            unchanged,
            fixed_slots,
            saturated,
        };
        prop_assert_eq!(Schedule::decode(&s.encode()), Some(s));
    }

    /// For any demand vector and policy, slots never overlap, never spill
    /// past the interval, and rendezvous points are strictly ordered.
    #[test]
    fn slots_never_overlap(
        demands in prop::collection::vec((0u64..2_000_000, 0u64..500_000), 1..16),
        policy_idx in 0usize..4,
        interval_ms in 50u64..1_000,
        tcp_weight in 0.05f64..0.9,
    ) {
        let demands: Vec<ClientDemand> = demands
            .into_iter()
            .enumerate()
            .map(|(i, (udp, tcp))| ClientDemand::new(HostAddr(i as u32 + 1), udp, tcp, 1_000))
            .collect();
        let policy = match policy_idx {
            0 => PolicyKind::DynamicFixed { interval: SimDuration::from_ms(interval_ms) },
            1 => PolicyKind::DynamicVariable {
                min: SimDuration::from_ms(100),
                max: SimDuration::from_ms(500),
            },
            2 => PolicyKind::StaticEqual { interval: SimDuration::from_ms(interval_ms) },
            _ => PolicyKind::SlottedStatic {
                interval: SimDuration::from_ms(interval_ms.max(100)),
                tcp_weight,
            },
        };
        let sched = policy.build(&BuilderConfig::default(), &demands, 0);
        let mut cursor = SimDuration::ZERO;
        for e in &sched.entries {
            prop_assert!(e.rp_offset >= cursor, "slot overlap at {:?}", e);
            cursor = e.rp_offset + e.duration;
        }
        prop_assert!(
            cursor <= sched.next_srp,
            "layout {} spills past interval {}",
            cursor,
            sched.next_srp
        );
        // Dynamic policies: every positive demand gets a slot unless the
        // interval is saturated (slots were clamped away).
        if policy_idx == 0 {
            for d in demands.iter().filter(|d| d.total() > 0) {
                let has = sched.entries.iter().any(|e| e.client == d.client);
                let saturated = cursor
                    >= SimDuration::from_ms(interval_ms).saturating_sub(SimDuration::from_ms(5));
                prop_assert!(has || saturated, "demand {:?} lost a slot", d.client);
            }
        }
    }
}
