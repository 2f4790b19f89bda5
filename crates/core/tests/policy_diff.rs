//! Differential lock-down of the paper's two schedule builders.
//!
//! The `legacy` module below is a **verbatim freeze** of the original
//! `build_fixed` / `build_variable` schedule builders (and their private
//! helpers) exactly as they lived in `crates/core/src/schedule.rs` before
//! schedule construction moved to `crates/core/src/policy.rs`. The tests
//! drive the frozen code and `PolicyKind::{DynamicFixed, DynamicVariable}`
//! over Figure-4/Figure-5-style demand sweeps and require the resulting
//! `Schedule` wire encodings to be **byte-identical** — any restructuring
//! of the policy code must be a pure code motion for the two paper
//! policies, or the golden traces would shift.
//!
//! If a deliberate behavior change to the fixed/variable builders is ever
//! made, this freeze must be updated in the same commit, with the golden
//! traces regenerated — the point is that it can never happen silently.

use powerburst_core::{BuilderConfig, ClientDemand, PolicyKind, PolicyScratch, Schedule};
use powerburst_net::HostAddr;
use powerburst_sim::SimDuration;

/// The pre-refactor builders, frozen. Only the `ClientDemand` fields that
/// existed then (`client`, `udp_bytes + tcp_bytes` via `total()`,
/// `avg_pkt`) are consulted, so the frozen arithmetic is oblivious to the
/// snapshot fields PR 7 added.
mod legacy {
    use powerburst_core::{BuilderConfig, ClientDemand, Schedule, ScheduleEntry};
    use powerburst_net::HostAddr;
    use powerburst_sim::SimDuration;

    pub fn build_fixed(
        interval: SimDuration,
        cfg: &BuilderConfig,
        demands: &[ClientDemand],
        seq: u64,
    ) -> Schedule {
        let active: Vec<&ClientDemand> = demands.iter().filter(|d| d.total() > 0).collect();
        let total_bytes: u64 = active.iter().map(|d| d.total()).sum();
        if active.is_empty() || total_bytes == 0 {
            return Schedule {
                seq,
                entries: Vec::new(),
                next_srp: interval,
                unchanged: false,
                fixed_slots: false,
                saturated: false,
            };
        }
        let overhead = cfg.schedule_airtime + cfg.guard * (active.len() as u64 + 1);
        let usable = interval.saturating_sub(overhead);
        let weights: Vec<u64> = active.iter().map(|d| d.total()).collect();
        let Some(shares) = fit_shares(usable, cfg.min_slot, &weights) else {
            return saturated_round_robin(interval, cfg, demands, seq, false);
        };
        let entries = active.iter().zip(shares).map(|(d, share)| (d.client, share)).collect();
        let mut s = lay_out(entries, cfg, interval, seq);
        clamp_to_interval(&mut s, interval, cfg.guard);
        s
    }

    pub fn build_variable(
        min: SimDuration,
        max: SimDuration,
        cfg: &BuilderConfig,
        demands: &[ClientDemand],
        seq: u64,
    ) -> Schedule {
        let active: Vec<&ClientDemand> = demands.iter().filter(|d| d.total() > 0).collect();
        if active.is_empty() {
            return Schedule {
                seq,
                entries: Vec::new(),
                next_srp: min,
                unchanged: false,
                fixed_slots: false,
                saturated: false,
            };
        }
        let mut slots: Vec<(HostAddr, SimDuration)> = active
            .iter()
            .map(|d| {
                let t = drain_time(cfg, d.total(), d.avg_pkt).max(cfg.min_slot);
                (d.client, t)
            })
            .collect();
        let overhead = cfg.schedule_airtime + cfg.guard * (slots.len() as u64 + 1);
        let needed: SimDuration = slots.iter().fold(overhead, |acc, (_, d)| acc + *d);
        let interval = needed.max(min).min(max);
        if needed > interval {
            let budget = interval.saturating_sub(overhead);
            let weights: Vec<u64> = slots.iter().map(|(_, d)| d.as_us()).collect();
            match fit_shares(budget, cfg.min_slot, &weights) {
                Some(shares) => {
                    for ((_, d), share) in slots.iter_mut().zip(shares) {
                        *d = share;
                    }
                }
                None => return saturated_round_robin(interval, cfg, demands, seq, false),
            }
        }
        let mut s = lay_out(slots, cfg, interval, seq);
        clamp_to_interval(&mut s, interval, cfg.guard);
        s
    }

    fn fit_shares(
        usable: SimDuration,
        min_slot: SimDuration,
        weights: &[u64],
    ) -> Option<Vec<SimDuration>> {
        let n = weights.len() as u64;
        let total: u128 = weights.iter().map(|&w| w as u128).sum();
        let total = total.max(1);
        let prop: Vec<SimDuration> = weights
            .iter()
            .map(|&w| {
                SimDuration::from_us((usable.as_us() as u128 * w as u128 / total) as u64)
                    .max(min_slot)
            })
            .collect();
        let padded: u64 = prop.iter().map(|d| d.as_us()).sum();
        if padded <= usable.as_us() {
            return Some(prop);
        }
        let floors = min_slot.as_us().checked_mul(n)?;
        if floors > usable.as_us() {
            return None;
        }
        let extra = (usable.as_us() - floors) as u128;
        Some(
            weights
                .iter()
                .map(|&w| {
                    SimDuration::from_us(min_slot.as_us() + (extra * w as u128 / total) as u64)
                })
                .collect(),
        )
    }

    fn lay_out(
        entries: Vec<(HostAddr, SimDuration)>,
        cfg: &BuilderConfig,
        next_srp: SimDuration,
        seq: u64,
    ) -> Schedule {
        let mut out = Vec::with_capacity(entries.len());
        let mut cursor = cfg.schedule_airtime + cfg.guard;
        for (client, dur) in entries {
            out.push(ScheduleEntry { client, rp_offset: cursor, duration: dur });
            cursor += dur + cfg.guard;
        }
        Schedule {
            seq,
            entries: out,
            next_srp,
            unchanged: false,
            fixed_slots: false,
            saturated: false,
        }
    }

    fn saturated_round_robin(
        interval: SimDuration,
        cfg: &BuilderConfig,
        demands: &[ClientDemand],
        seq: u64,
        tcp_slot: bool,
    ) -> Schedule {
        let n = demands.len();
        debug_assert!(n > 0, "saturated fallback needs at least one client");
        let per_slot = (cfg.min_slot + cfg.guard).as_us().max(1);
        let lead = cfg.schedule_airtime + cfg.guard;
        let mut avail = interval.saturating_sub(lead + cfg.guard).as_us();
        let mut entries = Vec::new();
        if tcp_slot && avail >= per_slot {
            entries.push((HostAddr::BROADCAST, cfg.min_slot));
            avail -= per_slot;
        }
        let fit = ((avail / per_slot) as usize).min(n).max(usize::from(entries.is_empty()));
        let start = (seq as usize) % n;
        for j in 0..fit {
            entries.push((demands[(start + j) % n].client, cfg.min_slot));
        }
        let mut s = lay_out(entries, cfg, interval, seq);
        clamp_to_interval(&mut s, interval, cfg.guard);
        s.fixed_slots = true;
        s.saturated = true;
        s
    }

    fn clamp_to_interval(s: &mut Schedule, interval: SimDuration, guard: SimDuration) {
        let limit = interval.saturating_sub(guard);
        s.entries.retain(|e| e.rp_offset < limit);
        for e in &mut s.entries {
            let end = e.rp_offset + e.duration;
            if end > limit {
                e.duration = limit.saturating_sub(e.rp_offset);
            }
        }
        s.entries.retain(|e| !e.duration.is_zero());
    }

    fn drain_time(cfg: &BuilderConfig, bytes: u64, avg_pkt: usize) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let avg = avg_pkt.max(64);
        let msgs = bytes.div_ceil(avg as u64);
        SimDuration::from_us(msgs * cfg.bw.send_time(avg).as_us())
    }
}

/// ≈ bytes queued per 100 ms at the paper's effective stream rates.
fn per_interval_bytes(effective_bps: u64, interval_ms: u64) -> u64 {
    effective_bps * interval_ms / 8 / 1_000
}

/// Figure-4-style demand snapshots: ten video clients under the paper's
/// five access patterns, at a given interval's worth of queued bytes.
fn fig4_demands(interval_ms: u64) -> Vec<Vec<ClientDemand>> {
    // Effective rates: 34k / 80k / 225k / 450k bps (§4.1).
    let rates: [(&str, Vec<u64>); 5] = [
        ("56K", vec![34_000; 10]),
        ("256K", vec![225_000; 10]),
        ("512K", vec![450_000; 10]),
        ("56K_512K", {
            let mut v = vec![34_000; 5];
            v.extend([450_000; 5]);
            v
        }),
        (
            "All",
            vec![34_000, 34_000, 34_000, 34_000, 34_000, 34_000, 80_000, 225_000, 450_000, 80_000],
        ),
    ];
    rates
        .into_iter()
        .map(|(_, bps)| {
            bps.into_iter()
                .enumerate()
                .map(|(i, b)| {
                    // Media packets ≈ 728 B; stagger byte counts slightly so
                    // clients are not perfectly symmetric.
                    let bytes = per_interval_bytes(b, interval_ms) + 13 * i as u64;
                    ClientDemand::new(HostAddr(i as u32 + 1), bytes, 0, 728)
                })
                .collect()
        })
        .collect()
}

/// Figure-5-style snapshots: seven video + three web (TCP-demand) clients.
fn fig5_demands(interval_ms: u64) -> Vec<Vec<ClientDemand>> {
    fig4_demands(interval_ms)
        .into_iter()
        .map(|mut demands| {
            demands.truncate(7);
            for j in 0..3u32 {
                let tcp = 4_000 + 2_700 * j as u64;
                demands.push(ClientDemand::new(HostAddr(8 + j), 0, tcp, 1_400));
            }
            demands
        })
        .collect()
}

/// Edge-case snapshots the sweeps would not hit: empty, all-zero, single
/// client, one dominant flow among trickles, and heavy overload.
fn edge_demands() -> Vec<Vec<ClientDemand>> {
    let d = |h: u32, udp: u64, tcp: u64, avg: usize| ClientDemand::new(HostAddr(h), udp, tcp, avg);
    vec![
        vec![],
        vec![d(1, 0, 0, 728), d(2, 0, 0, 728)],
        vec![d(1, 50_000, 0, 728)],
        {
            let mut v = vec![d(1, 9_000_000, 0, 1_400)];
            v.extend((2..12).map(|h| d(h, 40, 0, 64)));
            v
        },
        (1..40).map(|h| d(h, 1_000_000, 250_000, 728)).collect(),
    ]
}

fn all_snapshots(interval_ms: u64) -> Vec<Vec<ClientDemand>> {
    let mut v = fig4_demands(interval_ms);
    v.extend(fig5_demands(interval_ms));
    v.extend(edge_demands());
    v
}

#[test]
fn fixed_policy_is_byte_identical_to_legacy_builder() {
    let cfg = BuilderConfig::default();
    for interval_ms in [100u64, 500] {
        let interval = SimDuration::from_ms(interval_ms);
        for (di, demands) in all_snapshots(interval_ms).into_iter().enumerate() {
            for seq in 0..50u64 {
                let old = legacy::build_fixed(interval, &cfg, &demands, seq);
                let new = PolicyKind::DynamicFixed { interval }.build(&cfg, &demands, seq);
                assert_eq!(
                    old.encode(),
                    new.encode(),
                    "fixed@{interval_ms}ms snapshot #{di} seq {seq}: wire encodings diverged\n\
                     legacy: {old:?}\nrefactored: {new:?}"
                );
            }
        }
    }
}

#[test]
fn variable_policy_is_byte_identical_to_legacy_builder() {
    let cfg = BuilderConfig::default();
    let (min, max) = (SimDuration::from_ms(100), SimDuration::from_ms(500));
    for interval_ms in [100u64, 500] {
        for (di, demands) in all_snapshots(interval_ms).into_iter().enumerate() {
            for seq in 0..50u64 {
                let old = legacy::build_variable(min, max, &cfg, &demands, seq);
                let new = PolicyKind::DynamicVariable { min, max }.build(&cfg, &demands, seq);
                assert_eq!(
                    old.encode(),
                    new.encode(),
                    "variable snapshot #{di}@{interval_ms}ms seq {seq}: wire encodings diverged\n\
                     legacy: {old:?}\nrefactored: {new:?}"
                );
            }
        }
    }
}

/// The allocation-free `build_into` path (what the proxy actually calls,
/// with one scratch and output reused across snapshots) agrees with the
/// legacy builders too.
#[test]
fn policy_kind_dispatch_matches_legacy_builders() {
    let cfg = BuilderConfig::default();
    let interval = SimDuration::from_ms(100);
    let (min, max) = (SimDuration::from_ms(100), SimDuration::from_ms(500));
    let mut scratch = PolicyScratch::default();
    let mut out = Schedule::default();
    for demands in all_snapshots(100) {
        for seq in [0u64, 7, 49] {
            let fixed = PolicyKind::DynamicFixed { interval };
            fixed.build_into(&cfg, &demands, seq, &mut scratch, &mut out);
            assert_eq!(legacy::build_fixed(interval, &cfg, &demands, seq).encode(), out.encode());
            let var = PolicyKind::DynamicVariable { min, max };
            var.build_into(&cfg, &demands, seq, &mut scratch, &mut out);
            assert_eq!(
                legacy::build_variable(min, max, &cfg, &demands, seq).encode(),
                out.encode()
            );
        }
    }
}
