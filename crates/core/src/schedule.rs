//! Schedule data types (the policies that build them live in
//! [`crate::policy`], the wire codec in [`crate::wire`]).
//!
//! §3.2.1: "The proxy broadcasts a schedule message as a UDP packet to all
//! active clients at well-defined intervals. ... The schedule describes the
//! length of each client's data burst and the order of the bursts, so that
//! client *i* is assigned rendezvous point RP_i. ... The schedule will also
//! contain the time at which the following schedule will be broadcast."
//!
//! Seven policies build schedules, one [`crate::policy::PolicyKind`]
//! variant each:
//!
//! * **dynamic / fixed interval** (100 ms, 500 ms): each active client gets
//!   a fraction of the interval proportional to its queue size;
//! * **dynamic / variable interval**: each client gets enough time to empty
//!   its queue, and the interval stretches (within bounds) to fit;
//! * **channel-aware**: fixed interval, but shares are proportional to the
//!   *airtime* a client needs given its Markov channel state;
//! * **buffer-aware**: fixed interval, shares shaped by reported client
//!   playout-buffer occupancy;
//! * **static equal** (§4.3): every client gets the same permanent slot —
//!   the baseline that beats dynamic when all fidelities are equal;
//! * **slotted static TCP/UDP** (Figure 7): a fixed TCP slot during which
//!   *all* clients listen, then equal per-client UDP slots;
//! * **PSM beacon**: the 802.11 power-save-mode baseline.

use powerburst_sim::SimDuration;

use powerburst_net::{ChannelQuality, HostAddr};

use crate::bandwidth::BandwidthModel;

/// One slot in a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// The client this slot belongs to; [`HostAddr::BROADCAST`] means all
    /// clients must listen (the slotted policy's TCP slot).
    pub client: HostAddr,
    /// Rendezvous point: offset from the schedule's transmission.
    pub rp_offset: SimDuration,
    /// Length of the burst.
    pub duration: SimDuration,
}

/// A complete schedule for one burst interval.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Monotone sequence number (burst-interval counter).
    pub seq: u64,
    /// Slots, in rendezvous order.
    pub entries: Vec<ScheduleEntry>,
    /// When the next schedule will be broadcast, relative to this one.
    pub next_srp: SimDuration,
    /// The §5 future-work flag: the next interval will reuse this schedule,
    /// so clients may skip the next SRP wake-up.
    pub unchanged: bool,
    /// Static-policy flag: slots are permanent, so a client may sleep at
    /// its slot's end even if no marked packet arrived (§4.3 static
    /// schedules broadcast "a single (permanent) burst interval").
    pub fixed_slots: bool,
    /// Saturation flag: per-slot overhead ate the whole interval, so this
    /// schedule is a degraded round-robin layout that serves only a subset
    /// of clients this interval (rotating across intervals).
    pub saturated: bool,
}

impl Schedule {
    // The wire codec (`encode` / `encode_checked` / `decode`) lives in
    // [`crate::wire`], an integer-only module policed by lint rule D005.

    /// Slots that apply to `me` (own slots plus all-clients slots).
    pub fn slots_for(&self, me: HostAddr) -> impl Iterator<Item = &ScheduleEntry> {
        self.entries.iter().filter(move |e| e.client == me || e.client.is_broadcast())
    }

    /// True when the two schedules assign identical slots.
    pub fn same_slots(&self, other: &Schedule) -> bool {
        self.entries == other.entries && self.next_srp == other.next_srp
    }

    /// Scale the schedule to a coordinator-granted airtime budget,
    /// expressed in permille of the burst interval. Each slot's duration
    /// is scaled by `permille/1000` (integer math, floored, never below
    /// 1 µs) and the layout is re-packed front-to-front so the guard gaps
    /// stay intact. A grant of ≥ 1000‰ (or an empty schedule) is a no-op,
    /// so single-cell worlds — which never see a coordinator — are
    /// byte-identical to the pre-coordinator code.
    pub fn apply_airtime_budget(
        &mut self,
        permille: u32,
        schedule_airtime: SimDuration,
        guard: SimDuration,
    ) {
        if permille >= 1000 || self.entries.is_empty() {
            return;
        }
        let mut cursor = schedule_airtime + guard;
        for e in &mut self.entries {
            let scaled = (e.duration.as_us() * permille as u64 / 1000).max(1);
            e.duration = SimDuration::from_us(scaled);
            e.rp_offset = cursor;
            cursor = cursor + e.duration + guard;
        }
    }
}

/// Per-client demand snapshot taken at schedule-construction time
/// ("examining a snapshot of the packet queues for all clients").
#[derive(Debug, Clone, Copy)]
pub struct ClientDemand {
    /// The client.
    pub client: HostAddr,
    /// Queued UDP wire bytes.
    pub udp_bytes: u64,
    /// Buffered TCP payload bytes awaiting burst.
    pub tcp_bytes: u64,
    /// Mean queued packet size (for per-message overhead estimation).
    pub avg_pkt: usize,
    /// Current Markov channel state of the client's radio link; `Good`
    /// (the paper's fixed-rate assumption) unless a channel model feeds
    /// the snapshot. Only the channel-aware policy reads this.
    pub channel: ChannelQuality,
    /// Client-reported playout-buffer occupancy, bytes; `None` until the
    /// client sends a buffer-extended receiver report. Only the
    /// buffer-aware policy reads this.
    pub buffer_bytes: Option<u64>,
}

impl ClientDemand {
    /// A demand snapshot with the default channel state (Good) and no
    /// buffer report — exactly the paper's information set.
    pub fn new(client: HostAddr, udp_bytes: u64, tcp_bytes: u64, avg_pkt: usize) -> ClientDemand {
        ClientDemand {
            client,
            udp_bytes,
            tcp_bytes,
            avg_pkt,
            channel: ChannelQuality::Good,
            buffer_bytes: None,
        }
    }

    /// Total queued bytes.
    pub fn total(&self) -> u64 {
        self.udp_bytes + self.tcp_bytes
    }
}

/// Schedule construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct BuilderConfig {
    /// Estimated airtime of the schedule broadcast itself.
    pub schedule_airtime: SimDuration,
    /// Guard gap inserted between slots.
    pub guard: SimDuration,
    /// Smallest slot worth scheduling.
    pub min_slot: SimDuration,
    /// The send-cost model used to convert bytes to slot time.
    pub bw: BandwidthModel,
}

impl Default for BuilderConfig {
    fn default() -> Self {
        BuilderConfig {
            schedule_airtime: SimDuration::from_ms(2),
            guard: SimDuration::from_ms(1),
            min_slot: SimDuration::from_ms(2),
            bw: BandwidthModel::DEFAULT_11MBPS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    fn demand(host: u32, udp: u64, tcp: u64) -> ClientDemand {
        ClientDemand::new(HostAddr(host), udp, tcp, 1_000)
    }

    fn cfg() -> BuilderConfig {
        BuilderConfig::default()
    }

    // Wire codec tests live in `crate::wire`.

    /// Regression for the PSM window estimate: the old code took the *max*
    /// of `avg_pkt` across demands and fed it to `drain_time` as if it
    /// were the mean. Fewer, bigger messages means fewer per-message
    /// `alpha` overheads, so with a mixed 56/512 kbps client set the max
    /// mis-reserves the shared window (shorter than the true per-demand
    /// drain time); the demand-weighted mean lands closer to truth.
    #[test]
    fn psm_window_uses_demand_weighted_mean_pkt_size() {
        let c = cfg();
        // 56 kbps stream: small packets; 512 kbps stream: near-MTU packets.
        let d56 = ClientDemand::new(HostAddr(1), 7_000, 0, 350);
        let d512 = ClientDemand::new(HostAddr(2), 64_000, 0, 1_400);
        let demands = [d56, d512];
        let total: u64 = demands.iter().map(|d| d.total()).sum();

        // Ground truth: drain each queue at its own packet size.
        let exact_us: u64 = demands
            .iter()
            .map(|d| crate::policy::drain_time(&c, d.total(), d.avg_pkt).as_us())
            .sum();
        let old_max = demands.iter().map(|d| d.avg_pkt).max().unwrap();
        let old_us = crate::policy::drain_time(&c, total, old_max).as_us();
        let new_us =
            crate::policy::drain_time(&c, total, crate::policy::weighted_avg_pkt(&demands)).as_us();

        assert!(old_us < exact_us, "max-based estimate mis-reserves: {old_us} vs exact {exact_us}");
        assert!(
            exact_us.abs_diff(new_us) < exact_us.abs_diff(old_us),
            "weighted mean ({new_us}µs) must beat the max ({old_us}µs) against exact ({exact_us}µs)"
        );

        // And the built schedule actually reserves the larger window
        // (interval chosen big enough that no clamping hides the fix).
        let s =
            PolicyKind::PsmBeacon { interval: SimDuration::from_secs(1) }.build(&c, &demands, 0);
        assert_eq!(s.entries.len(), 1);
        assert_eq!(s.entries[0].duration.as_us(), new_us);
    }

    #[test]
    fn static_saturates_gracefully_when_overhead_exceeds_interval() {
        let interval = SimDuration::from_ms(5);
        let demands: Vec<ClientDemand> = (0..10).map(|i| demand(i, 1_000, 0)).collect();
        // Overhead alone (2 ms airtime + 11 guards) dwarfs the 5 ms
        // interval; the old integer division handed all 10 clients
        // zero-length slots and emitted every entry anyway.
        let s = PolicyKind::StaticEqual { interval }.build(&cfg(), &demands, 0);
        assert!(s.saturated, "schedule must be flagged saturated");
        assert!(!s.entries.is_empty(), "at least one client is served per interval");
        assert!(s.entries.iter().all(|e| !e.duration.is_zero()), "no zero-length slots");
        assert!(s.entries.len() < demands.len(), "only a subset fits when saturated");

        // The round-robin rotates with the sequence number so every
        // client is eventually served.
        let s1 = PolicyKind::StaticEqual { interval }.build(&cfg(), &demands, 1);
        assert_ne!(s.entries[0].client, s1.entries[0].client, "rotation by seq");

        // The flag survives the wire.
        assert!(Schedule::decode(&s.encode()).unwrap().saturated);
    }

    #[test]
    fn slotted_saturates_gracefully_and_keeps_tcp_slot() {
        let interval = SimDuration::from_ms(30);
        let demands: Vec<ClientDemand> = (0..40).map(|i| demand(i, 1_000, 0)).collect();
        let s = PolicyKind::SlottedStatic { interval, tcp_weight: 0.33 }.build(&cfg(), &demands, 0);
        assert!(s.saturated);
        assert!(!s.entries.is_empty());
        assert!(s.entries[0].client.is_broadcast(), "TCP slot survives saturation");
        assert!(s.entries.iter().all(|e| !e.duration.is_zero()));
        let end = s.entries.last().map(|e| e.rp_offset + e.duration).unwrap();
        assert!(end <= interval, "saturated layout still fits the interval");
    }

    #[test]
    fn fixed_slots_proportional_to_queues() {
        let s = PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) }.build(
            &cfg(),
            &[demand(1, 30_000, 0), demand(2, 10_000, 0)],
            0,
        );
        assert_eq!(s.entries.len(), 2);
        let d1 = s.entries[0].duration.as_us() as f64;
        let d2 = s.entries[1].duration.as_us() as f64;
        assert!((d1 / d2 - 3.0).abs() < 0.2, "ratio {}", d1 / d2);
        assert_eq!(s.next_srp, SimDuration::from_ms(100));
    }

    /// Regression for the mixed-fidelity `missing-client` violations: one
    /// dominant queue plus many tiny ones made min_slot padding overflow
    /// the usable interval, and `clamp_to_interval` then dropped whichever
    /// active client was laid out last.
    #[test]
    fn fixed_keeps_every_active_client_under_min_slot_pressure() {
        let mut c = cfg();
        c.min_slot = SimDuration::from_ms(4); // the proxy's default, not the builder's
        let interval = SimDuration::from_ms(100);
        let mut demands = vec![demand(0, 500_000, 0)];
        for i in 1..10 {
            demands.push(demand(i, 300, 0));
        }
        let s = PolicyKind::DynamicFixed { interval }.build(&c, &demands, 0);
        assert!(!s.saturated, "floors fit: 10 × 4 ms within 100 ms");
        for d in &demands {
            assert!(
                s.entries.iter().any(|e| e.client == d.client),
                "active client {} lost its slot: {:?}",
                d.client.0,
                s.entries
            );
        }
        let end = s.entries.last().map(|e| e.rp_offset + e.duration).unwrap();
        assert!(end <= interval, "layout spills past the SRP: {end}");
        assert!(s.entries.iter().all(|e| e.duration >= SimDuration::from_ms(3)), "floors hold");
    }

    #[test]
    fn fixed_saturates_when_even_floors_do_not_fit() {
        let mut c = cfg();
        c.min_slot = SimDuration::from_ms(4);
        let interval = SimDuration::from_ms(20);
        let demands: Vec<ClientDemand> = (0..10).map(|i| demand(i, 1_000, 0)).collect();
        let s = PolicyKind::DynamicFixed { interval }.build(&c, &demands, 0);
        assert!(s.saturated, "10 × 4 ms floors cannot fit 20 ms");
        assert!(!s.entries.is_empty());
        assert!(s.entries.iter().all(|e| !e.duration.is_zero()));
    }

    #[test]
    fn variable_overload_keeps_every_active_client() {
        let mut c = cfg();
        c.min_slot = SimDuration::from_ms(4);
        let mut demands = vec![demand(0, 2_000_000, 0)];
        for i in 1..10 {
            demands.push(demand(i, 300, 0));
        }
        let s = PolicyKind::DynamicVariable {
            min: SimDuration::from_ms(100),
            max: SimDuration::from_ms(500),
        }
        .build(&c, &demands, 0);
        for d in &demands {
            assert!(
                s.entries.iter().any(|e| e.client == d.client),
                "active client {} lost its slot under overload",
                d.client.0
            );
        }
        let end = s.entries.last().map(|e| e.rp_offset + e.duration).unwrap();
        assert!(end <= s.next_srp, "layout spills past the SRP: {end}");
    }

    #[test]
    fn fixed_skips_idle_clients() {
        let s = PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) }.build(
            &cfg(),
            &[demand(1, 0, 0), demand(2, 5_000, 0)],
            0,
        );
        assert_eq!(s.entries.len(), 1);
        assert_eq!(s.entries[0].client, HostAddr(2));
    }

    #[test]
    fn slots_never_overlap_and_fit_interval() {
        for interval_ms in [100u64, 500] {
            let demands: Vec<ClientDemand> =
                (0..10).map(|i| demand(i, 1_000 * (i as u64 + 1), 0)).collect();
            let s = PolicyKind::DynamicFixed { interval: SimDuration::from_ms(interval_ms) }.build(
                &cfg(),
                &demands,
                0,
            );
            let mut cursor = SimDuration::ZERO;
            for e in &s.entries {
                assert!(e.rp_offset >= cursor, "overlap at {:?}", e);
                cursor = e.rp_offset + e.duration;
            }
            assert!(cursor <= SimDuration::from_ms(interval_ms), "spill {cursor}");
        }
    }

    #[test]
    fn variable_interval_tracks_demand() {
        let small = PolicyKind::DynamicVariable {
            min: SimDuration::from_ms(100),
            max: SimDuration::from_ms(500),
        }
        .build(&cfg(), &[demand(1, 2_000, 0)], 0);
        assert_eq!(small.next_srp, SimDuration::from_ms(100), "clamped up to min");
        let big = PolicyKind::DynamicVariable {
            min: SimDuration::from_ms(100),
            max: SimDuration::from_ms(500),
        }
        .build(&cfg(), &[demand(1, 120_000, 0), demand(2, 120_000, 0)], 0);
        assert!(big.next_srp > SimDuration::from_ms(100));
        assert!(big.next_srp <= SimDuration::from_ms(500));
    }

    #[test]
    fn variable_overload_scales_slots_down() {
        let s = PolicyKind::DynamicVariable {
            min: SimDuration::from_ms(100),
            max: SimDuration::from_ms(500),
        }
        .build(&cfg(), &(0..10).map(|i| demand(i, 500_000, 0)).collect::<Vec<_>>(), 0);
        assert_eq!(s.next_srp, SimDuration::from_ms(500));
        let end = s.entries.last().map(|e| e.rp_offset + e.duration).unwrap();
        assert!(end <= SimDuration::from_ms(500));
    }

    #[test]
    fn static_equal_gives_every_client_a_slot() {
        let s = PolicyKind::StaticEqual { interval: SimDuration::from_ms(100) }.build(
            &cfg(),
            &[demand(1, 0, 0), demand(2, 9_999, 0), demand(3, 5, 0)],
            0,
        );
        assert_eq!(s.entries.len(), 3);
        let d0 = s.entries[0].duration;
        assert!(s.entries.iter().all(|e| e.duration == d0), "equal slots");
    }

    #[test]
    fn static_schedules_are_identical_across_intervals() {
        let demands = [demand(1, 100, 0), demand(2, 50_000, 0)];
        let a = PolicyKind::StaticEqual { interval: SimDuration::from_ms(100) }.build(
            &cfg(),
            &demands,
            0,
        );
        let b = PolicyKind::StaticEqual { interval: SimDuration::from_ms(100) }.build(
            &cfg(),
            &[demand(1, 999_999, 0), demand(2, 0, 0)],
            1,
        );
        assert!(a.same_slots(&b), "static layout ignores demand");
    }

    #[test]
    fn slotted_static_has_tcp_slot_first() {
        let s = PolicyKind::SlottedStatic { interval: SimDuration::from_ms(500), tcp_weight: 0.33 }
            .build(&cfg(), &(0..4).map(|i| demand(i, 1_000, 0)).collect::<Vec<_>>(), 0);
        assert_eq!(s.entries.len(), 5);
        assert!(s.entries[0].client.is_broadcast());
        let tcp = s.entries[0].duration.as_us() as f64;
        let total_usable: f64 = s.entries.iter().map(|e| e.duration.as_us() as f64).sum();
        let w = tcp / total_usable;
        assert!((w - 0.33).abs() < 0.05, "tcp weight {w}");
    }

    #[test]
    fn slots_for_includes_broadcast() {
        let s = PolicyKind::SlottedStatic { interval: SimDuration::from_ms(500), tcp_weight: 0.10 }
            .build(&cfg(), &[demand(1, 0, 0), demand(2, 0, 0)], 0);
        let mine: Vec<_> = s.slots_for(HostAddr(1)).collect();
        assert_eq!(mine.len(), 2, "own slot + broadcast TCP slot");
    }

    #[test]
    fn airtime_budget_scales_and_repacks_slots() {
        let c = cfg();
        let interval = SimDuration::from_ms(100);
        let demands: Vec<ClientDemand> = (0..4).map(|i| demand(i, 20_000, 0)).collect();
        let full = PolicyKind::DynamicFixed { interval }.build(&c, &demands, 0);
        let mut half = full.clone();
        half.apply_airtime_budget(500, c.schedule_airtime, c.guard);

        assert_eq!(half.entries.len(), full.entries.len(), "no client loses its slot");
        let mut cursor = c.schedule_airtime + c.guard;
        for (h, f) in half.entries.iter().zip(&full.entries) {
            assert_eq!(h.client, f.client);
            assert_eq!(h.duration.as_us(), f.duration.as_us() / 2, "durations halve");
            assert_eq!(h.rp_offset, cursor, "layout re-packed front-to-front");
            cursor = cursor + h.duration + c.guard;
        }
        let end = half.entries.last().map(|e| e.rp_offset + e.duration).unwrap();
        assert!(end <= interval, "budgeted layout still fits the interval");

        // A full grant is exactly a no-op.
        let mut unscaled = full.clone();
        unscaled.apply_airtime_budget(1000, c.schedule_airtime, c.guard);
        assert_eq!(unscaled, full);

        // A zero grant floors at 1 µs rather than emitting zero slots.
        let mut zero = full.clone();
        zero.apply_airtime_budget(0, c.schedule_airtime, c.guard);
        assert!(zero.entries.iter().all(|e| e.duration == SimDuration::from_us(1)));
    }

    #[test]
    fn empty_demands_yield_empty_schedule() {
        let s =
            PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) }.build(&cfg(), &[], 3);
        assert!(s.entries.is_empty());
        assert_eq!(s.seq, 3);
    }
}
