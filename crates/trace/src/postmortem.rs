//! Postmortem energy/loss analysis — the paper's measurement methodology.
//!
//! §3.1: "We collect a trace of the wireless-side activity using a packet
//! sniffer running on a mobile computer known as the monitoring station.
//! This trace is read by a simulator postmortem in order to determine
//! energy used per client. This is compared to the total energy used by a
//! naive client, which keeps its WNIC in high-power mode for the duration
//! of the trace."
//!
//! [`analyze_client`] replays the captured trace through the client power
//! policy ([`powerburst_core::client_policy`], the state machine the live
//! daemon drives too) and integrates WNIC energy over the resulting mode
//! timeline. Frames that arrive while the replayed client is asleep are
//! the "packets lost" the paper reports (§4.3).

use powerburst_core::{Action, ClientPolicy, PolicyStats, PolicyTimer, Schedule};
use powerburst_energy::{naive_energy_mj, CardSpec, Wnic};
use powerburst_net::{ports, Delivery, HostAddr, SnifferRecord};
use powerburst_sim::{EventId, EventQueue, SimDuration, SimTime};

pub use powerburst_core::PolicyParams;

/// Result of replaying one client against the trace.
#[derive(Debug, Clone, Copy)]
pub struct PostmortemReport {
    /// Energy under the power policy, millijoules.
    pub energy_mj: f64,
    /// Energy of the naive (always high-power) client, millijoules.
    pub naive_mj: f64,
    /// Fraction of energy saved versus naive.
    pub saved: f64,
    /// Time asleep.
    pub sleep: SimDuration,
    /// Time awake (incl. wake transitions).
    pub awake: SimDuration,
    /// Sleep→idle transitions.
    pub transitions: u64,
    /// Unicast frames addressed to the client that it received.
    pub delivered: u64,
    /// Unicast frames addressed to the client that arrived while asleep.
    pub missed: u64,
    /// Frames dropped at the AP queue before ever reaching the air.
    pub ap_drops: u64,
    /// Schedule broadcasts received.
    pub schedules_seen: u64,
    /// Scheduled SRP wake-ups where no schedule arrived.
    pub schedules_missed: u64,
    /// SRP wake-ups skipped under the §5 unchanged optimization.
    pub skipped_srp_wakes: u64,
    /// Awake time spent waiting for predicted packets ("Early", Fig. 6).
    pub early_wait: SimDuration,
    /// Awake time caused by missed schedules ("MissedSched", Fig. 6).
    pub missed_sched_wait: SimDuration,
    /// Payload-ish bytes delivered (wire bytes of received data frames).
    pub bytes_delivered: u64,
}

impl PostmortemReport {
    /// Missed fraction of addressed frames.
    pub fn loss_fraction(&self) -> f64 {
        let total = self.delivered + self.missed;
        if total == 0 {
            return 0.0;
        }
        self.missed as f64 / total as f64
    }

    /// Energy (mJ) wasted on early waits, relative to sleeping instead.
    pub fn early_waste_mj(&self, card: &CardSpec) -> f64 {
        (card.idle_mw - card.sleep_mw) * self.early_wait.as_secs_f64()
    }

    /// Energy (mJ) wasted on missed schedules, relative to sleeping.
    pub fn missed_waste_mj(&self, card: &CardSpec) -> f64 {
        (card.idle_mw - card.sleep_mw) * self.missed_sched_wait.as_secs_f64()
    }
}

/// The replay: the client policy driven by sniffer records and its own
/// timer queue, with the WNIC and the accounting the policy does not keep.
struct Replay {
    policy: ClientPolicy,
    stats: PolicyStats,
    client: HostAddr,
    wnic: Wnic,
    timers: EventQueue<PolicyTimer>,
    /// Handles of the timers armed for the plan in force.
    plan: Vec<EventId>,
    /// Recycled schedule buffer for broadcast decodes.
    sched: Schedule,
    delivered: u64,
    missed: u64,
    ap_drops: u64,
    bytes_delivered: u64,
    naive_rx_airtime: SimDuration,
}

impl Replay {
    /// Carry out the policy's actions at `t`.
    fn drive(&mut self, t: SimTime) {
        for a in self.policy.actions() {
            match a {
                Action::Wake => self.wnic.wake(t),
                Action::Sleep => self.wnic.sleep(t),
                Action::Arm(at, timer) => self.plan.push(self.timers.push(at, timer)),
                Action::CancelPlan => {
                    for id in self.plan.drain(..) {
                        self.timers.cancel(id);
                    }
                }
                Action::Waited(..) => {}
            }
        }
    }

    /// Fire the policy timers due at or before `t`.
    fn fire_timers(&mut self, t: SimTime) {
        while self.timers.peek_time().is_some_and(|at| at <= t) {
            let (at, timer) = self.timers.pop().expect("peeked");
            self.policy.on_timer(at, timer, &mut self.stats);
            self.drive(at);
        }
    }

    fn on_record(&mut self, rec: &SnifferRecord) {
        let t = rec.t;
        if rec.delivery == Delivery::QueueDrop {
            if rec.dst.host == self.client {
                self.ap_drops += 1;
            }
            return;
        }
        if rec.src.host == self.client {
            // The client's own uplink (ACKs, receiver reports): billed as
            // transmit energy for both the policy and the naive client.
            self.wnic.on_transmit(t, rec.airtime);
            return;
        }
        if rec.delivery == Delivery::Broadcast {
            // Naive client hears broadcasts too.
            self.naive_rx_airtime += rec.airtime;
            if self.wnic.is_listening(t) {
                self.wnic.on_receive(t, rec.airtime);
                if rec.dst.port != ports::SCHEDULE {
                    return;
                }
                if Schedule::decode_into(&rec.payload, &mut self.sched) {
                    self.policy.on_schedule(t, t.as_us() as i64, &self.sched, &mut self.stats);
                    self.drive(t);
                }
            }
            return;
        }
        if rec.dst.host == self.client {
            self.naive_rx_airtime += rec.airtime;
            if self.wnic.is_listening(t) {
                self.delivered += 1;
                self.bytes_delivered += rec.wire_size as u64;
                self.wnic.on_receive(t, rec.airtime);
                self.policy.on_frame(t, rec.tos_mark, &mut self.stats);
                self.drive(t);
            } else {
                self.missed += 1;
            }
        }
    }
}

/// Replay `records` (time-ordered) for `client`, ending the billing window
/// at `run_end`.
pub fn analyze_client(
    records: &[SnifferRecord],
    client: HostAddr,
    run_end: SimTime,
    p: &PolicyParams,
) -> PostmortemReport {
    let card = CardSpec::WAVELAN_DSSS;
    let mut r = Replay {
        policy: ClientPolicy::new(client, *p),
        stats: PolicyStats::default(),
        client,
        wnic: Wnic::new(card),
        timers: EventQueue::new(),
        plan: Vec::new(),
        sched: Schedule::default(),
        delivered: 0,
        missed: 0,
        ap_drops: 0,
        bytes_delivered: 0,
        naive_rx_airtime: SimDuration::ZERO,
    };
    for rec in records {
        r.fire_timers(rec.t);
        r.on_record(rec);
    }
    r.fire_timers(run_end);
    r.policy.close(run_end, &mut r.stats);
    let energy = r.wnic.report_at(run_end);
    let naive = naive_energy_mj(&card, run_end.since(SimTime::ZERO), r.naive_rx_airtime, energy.tx);
    PostmortemReport {
        energy_mj: energy.total_mj,
        naive_mj: naive,
        saved: if naive > 0.0 { 1.0 - energy.total_mj / naive } else { 0.0 },
        sleep: energy.sleep,
        awake: energy.awake + energy.waking,
        transitions: energy.wake_transitions,
        delivered: r.delivered,
        missed: r.missed,
        ap_drops: r.ap_drops,
        schedules_seen: r.stats.schedules_received,
        schedules_missed: r.stats.schedules_missed,
        skipped_srp_wakes: r.stats.skipped_srp_wakes,
        early_wait: r.stats.early_wait,
        missed_sched_wait: r.stats.missed_sched_wait,
        bytes_delivered: r.bytes_delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use powerburst_core::{Schedule, ScheduleEntry};
    use powerburst_net::{Packet, SockAddr};

    const CLIENT: HostAddr = HostAddr(10);
    const PROXY: HostAddr = HostAddr(1);

    fn sched_record(t: SimTime, sched: &Schedule) -> SnifferRecord {
        let pkt = Packet::udp(
            0,
            SockAddr::new(PROXY, ports::SCHEDULE),
            SockAddr::new(HostAddr::BROADCAST, ports::SCHEDULE),
            sched.encode(),
        );
        SnifferRecord::of(t, &pkt, SimDuration::from_us(1_000), Delivery::Broadcast)
    }

    fn data_record(t: SimTime, mark: bool) -> SnifferRecord {
        let mut pkt = Packet::udp(
            0,
            SockAddr::new(PROXY, 554),
            SockAddr::new(CLIENT, 554),
            Bytes::from(vec![0u8; 500]),
        );
        pkt.tos_mark = mark;
        SnifferRecord::of(t, &pkt, SimDuration::from_us(1_300), Delivery::Delivered)
    }

    fn simple_schedule(rp_ms: u64, dur_ms: u64, interval_ms: u64) -> Schedule {
        Schedule {
            seq: 0,
            entries: vec![ScheduleEntry {
                client: CLIENT,
                rp_offset: SimDuration::from_ms(rp_ms),
                duration: SimDuration::from_ms(dur_ms),
            }],
            next_srp: SimDuration::from_ms(interval_ms),
            unchanged: false,
            fixed_slots: false,
            saturated: false,
        }
    }

    /// Build a well-behaved periodic trace: schedule every 100ms, a small
    /// burst (2 packets, second marked) a few ms after each schedule.
    fn periodic_trace(intervals: u64) -> Vec<SnifferRecord> {
        let mut recs = Vec::new();
        let mut sched = simple_schedule(10, 10, 100);
        for k in 0..intervals {
            sched.seq = k;
            let t0 = SimTime::from_ms(5 + 100 * k);
            recs.push(sched_record(t0, &sched));
            recs.push(data_record(t0 + SimDuration::from_ms(10), false));
            recs.push(data_record(t0 + SimDuration::from_ms(12), true));
        }
        recs
    }

    #[test]
    fn well_behaved_trace_saves_energy_and_loses_nothing() {
        let recs = periodic_trace(50);
        let end = SimTime::from_ms(5 + 100 * 50);
        let rep = analyze_client(&recs, CLIENT, end, &PolicyParams::default());
        assert_eq!(rep.missed, 0, "no losses on a punctual trace");
        assert_eq!(rep.delivered, 100);
        assert_eq!(rep.schedules_seen, 50);
        assert_eq!(rep.schedules_missed, 0);
        assert!(rep.saved > 0.5, "saved {}", rep.saved);
        assert!(rep.sleep > rep.awake, "mostly asleep");
        assert!(rep.transitions >= 50, "wakes for schedule + burst");
    }

    #[test]
    fn naive_exceeds_policy_energy() {
        let recs = periodic_trace(20);
        let end = SimTime::from_ms(5 + 100 * 20);
        let rep = analyze_client(&recs, CLIENT, end, &PolicyParams::default());
        assert!(rep.naive_mj > rep.energy_mj);
    }

    #[test]
    fn late_schedule_causes_miss_and_waste() {
        let mut recs = Vec::new();
        let mut sched = simple_schedule(10, 10, 100);
        // Two punctual intervals (with data bursts), then the third
        // schedule arrives 60ms late.
        for k in 0..2u64 {
            sched.seq = k;
            let t0 = SimTime::from_ms(5 + 100 * k);
            recs.push(sched_record(t0, &sched));
            recs.push(data_record(t0 + SimDuration::from_ms(10), false));
            recs.push(data_record(t0 + SimDuration::from_ms(12), true));
        }
        sched.seq = 2;
        recs.push(sched_record(SimTime::from_ms(5 + 200 + 60), &sched));
        // End the window before the post-recovery SRP would fire, so the
        // end-of-trace tail doesn't register as a second miss.
        let rep = analyze_client(&recs, CLIENT, SimTime::from_ms(300), &PolicyParams::default());
        assert_eq!(rep.schedules_missed, 1);
        assert!(rep.missed_sched_wait >= SimDuration::from_ms(30));
    }

    #[test]
    fn data_while_asleep_is_missed() {
        let mut recs = periodic_trace(3);
        // Inject a stray packet mid-sleep (t=80ms into interval 0: the
        // client slept after its 17ms mark and wakes ~97ms).
        recs.push(data_record(SimTime::from_ms(60), false));
        recs.sort_by_key(|r| r.t);
        let rep = analyze_client(&recs, CLIENT, SimTime::from_ms(305), &PolicyParams::default());
        assert_eq!(rep.missed, 1);
        assert!(rep.loss_fraction() > 0.0);
    }

    #[test]
    fn zero_early_transition_wastes_less_when_punctual() {
        let recs = periodic_trace(50);
        let end = SimTime::from_ms(5 + 100 * 50);
        let p0 = PolicyParams { early_transition: SimDuration::ZERO, ..PolicyParams::default() };
        let p8 =
            PolicyParams { early_transition: SimDuration::from_ms(8), ..PolicyParams::default() };
        let r0 = analyze_client(&recs, CLIENT, end, &p0);
        let r8 = analyze_client(&recs, CLIENT, end, &p8);
        // On a perfectly punctual trace, waking earlier only wastes energy.
        assert!(r0.early_wait < r8.early_wait);
        assert!(r0.energy_mj < r8.energy_mj);
    }

    #[test]
    fn empty_trace_is_all_naive() {
        let rep = analyze_client(&[], CLIENT, SimTime::from_secs(10), &PolicyParams::default());
        // Never synced: stays awake the whole run, saving nothing.
        assert_eq!(rep.sleep, SimDuration::ZERO);
        assert!(rep.saved.abs() < 1e-9);
    }
}
