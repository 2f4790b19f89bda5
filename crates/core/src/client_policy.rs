//! The client power policy (§3.2–3.3), as one sans-IO state machine.
//!
//! §3.2.1: "The client must also read the UDP broadcast packet from the
//! proxy, which contains its rendezvous point as well as the arrival time
//! of the next schedule. The client can turn off its WNIC until its
//! rendezvous point is reached ... After the client receives its burst, it
//! transitions the WNIC back to low-power mode until the next schedule
//! packet is due."
//!
//! [`ClientPolicy`] takes three inputs — a schedule heard, a unicast frame
//! for this client heard (marked or not), one of its timers fired — and
//! answers each with [`Action`]s: wake, sleep, arm a timer, cancel the
//! plan. It owns no clock, queue or radio. Two callers run it: the live
//! daemon (`powerburst-client`, through the node context) and the
//! postmortem replay of a sniffer trace (`powerburst-trace`, through its
//! own event queue, the paper's §3.1 method). A caller cancels a plan by
//! the handles of the timers it armed for it.
//!
//! The rules:
//!
//! * **Adaptive delay compensation** (§3.3): every wake-up is measured
//!   from the arrival of the schedule that planned it, and leads the
//!   predicted instant by an *early-transition amount* plus the card's
//!   wake transition. An arrival clearly later than the previous schedule
//!   predicted is an AP-delay spike: the prediction is used instead, so
//!   one spike does not shift a whole interval late;
//! * **fixed anchor** (ablation A4): wake-ups extrapolated from the first
//!   schedule on the caller's clock, so clock drift accumulates;
//! * **packet-ordering rules** (§3.2.2): a schedule arriving before the
//!   current burst's marked frame is deferred until the mark; data
//!   arriving before its schedule is accepted;
//! * **fixed slots** end on their own clock, lingering once for a burst's
//!   late tail; a schedule applied late re-arms a fixed slot's remainder;
//! * **miss recovery** (§4.3): a client that misses the schedule keeps its
//!   WNIC in high-power mode until the next one arrives;
//! * the **§5 optimization**: an `unchanged` schedule is reused and its
//!   SRP wake-ups skipped, 1, 2, 4 then 8 intervals at a time.

use powerburst_energy::CardSpec;
use powerburst_net::HostAddr;
use powerburst_sim::{SimDuration, SimTime};

use crate::schedule::Schedule;

/// Delay-compensation algorithm (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompMode {
    /// Anchor every wake-up to the previous schedule's arrival.
    Adaptive,
    /// Anchor to the first schedule's arrival only, extrapolated on the
    /// caller's clock (the non-adaptive baseline): clock drift and AP
    /// delay level shifts accumulate unchecked.
    FixedAnchor,
}

/// Client power-policy parameters.
#[derive(Debug, Clone, Copy)]
pub struct PolicyParams {
    /// Early-transition amount (§3.3; Figure 6 sweeps 0–10 ms).
    pub early_transition: SimDuration,
    /// Honor the §5 `unchanged` flag by skipping SRP wake-ups.
    pub skip_unchanged: bool,
    /// Compensation algorithm.
    pub comp: CompMode,
}

impl Default for PolicyParams {
    fn default() -> Self {
        PolicyParams {
            early_transition: SimDuration::from_ms(6),
            skip_unchanged: false,
            comp: CompMode::Adaptive,
        }
    }
}

/// The sleep→idle transition of the paper's WaveLAN card: every wake-up
/// leads by it on top of the early-transition amount, and the radio hears
/// nothing until it is over.
const WAKE_TRANSITION: SimDuration = CardSpec::WAVELAN_DSSS.wake_transition;
/// Patience past the predicted schedule arrival before declaring a miss.
const MISS_SLACK: SimDuration = SimDuration::from_ms(15);
/// Gaps shorter than this are not worth sleeping.
const MIN_SLEEP: SimDuration = SimDuration::from_ms(5);

/// Counters for the energy-waste analysis (Figure 6) and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Schedule broadcasts heard.
    pub schedules_received: u64,
    /// Schedules put into force.
    pub schedules_applied: u64,
    /// SRP wake-ups where no schedule arrived in time.
    pub schedules_missed: u64,
    /// SRP wake-ups skipped under the §5 `unchanged` optimization.
    pub skipped_srp_wakes: u64,
    /// Schedules deferred under packet-ordering rule (1).
    pub deferred_schedules: u64,
    /// Marked (end-of-burst) frames heard.
    pub marks_received: u64,
    /// Awake time spent waiting for a predicted packet that had not yet
    /// arrived (the "Early" bar of Figure 6).
    pub early_wait: SimDuration,
    /// Awake time caused by missed schedules (the "MissedSched" bar).
    pub missed_sched_wait: SimDuration,
}

/// What a wake-up was for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WokeFor {
    /// The next schedule broadcast.
    Srp,
    /// A burst at a rendezvous point.
    Burst,
}

impl WokeFor {
    /// Static label for observability events.
    pub fn tag(self) -> &'static str {
        match self {
            WokeFor::Srp => "srp",
            WokeFor::Burst => "burst",
        }
    }
}

/// A policy timer; the caller hands it back to
/// [`ClientPolicy::on_timer`] when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyTimer {
    /// Wake for a slot of `duration`. A `fixed` slot (broadcast or
    /// static) ends on its own clock rather than on a mark.
    Slot {
        /// Slot length.
        duration: SimDuration,
        /// Sleep at slot end even without a mark.
        fixed: bool,
    },
    /// Wake for the next schedule broadcast.
    Srp,
    /// Declare the schedule awaited since the SRP wake missed.
    MissDeadline,
    /// A fixed slot is over; `extended` once its late tail got a linger.
    SlotEnd {
        /// This end was already extended once.
        extended: bool,
    },
}

/// A policy output, for the caller to carry out in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Transition the WNIC to high-power mode.
    Wake,
    /// Transition the WNIC to low-power mode.
    Sleep,
    /// Arm a timer to fire at the given instant (never before now).
    Arm(SimTime, PolicyTimer),
    /// Cancel every timer armed so far: a new plan replaces it.
    CancelPlan,
    /// The packet awaited since a wake-up arrived after this much idle
    /// listening (already added to [`PolicyStats::early_wait`]).
    Waited(WokeFor, SimDuration),
}

/// The client power policy of one client. The caller owns the counters
/// and passes them to every input.
#[derive(Debug, Clone)]
pub struct ClientPolicy {
    p: PolicyParams,
    me: HostAddr,
    /// Wake instants of the plan in force, for sleep decisions.
    planned_wakes: Vec<SimTime>,
    /// A schedule deferred under rule (1), held in `deferred`: its arrival
    /// and the caller's clock reading then (µs).
    pending: Option<(SimTime, i64)>,
    deferred: Schedule,
    /// Predicted arrival of the next schedule, plus the interval used to
    /// extrapolate it. Tracks the lower envelope of schedule arrivals so
    /// one AP-delay spike on a schedule packet does not shift a whole
    /// interval of wake-up predictions late.
    srp_pred: Option<(SimTime, SimDuration)>,
    /// Fixed-anchor state: the first applied schedule's arrival on the
    /// caller's clock (µs), its seq, and its interval.
    first: Option<(i64, u64, SimDuration)>,
    /// Awaiting the marked frame of a burst.
    in_burst: bool,
    /// A burst's unmarked frames have been heard but its mark has not:
    /// lets a fixed slot's end linger for the tail instead of sleeping
    /// mid-burst. Cleared by the mark, a new schedule, or giving up after
    /// one bounded extension.
    burst_open: bool,
    /// Consecutive schedules heard with the `unchanged` flag set.
    unchanged_streak: u32,
    /// Set while awake after a wake-up, until the awaited packet arrives:
    /// (reason, instant the radio became able to listen).
    woke_for: Option<(WokeFor, SimTime)>,
    /// Set when a miss was declared; cleared (and billed) at next schedule.
    miss_since: Option<SimTime>,
    /// A schedule has been put into force; until then the radio stays up.
    synced: bool,
    out: Vec<Action>,
}

impl ClientPolicy {
    /// The policy of host `me`, unsynced (awake until a schedule arrives).
    pub fn new(me: HostAddr, p: PolicyParams) -> ClientPolicy {
        ClientPolicy {
            p,
            me,
            planned_wakes: Vec::new(),
            pending: None,
            deferred: Schedule::default(),
            srp_pred: None,
            first: None,
            in_burst: false,
            burst_open: false,
            unchanged_streak: 0,
            woke_for: None,
            miss_since: None,
            synced: false,
            out: Vec::new(),
        }
    }

    /// The actions produced by the inputs so far, in order.
    pub fn actions(&mut self) -> std::vec::Drain<'_, Action> {
        self.out.drain(..)
    }

    /// A schedule broadcast was heard at `now`, when the caller's clock
    /// read `clock` µs (the fixed anchor extrapolates on that clock).
    pub fn on_schedule(
        &mut self,
        now: SimTime,
        clock: i64,
        sched: &Schedule,
        stats: &mut PolicyStats,
    ) {
        stats.schedules_received += 1;
        // Ordering rule (1): mid-burst schedules wait for the mark — unless
        // one is already pending, in which case the mark was evidently lost
        // and the newest schedule is adopted immediately.
        if self.in_burst && self.pending.is_none() {
            stats.deferred_schedules += 1;
            // The schedule did arrive, so the SRP wait is over and no miss
            // may be declared.
            if self.awaiting(WokeFor::Srp) {
                self.account_arrival(now, stats);
            }
            self.deferred.clone_from(sched);
            self.pending = Some((now, clock));
        } else {
            self.in_burst = false;
            self.pending = None;
            self.apply(sched, now, clock, now, stats);
        }
    }

    /// A unicast frame for this client was heard at `now`. Data can precede
    /// its schedule (rule 2); a marked frame ends the burst.
    pub fn on_frame(&mut self, now: SimTime, marked: bool, stats: &mut PolicyStats) {
        if self.awaiting(WokeFor::Burst) {
            self.account_arrival(now, stats);
        }
        if marked {
            stats.marks_received += 1;
            self.in_burst = false;
            self.burst_open = false;
            self.apply_pending_or_sleep(now, stats);
        } else {
            // A burst is mid-flight: let a fixed slot's end linger for the
            // mark instead of cutting a straggling tail frame off.
            self.burst_open = true;
        }
    }

    /// A timer armed by an earlier [`Action::Arm`] fired at `now`.
    pub fn on_timer(&mut self, now: SimTime, timer: PolicyTimer, stats: &mut PolicyStats) {
        match timer {
            PolicyTimer::Slot { duration, fixed } => {
                self.out.push(Action::Wake);
                self.woke_for = Some((WokeFor::Burst, now + WAKE_TRANSITION));
                if fixed {
                    // Fixed slots end on their own clock: linger briefly
                    // for late frames, then sleep without needing a mark.
                    let end = now + self.lead() + duration + SimDuration::from_ms(2);
                    self.out.push(Action::Arm(end, PolicyTimer::SlotEnd { extended: false }));
                } else {
                    self.in_burst = true;
                }
            }
            PolicyTimer::Srp => {
                self.out.push(Action::Wake);
                self.woke_for = Some((WokeFor::Srp, now + WAKE_TRANSITION));
                let deadline = now + self.lead() + MISS_SLACK;
                self.out.push(Action::Arm(deadline, PolicyTimer::MissDeadline));
            }
            PolicyTimer::MissDeadline => {
                if self.awaiting(WokeFor::Srp) {
                    // No schedule: stay awake until one arrives (§4.3).
                    stats.schedules_missed += 1;
                    self.woke_for = None;
                    self.miss_since = Some(now);
                }
            }
            PolicyTimer::SlotEnd { extended } => {
                if self.burst_open {
                    // The burst's frames arrived but its mark hasn't: the
                    // tail is straggling behind AP forwarding delay.
                    // Linger up to `MISS_SLACK` — the same patience granted
                    // a late schedule — once, so a lost mark costs at most
                    // that much awake time. (An *empty* slot gets no such
                    // grace: first frames can't outrun the normal close.)
                    if !extended && self.pending.is_none() {
                        let end = now + MISS_SLACK;
                        self.out.push(Action::Arm(end, PolicyTimer::SlotEnd { extended: true }));
                        return;
                    }
                    self.burst_open = false;
                }
                // Only the burst expectation ends with the slot; an SRP
                // expectation (the SRP wake may already have fired) must
                // survive or the client would sleep through the schedule.
                if self.awaiting(WokeFor::Burst) {
                    self.woke_for = None;
                }
                self.apply_pending_or_sleep(now, stats);
            }
        }
    }

    /// End the billing window at `end`: an unresolved miss is billed up
    /// to it.
    pub fn close(&mut self, end: SimTime, stats: &mut PolicyStats) {
        if let Some(since) = self.miss_since.take() {
            stats.missed_sched_wait += end.since(since);
        }
    }

    /// Total lead time before a predicted arrival.
    fn lead(&self) -> SimDuration {
        self.p.early_transition + WAKE_TRANSITION
    }

    fn awaiting(&self, w: WokeFor) -> bool {
        self.woke_for.map(|(x, _)| x) == Some(w)
    }

    /// Bill early-wait waste when the awaited packet shows up.
    fn account_arrival(&mut self, now: SimTime, stats: &mut PolicyStats) {
        if let Some((w, listen_start)) = self.woke_for.take() {
            let lead = now.since(listen_start);
            stats.early_wait += lead;
            self.out.push(Action::Waited(w, lead));
        }
    }

    fn apply_pending_or_sleep(&mut self, now: SimTime, stats: &mut PolicyStats) {
        match self.pending.take() {
            Some((arrival, clock)) => {
                self.in_burst = false;
                let sched = std::mem::take(&mut self.deferred);
                self.apply(&sched, arrival, clock, now, stats);
                self.deferred = sched;
            }
            None => self.sleep_if_idle(now),
        }
    }

    /// Sleep unless a wake-up is imminent or a burst, miss or schedule is
    /// being waited out.
    fn sleep_if_idle(&mut self, now: SimTime) {
        // Expecting a schedule any moment (the SRP wake already fired):
        // sleeping now would turn a late mark into a missed interval.
        if self.in_burst || self.miss_since.is_some() || !self.synced || self.awaiting(WokeFor::Srp)
        {
            return;
        }
        // Keep wakes at exactly `now`: a slot that begins immediately must
        // not put the radio to sleep for zero time (the wake transition
        // would make it deaf to the burst head).
        self.planned_wakes.retain(|&w| w >= now);
        match self.planned_wakes.iter().min() {
            Some(&w) if w.since(now) < MIN_SLEEP => {}
            _ => self.out.push(Action::Sleep),
        }
    }

    fn plan_wake(&mut self, at: SimTime, timer: PolicyTimer) {
        self.out.push(Action::Arm(at, timer));
        self.planned_wakes.push(at);
    }

    /// The instant wake-ups are measured from, for a schedule that arrived
    /// at `arrival`. AP forwarding delay is a slow random walk plus
    /// occasional large exponential spikes. The walk is worth tracking —
    /// the burst's frames ride the same walk — but a spike on the one
    /// schedule packet shifts a whole interval of wake-ups late (two under
    /// §5 skipping), and the burst's first frames then land during the wake
    /// transition. So: trust the raw arrival when it lands near the
    /// prediction, substitute the prediction when the arrival is a clear
    /// outlier, and re-phase to the raw arrival on a gross disagreement
    /// (the proxy moved its SRP).
    fn smoothed_arrival(&self, arrival: SimTime) -> SimTime {
        const SPIKE_GUARD: SimDuration = SimDuration::from_ms(2);
        const RESYNC: SimDuration = SimDuration::from_ms(20);
        let Some((mut exp, per)) = self.srp_pred.filter(|&(_, per)| per > SimDuration::ZERO) else {
            return arrival;
        };
        // Stride over schedules slept through or not heard.
        while arrival >= exp + per {
            exp += per;
        }
        if arrival > exp && arrival.since(exp) > RESYNC && (exp + per).since(arrival) <= RESYNC {
            exp += per;
        }
        let late = arrival.since(exp);
        if late > SPIKE_GUARD && late <= RESYNC {
            exp
        } else {
            arrival
        }
    }

    /// Put a schedule into force at `now`. `arrival` is when the broadcast
    /// landed — wake-ups are measured from it, which matters when a
    /// deferred schedule is applied late.
    fn apply(
        &mut self,
        sched: &Schedule,
        arrival: SimTime,
        clock: i64,
        now: SimTime,
        stats: &mut PolicyStats,
    ) {
        self.account_arrival(now, stats);
        if let Some(since) = self.miss_since.take() {
            stats.missed_sched_wait += now.since(since);
        }
        let smoothed = self.smoothed_arrival(arrival);
        self.out.push(Action::CancelPlan);
        self.planned_wakes.clear();
        // A deferred schedule whose own interval has already elapsed is
        // useless: its rendezvous points are in the past and the following
        // schedule is imminent. Stay awake and wait for a fresh one.
        if now > arrival + sched.next_srp {
            self.miss_since = Some(now);
            self.srp_pred = Some((smoothed + sched.next_srp, sched.next_srp));
            return;
        }
        self.synced = true;
        stats.schedules_applied += 1;
        self.burst_open = false;
        let (clock0, seq0, per) = *self.first.get_or_insert((clock, sched.seq, sched.next_srp));
        let anchor = match self.p.comp {
            CompMode::Adaptive => smoothed,
            // Predict this arrival by extrapolating the first one on the
            // caller's clock; the prediction error (drift × elapsed time,
            // plus AP delay level shifts) accumulates across the run.
            CompMode::FixedAnchor => {
                let k = sched.seq.saturating_sub(seq0) as i64;
                let shift = clock0 + per.as_us() as i64 * k - clock;
                SimTime::from_us((arrival.as_us() as i64 + shift).max(0) as u64)
            }
        };
        let lead = self.lead();
        let mut mine = false;
        for e in sched.slots_for(self.me) {
            mine = true;
            let fixed = e.client.is_broadcast() || sched.fixed_slots;
            // A schedule applied late (deferred past its own burst) must not
            // arm wake-ups for slots that already started: the mark that
            // released it *was* that burst's end. Re-arming such a slot
            // raises a phantom burst expectation that keeps the client awake
            // for the whole following interval. (Judged against the raw
            // arrival: the burst rides the same forwarding delay the
            // schedule did.)
            if arrival + e.rp_offset < now {
                // A fixed slot, though, ends on its own clock, so re-arming
                // it raises no phantom. If part of it still lies ahead the
                // burst may be running late behind AP delay: stay up for the
                // remainder instead of sleeping through frames in flight.
                let end = arrival + e.rp_offset + e.duration;
                if fixed && now < end {
                    self.plan_wake(now, PolicyTimer::Slot { duration: end.since(now), fixed });
                }
                continue;
            }
            let at = (anchor + e.rp_offset.saturating_sub(lead)).max(now);
            self.plan_wake(at, PolicyTimer::Slot { duration: e.duration, fixed });
        }
        // §5 optimization: an unchanged schedule is reused for the
        // following interval(s) and their SRP wakes are skipped. Each
        // consecutive unchanged schedule doubles the reuse span, capped so
        // a schedule change is never heard more than `MAX_REUSE` intervals
        // late. The extrapolation stays exact because the proxy's SRP phase
        // is fixed; per-packet AP jitter is what the early-transition
        // amount absorbs.
        const MAX_REUSE: u32 = 8;
        self.unchanged_streak =
            if sched.unchanged { self.unchanged_streak.saturating_add(1) } else { 0 };
        let reuse = if sched.unchanged && self.p.skip_unchanged && mine {
            (1u32 << self.unchanged_streak.min(3)).min(MAX_REUSE)
        } else {
            1
        };
        stats.skipped_srp_wakes += u64::from(reuse - 1);
        for j in 1..u64::from(reuse) {
            for e in sched.slots_for(self.me) {
                let fixed = e.client.is_broadcast() || sched.fixed_slots;
                let at = (anchor + sched.next_srp * j + e.rp_offset.saturating_sub(lead)).max(now);
                self.plan_wake(at, PolicyTimer::Slot { duration: e.duration, fixed });
            }
        }
        let span = sched.next_srp * u64::from(reuse);
        self.plan_wake((anchor + span.saturating_sub(lead)).max(now), PolicyTimer::Srp);
        self.srp_pred = Some((anchor + span, sched.next_srp));
        self.sleep_if_idle(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleEntry;

    const ME: HostAddr = HostAddr(10);
    const MS: u64 = 1_000;

    const SLOT: PolicyTimer =
        PolicyTimer::Slot { duration: SimDuration::from_ms(10), fixed: false };

    fn at(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    /// A policy with its counters, driven by hand.
    struct Client {
        policy: ClientPolicy,
        stats: PolicyStats,
    }

    impl Client {
        fn new(params: PolicyParams) -> Client {
            Client { policy: ClientPolicy::new(ME, params), stats: PolicyStats::default() }
        }

        /// Hear schedule `seq` (one 10 ms slot 20 ms out, every 100 ms)
        /// at `t`, when the caller's clock reads `clock` µs.
        fn hear(&mut self, t: SimTime, clock: i64, seq: u64) -> Vec<Action> {
            let sched = Schedule {
                seq,
                entries: vec![ScheduleEntry {
                    client: ME,
                    rp_offset: SimDuration::from_ms(20),
                    duration: SimDuration::from_ms(10),
                }],
                next_srp: SimDuration::from_ms(100),
                unchanged: false,
                fixed_slots: false,
                saturated: false,
            };
            self.policy.on_schedule(t, clock, &sched, &mut self.stats);
            self.policy.actions().collect()
        }

        fn frame(&mut self, t: SimTime, marked: bool) -> Vec<Action> {
            self.policy.on_frame(t, marked, &mut self.stats);
            self.policy.actions().collect()
        }

        fn fire(&mut self, t: SimTime, timer: PolicyTimer) -> Vec<Action> {
            self.policy.on_timer(t, timer, &mut self.stats);
            self.policy.actions().collect()
        }
    }

    #[test]
    fn a_schedule_plans_slot_and_srp_wakes_then_sleeps() {
        let mut c = Client::new(PolicyParams::default());
        // Lead = 6 ms early transition + 2 ms wake transition.
        assert_eq!(
            c.hear(at(0), 0, 0),
            [
                Action::CancelPlan,
                Action::Arm(at(12 * MS), SLOT),
                Action::Arm(at(92 * MS), PolicyTimer::Srp),
                Action::Sleep,
            ]
        );
        assert_eq!(c.stats.schedules_applied, 1);
    }

    #[test]
    fn a_spiked_schedule_is_anchored_at_its_prediction() {
        let mut c = Client::new(PolicyParams::default());
        c.hear(at(0), 0, 0);
        // 5 ms late: past the 2 ms guard, inside the 20 ms resync band.
        assert_eq!(c.hear(at(105 * MS), 105_000, 1)[1], Action::Arm(at(112 * MS), SLOT));
    }

    #[test]
    fn fixed_anchor_extrapolates_on_the_callers_clock() {
        let mut c =
            Client::new(PolicyParams { comp: CompMode::FixedAnchor, ..PolicyParams::default() });
        c.hear(at(0), 0, 0);
        // The caller's clock runs 500 µs fast over the interval, so the
        // first arrival extrapolated on it predicts this one 500 µs early.
        assert_eq!(c.hear(at(100 * MS), 100_500, 1)[1], Action::Arm(at(111_500), SLOT));
    }

    #[test]
    fn a_mid_burst_schedule_waits_for_the_mark() {
        let mut c = Client::new(PolicyParams::default());
        c.hear(at(0), 0, 0);
        assert_eq!(c.fire(at(12 * MS), SLOT), [Action::Wake]);
        // Rule (1): deferred, so nothing is re-planned yet.
        assert_eq!(c.hear(at(100 * MS), 100_000, 1), []);
        assert_eq!(c.stats.deferred_schedules, 1);
        let acts = c.frame(at(101 * MS), true);
        // The lead is billed, then the deferred schedule goes into force
        // with offsets from its own arrival; its slot has not started.
        assert_eq!(acts[0], Action::Waited(WokeFor::Burst, SimDuration::from_ms(87)));
        assert_eq!(acts[1], Action::CancelPlan);
        assert_eq!(acts[2], Action::Arm(at(112 * MS), SLOT));
    }

    #[test]
    fn an_unheard_schedule_is_a_miss_until_the_next_one() {
        let mut c = Client::new(PolicyParams::default());
        c.hear(at(0), 0, 0);
        let deadline = at(92 * MS + 8 * MS + 15 * MS);
        assert_eq!(
            c.fire(at(92 * MS), PolicyTimer::Srp),
            [Action::Wake, Action::Arm(deadline, PolicyTimer::MissDeadline)]
        );
        c.fire(deadline, PolicyTimer::MissDeadline);
        assert_eq!(c.stats.schedules_missed, 1);
        // Awake through the miss, which the next schedule bills.
        c.hear(at(200 * MS), 200_000, 2);
        assert_eq!(c.stats.missed_sched_wait, at(200 * MS).since(deadline));
    }
}
