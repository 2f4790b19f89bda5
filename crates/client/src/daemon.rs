//! The client power daemon.
//!
//! §3.2.1: "The client must also read the UDP broadcast packet from the
//! proxy, which contains its rendezvous point as well as the arrival time
//! of the next schedule. The client can turn off its WNIC until its
//! rendezvous point is reached ... After the client receives its burst, it
//! transitions the WNIC back to low-power mode until the next schedule
//! packet is due."
//!
//! The daemon implements:
//!
//! * **Adaptive delay compensation** (§3.3): every wake-up is anchored a
//!   fixed amount after the *arrival* of the previous schedule, waking an
//!   *early-transition amount* (plus the radio's 2 ms wake transition)
//!   before the predicted instant;
//! * a **fixed-anchor** variant (ablation): wake-ups anchored to the first
//!   schedule only, so clock drift accumulates;
//! * **packet-ordering rules** (§3.2.2): a schedule arriving before the
//!   current burst's marked packet is deferred; data arriving before its
//!   schedule is accepted;
//! * **miss recovery**: a client that misses the schedule broadcast keeps
//!   its WNIC in high-power mode until the next schedule arrives (§4.3);
//! * the **§5 future-work optimization**: when the proxy flags the schedule
//!   unchanged, the client may skip the next SRP wake-up entirely.

use std::any::Any;

use powerburst_obs::{Counter, EventKind, Hist, Recorder};
use powerburst_sim::{LocalTime, SimDuration, SimTime};

use powerburst_core::Schedule;
use powerburst_net::{ports, Ctx, HostAddr, IfaceId, Node, Packet, Proto, TimerId, TimerToken};
use powerburst_traffic::{App, APP_TOKEN};

/// Delay-compensation algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompMode {
    /// Anchor every wake-up to the previous schedule's arrival (§3.3).
    Adaptive,
    /// Anchor to the first schedule's arrival only (non-adaptive baseline;
    /// clock drift and AP-delay level shifts accumulate unchecked).
    FixedAnchor,
    /// Never sleep (the naive client, expressed as a daemon config).
    AlwaysOn,
}

/// Client daemon configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// This client's host address.
    pub me: HostAddr,
    /// Early-transition amount (§3.3; the paper sweeps 0–10 ms, default 6).
    pub early_transition: SimDuration,
    /// The WNIC's sleep→idle transition time (2 ms for WaveLAN); the
    /// daemon must lead its wake-ups by this much to be listening in time.
    pub wake_transition: SimDuration,
    /// Compensation algorithm.
    pub comp: CompMode,
    /// Honor the §5 `unchanged` flag by skipping the next SRP wake.
    pub skip_unchanged: bool,
    /// How long past the predicted arrival to wait before declaring the
    /// schedule missed.
    pub miss_slack: SimDuration,
    /// Don't bother sleeping for gaps shorter than this.
    pub min_sleep: SimDuration,
}

impl ClientConfig {
    /// Paper-typical defaults for host `me`.
    pub fn new(me: HostAddr) -> ClientConfig {
        ClientConfig {
            me,
            early_transition: SimDuration::from_ms(6),
            wake_transition: SimDuration::from_ms(2),
            comp: CompMode::Adaptive,
            skip_unchanged: false,
            miss_slack: SimDuration::from_ms(15),
            min_sleep: SimDuration::from_ms(5),
        }
    }
}

/// Counters for the energy-waste analysis (Figure 6) and diagnostics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientPowerStats {
    /// Schedule broadcasts received.
    pub schedules_received: u64,
    /// SRP wake-ups where no schedule arrived in time.
    pub schedules_missed: u64,
    /// Marked (end-of-burst) packets received.
    pub marks_received: u64,
    /// Time spent awake waiting for a predicted packet that had not yet
    /// arrived (the "Early" bar of Figure 6).
    pub early_wait: SimDuration,
    /// Time spent awake because a schedule was missed (the "MissedSched"
    /// bar of Figure 6).
    pub missed_sched_wait: SimDuration,
    /// Schedules deferred under packet-ordering rule (1).
    pub deferred_schedules: u64,
    /// Data packets accepted before their schedule (rule 2).
    pub data_before_schedule: u64,
    /// SRP wake-ups skipped thanks to the `unchanged` flag (§5).
    pub skipped_srp_wakes: u64,
}

const T_WAKE_SRP: TimerToken = 1;
const T_MISS: TimerToken = 2;
const T_WAKE_SLOT: TimerToken = 0x10; // + slot index
const MAX_SLOTS: TimerToken = 0x40;
const T_SLOT_END: TimerToken = 0x100; // + slot index

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WokeFor {
    Srp,
    Burst,
}

impl WokeFor {
    /// Static label for observability events.
    fn tag(self) -> &'static str {
        match self {
            WokeFor::Srp => "srp",
            WokeFor::Burst => "burst",
        }
    }
}

/// A slot of the active schedule that applies to this client.
#[derive(Debug, Clone, Copy)]
struct MySlot {
    duration: SimDuration,
    /// Sleep at slot end even without a mark (broadcast/static slots).
    sleep_at_end: bool,
}

/// The power-daemon node hosting an [`App`].
pub struct PowerClient {
    cfg: ClientConfig,
    app: Box<dyn App>,
    /// Slots of the schedule currently in force.
    slots: Vec<MySlot>,
    /// Pending wake instants (for sleep decisions).
    planned_wakes: Vec<SimTime>,
    /// Timers of the plan in force: its slot wakes, the slot ends armed so
    /// far, and its SRP wake. A new plan cancels them all.
    plan_timers: Vec<TimerId>,
    /// The schedule-miss deadline armed at the last SRP wake.
    miss_timer: Option<TimerId>,
    /// Deferred schedule under ordering rule (1), with its arrival time.
    pending_schedule: Option<(Schedule, SimTime)>,
    /// Recycled schedule buffer: broadcasts are decoded into it
    /// ([`Schedule::decode_into`]) and it is returned after application,
    /// so the once-per-interval decode reuses one entries allocation.
    decode_buf: Schedule,
    /// Awaiting the marked packet of a burst.
    in_burst: bool,
    /// Set while awake after a wake-up, until the awaited packet arrives:
    /// (reason, instant the radio became able to listen).
    woke_for: Option<(WokeFor, SimTime)>,
    /// Set when a miss was declared; cleared (and billed) at next schedule.
    miss_since: Option<SimTime>,
    /// Fixed-anchor state: (first schedule arrival on the *local* clock,
    /// its seq, the interval). Predictions extrapolate on the local clock,
    /// so crystal drift accumulates — the §3.3 motivation for adaptive.
    anchor: Option<(LocalTime, u64, SimDuration)>,
    synced: bool,
    /// Statistics.
    pub stats: ClientPowerStats,
    /// Observability handle; disabled by default.
    obs: Recorder,
}

impl PowerClient {
    /// Build a daemon hosting `app`.
    pub fn new(cfg: ClientConfig, app: Box<dyn App>) -> PowerClient {
        PowerClient {
            cfg,
            app,
            slots: Vec::new(),
            planned_wakes: Vec::new(),
            plan_timers: Vec::new(),
            miss_timer: None,
            pending_schedule: None,
            decode_buf: Schedule::default(),
            in_burst: false,
            woke_for: None,
            miss_since: None,
            anchor: None,
            synced: false,
            stats: ClientPowerStats::default(),
            obs: Recorder::disabled(),
        }
    }

    /// Attach an observability recorder.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.obs = rec;
    }

    /// Access the hosted application.
    pub fn app_mut<T: App>(&mut self) -> &mut T {
        self.app.as_any_mut().downcast_mut().expect("app type")
    }

    /// Total lead time before a predicted arrival.
    fn lead(&self) -> SimDuration {
        self.cfg.early_transition + self.cfg.wake_transition
    }

    /// Sleep unless a wake-up is imminent or we're mid-burst/missing.
    fn sleep_if_idle(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.comp == CompMode::AlwaysOn {
            return;
        }
        if self.in_burst || self.miss_since.is_some() || !self.synced {
            return;
        }
        // Expecting a schedule any moment (SRP wake already fired):
        // sleeping now would turn a late mark into a missed interval.
        if self.woke_for.map(|(w, _)| w) == Some(WokeFor::Srp) {
            return;
        }
        let now = ctx.now();
        // Keep wakes at exactly `now`: a slot that begins immediately after
        // the schedule must not put the radio to sleep for zero time (the
        // 2 ms wake transition would make it deaf to the burst head).
        self.planned_wakes.retain(|&t| t >= now);
        let next = self.planned_wakes.iter().min().copied();
        match next {
            Some(t) if t.since(now) < self.cfg.min_sleep => { /* not worth it */ }
            _ => ctx.radio_sleep(),
        }
    }

    /// Bill early-wait waste when the awaited packet shows up.
    fn account_arrival(&mut self, now: SimTime) {
        if let Some((woke, listen_start)) = self.woke_for.take() {
            let lead = now.since(listen_start);
            self.stats.early_wait += lead;
            self.obs.observe(Hist::WakeLeadUs, lead.as_us());
            self.obs.event(
                now.as_us(),
                EventKind::WakeLead {
                    client: self.cfg.me.0,
                    lead_us: lead.as_us(),
                    woke_for: woke.tag(),
                },
            );
        }
    }

    fn handle_schedule(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let mut sched = std::mem::take(&mut self.decode_buf);
        if !Schedule::decode_into(&pkt.payload, &mut sched) {
            self.decode_buf = sched;
            return;
        }
        self.stats.schedules_received += 1;
        // Ordering rule (1): mid-burst schedules wait for the mark — unless
        // one is already pending, in which case the mark was evidently lost
        // and we adopt the newest schedule immediately.
        if self.in_burst && self.pending_schedule.is_none() {
            self.stats.deferred_schedules += 1;
            // The schedule did arrive: the SRP wait (and its miss deadline)
            // is satisfied even though application is deferred.
            if let Some(id) = self.miss_timer.take() {
                ctx.cancel_timer(id);
            }
            if self.woke_for.map(|(w, _)| w) == Some(WokeFor::Srp) {
                self.account_arrival(ctx.now());
            }
            self.pending_schedule = Some((sched, ctx.now()));
            return;
        }
        self.in_burst = false;
        self.pending_schedule = None;
        let arrival = ctx.now();
        self.apply_schedule(ctx, sched, arrival);
    }

    /// Put a schedule into force. `arrival` is when the broadcast landed —
    /// all rendezvous offsets are measured from it, which matters when a
    /// deferred schedule is applied late.
    fn apply_schedule(&mut self, ctx: &mut Ctx<'_>, sched: Schedule, arrival: SimTime) {
        let now = ctx.now();
        if let Some(id) = self.miss_timer.take() {
            ctx.cancel_timer(id);
        }
        self.account_arrival(now);
        if let Some(since) = self.miss_since.take() {
            self.stats.missed_sched_wait += now.since(since);
        }
        // A deferred schedule whose interval already elapsed is useless:
        // its rendezvous points are in the past. Invalidate local plans and
        // stay awake until a fresh schedule arrives.
        if now > arrival + sched.next_srp {
            for id in self.plan_timers.drain(..) {
                ctx.cancel_timer(id);
            }
            self.slots.clear();
            self.planned_wakes.clear();
            self.miss_since = Some(now);
            self.decode_buf = sched;
            return;
        }
        self.synced = true;
        self.obs.incr(Counter::ClientSchedulesApplied);
        if self.anchor.is_none() {
            self.anchor = Some((ctx.to_local(arrival), sched.seq, sched.next_srp));
        }

        // Fixed-anchor compensation predicts this schedule's arrival by
        // extrapolating the first arrival on the client's own clock;
        // offsets below are taken from that *predicted* arrival instead of
        // the actual one, so prediction error (clock drift × elapsed time,
        // plus AP delay level shifts) accumulates across the run.
        let base_shift: i64 = match (self.cfg.comp, self.anchor) {
            (CompMode::FixedAnchor, Some((l0, seq0, interval))) => {
                let k = sched.seq.saturating_sub(seq0) as i64;
                let predicted_local = l0.0 + interval.as_us() as i64 * k;
                predicted_local - ctx.to_local(arrival).0
            }
            _ => 0,
        };
        // Wake delay from `now` for an offset measured from `arrival`.
        let shift = |d: SimDuration| -> SimDuration {
            let us = d.as_us() as i64 + base_shift + arrival.as_us() as i64 - now.as_us() as i64;
            SimDuration::from_us(us.max(0) as u64)
        };

        // Cancel any stale wake-ups from the previous interval.
        for id in self.plan_timers.drain(..) {
            ctx.cancel_timer(id);
        }
        self.planned_wakes.clear();
        self.slots.clear();

        let lead = self.lead();
        // `sched` is owned, so its slots can be walked directly while the
        // daemon's own state is updated — no collected copy needed.
        let mut any_slots = false;
        for e in sched.slots_for(self.cfg.me).take(MAX_SLOTS as usize / 2) {
            any_slots = true;
            // A schedule applied late (deferred past its own burst) must
            // not arm wake-ups for slots that already completed — the mark
            // that released it was that burst's end.
            if arrival + e.rp_offset + e.duration <= now {
                continue;
            }
            let k = self.slots.len();
            self.slots.push(MySlot {
                duration: e.duration,
                sleep_at_end: e.client.is_broadcast() || sched.fixed_slots,
            });
            let wake_off = shift(e.rp_offset.saturating_sub(lead));
            self.plan_timers.push(ctx.set_timer_local(wake_off, T_WAKE_SLOT + k as TimerToken));
            self.planned_wakes.push(now + wake_off);
        }

        // Next SRP wake — possibly skipped under the §5 optimization, in
        // which case this schedule is reused for the following interval.
        if sched.unchanged && self.cfg.skip_unchanged && any_slots {
            self.stats.skipped_srp_wakes += 1;
            self.obs.incr(Counter::ClientSkippedWakes);
            for e in sched.slots_for(self.cfg.me).take(MAX_SLOTS as usize / 2) {
                let idx = self.slots.len();
                self.slots.push(MySlot {
                    duration: e.duration,
                    sleep_at_end: e.client.is_broadcast() || sched.fixed_slots,
                });
                let wake_off = shift(sched.next_srp + e.rp_offset.saturating_sub(lead));
                self.plan_timers
                    .push(ctx.set_timer_local(wake_off, T_WAKE_SLOT + idx as TimerToken));
                self.planned_wakes.push(now + wake_off);
            }
            let srp_off = shift((sched.next_srp * 2).saturating_sub(lead));
            self.plan_timers.push(ctx.set_timer_local(srp_off, T_WAKE_SRP));
            self.planned_wakes.push(now + srp_off);
        } else {
            let srp_off = shift(sched.next_srp.saturating_sub(lead));
            self.plan_timers.push(ctx.set_timer_local(srp_off, T_WAKE_SRP));
            self.planned_wakes.push(now + srp_off);
        }

        self.sleep_if_idle(ctx);
        // Recycle the schedule's entries buffer for the next decode.
        self.decode_buf = sched;
    }

    fn handle_data(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let now = ctx.now();
        if self.woke_for.map(|(w, _)| w) == Some(WokeFor::Burst) {
            self.account_arrival(now);
        } else if self.woke_for.is_some() && !self.in_burst {
            // Ordering rule (2): data can precede its schedule.
            self.stats.data_before_schedule += 1;
        }
        let marked = pkt.tos_mark;
        self.app.on_packet(ctx, pkt);
        if marked {
            self.stats.marks_received += 1;
            self.obs.incr(Counter::ClientMarksSeen);
            self.in_burst = false;
            if let Some((sched, arrival)) = self.pending_schedule.take() {
                self.apply_schedule(ctx, sched, arrival);
            } else {
                self.sleep_if_idle(ctx);
            }
        }
    }
}

impl Node for PowerClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Unsynced: stay in high power until the first schedule arrives.
        self.app.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, pkt: Packet) {
        if pkt.proto == Proto::Udp && pkt.dst.port == ports::SCHEDULE {
            self.handle_schedule(ctx, &pkt);
        } else {
            self.handle_data(ctx, pkt);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if token & APP_TOKEN != 0 {
            self.app.on_timer(ctx, token);
            return;
        }
        let now = ctx.now();
        match token {
            T_WAKE_SRP => {
                ctx.radio_wake();
                self.woke_for = Some((WokeFor::Srp, now + self.cfg.wake_transition));
                self.miss_timer = Some(ctx.set_timer(self.lead() + self.cfg.miss_slack, T_MISS));
            }
            T_MISS if self.woke_for.map(|(w, _)| w) == Some(WokeFor::Srp) => {
                // No schedule: stay awake until one arrives (§4.3).
                self.stats.schedules_missed += 1;
                self.obs.incr(Counter::ClientSchedulesMissed);
                self.woke_for = None;
                self.miss_since = Some(now);
            }
            t if (T_WAKE_SLOT..T_WAKE_SLOT + MAX_SLOTS).contains(&t) => {
                let k = (t - T_WAKE_SLOT) as usize;
                ctx.radio_wake();
                let Some(slot) = self.slots.get(k).copied() else { return };
                self.woke_for = Some((WokeFor::Burst, now + self.cfg.wake_transition));
                if slot.sleep_at_end {
                    // Fixed slots end on their own clock: linger briefly
                    // for late frames, then sleep without needing a mark.
                    let end = self.lead() + slot.duration + SimDuration::from_ms(2);
                    self.plan_timers.push(ctx.set_timer(end, T_SLOT_END + k as TimerToken));
                } else {
                    self.in_burst = true;
                }
            }
            t if (T_SLOT_END..T_SLOT_END + MAX_SLOTS).contains(&t) => {
                // Fixed/broadcast slot over; mark not required. Only the
                // burst expectation ends here — an SRP expectation (whose
                // wake may already have fired) must survive.
                if self.woke_for.map(|(w, _)| w) == Some(WokeFor::Burst) {
                    self.woke_for = None;
                }
                if let Some((sched, arrival)) = self.pending_schedule.take() {
                    self.in_burst = false;
                    self.apply_schedule(ctx, sched, arrival);
                } else {
                    self.sleep_if_idle(ctx);
                }
            }
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
