//! The client power daemon: the client power policy, run on a live radio.
//!
//! The wake/sleep rules live in [`powerburst_core::client_policy`], the
//! sans-IO state machine the postmortem replay drives too. The daemon
//! feeds it the schedules and frames its radio hears and the timers it
//! armed, and carries out its actions on the node context: radio wake
//! and sleep, and timers measured on the client's own (drifting) clock.
//! It owns the policy's counters, and reports the ones that move, and
//! every `WakeLead` the policy notes, to its shard's recorder lane
//! (`Ctx::obs`).

use std::any::Any;

use powerburst_obs::{Counter, EventKind, Hist};

use powerburst_core::{Action, ClientPolicy, PolicyParams, PolicyStats, PolicyTimer, Schedule};
use powerburst_net::{ports, Ctx, HostAddr, IfaceId, Node, Packet, Proto, TimerId, TimerToken};
use powerburst_traffic::{App, APP_TOKEN};

/// The power-daemon node hosting an [`App`].
pub struct PowerClient {
    me: HostAddr,
    policy: ClientPolicy,
    app: Box<dyn App>,
    /// Timers of the plan in force, with what each one is for; a timer's
    /// token is its index here. A new plan cancels them all.
    plan: Vec<(TimerId, PolicyTimer)>,
    /// Recycled schedule buffer: broadcasts are decoded into it
    /// ([`Schedule::decode_into`]), so the once-per-interval decode reuses
    /// one entries allocation.
    decode_buf: Schedule,
    /// The policy's counters.
    pub stats: PolicyStats,
}

impl PowerClient {
    /// Build the daemon of host `me`, hosting `app`.
    pub fn new(me: HostAddr, params: PolicyParams, app: Box<dyn App>) -> PowerClient {
        PowerClient {
            me,
            policy: ClientPolicy::new(me, params),
            app,
            plan: Vec::new(),
            decode_buf: Schedule::default(),
            stats: PolicyStats::default(),
        }
    }

    /// Access the hosted application.
    pub fn app_mut<T: App>(&mut self) -> &mut T {
        self.app.as_any_mut().downcast_mut().expect("app type")
    }

    /// Carry out the policy's actions, then report the counters that moved
    /// since they read `old`.
    fn drive(&mut self, ctx: &mut Ctx<'_>, old: PolicyStats) {
        let (now, obs) = (ctx.now(), ctx.obs());
        for a in self.policy.actions() {
            match a {
                Action::Wake => ctx.radio_wake(),
                Action::Sleep => ctx.radio_sleep(),
                Action::Arm(at, timer) => {
                    let token = self.plan.len() as TimerToken;
                    self.plan.push((ctx.set_timer_local(at.since(now), token), timer));
                }
                Action::CancelPlan => {
                    for (id, _) in self.plan.drain(..) {
                        ctx.cancel_timer(id);
                    }
                }
                Action::Waited(woke_for, lead) => {
                    obs.observe(Hist::WakeLeadUs, lead.as_us());
                    obs.event(
                        now.as_us(),
                        EventKind::WakeLead {
                            client: self.me.0,
                            lead_us: lead.as_us(),
                            woke_for: woke_for.tag(),
                        },
                    );
                }
            }
        }
        let new = self.stats;
        for (c, d) in [
            (Counter::ClientSchedulesApplied, new.schedules_applied - old.schedules_applied),
            (Counter::ClientSchedulesMissed, new.schedules_missed - old.schedules_missed),
            (Counter::ClientMarksSeen, new.marks_received - old.marks_received),
            (Counter::ClientSkippedWakes, new.skipped_srp_wakes - old.skipped_srp_wakes),
        ] {
            if d > 0 {
                obs.add(c, d);
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
        let (now, old) = (ctx.now(), self.stats);
        if pkt.proto == Proto::Udp && pkt.dst.port == ports::SCHEDULE {
            if !Schedule::decode_into(&pkt.payload, &mut self.decode_buf) {
                return;
            }
            self.policy.on_schedule(now, ctx.local_now().0, &self.decode_buf, &mut self.stats);
        } else {
            let (marked, unicast) = (pkt.tos_mark, !pkt.is_broadcast());
            self.app.on_packet(ctx, pkt);
            if !unicast {
                return;
            }
            self.policy.on_frame(now, marked, &mut self.stats);
        }
        self.drive(ctx, old);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if token & APP_TOKEN != 0 {
            self.app.on_timer(ctx, token);
            return;
        }
        let Some(&(_, timer)) = self.plan.get(token as usize) else { return };
        let old = self.stats;
        self.policy.on_timer(ctx.now(), timer, &mut self.stats);
        self.drive(ctx, old);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
