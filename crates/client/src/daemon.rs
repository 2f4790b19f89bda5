//! The client power daemon: the client power policy, run on a live radio.
//!
//! The wake/sleep rules live in [`powerburst_core::client_policy`], the
//! sans-IO state machine the postmortem replay drives too. A live-radio
//! daemon ([`PowerClient::live`]) feeds it the schedules and frames its
//! radio hears and the timers it armed, and carries out its actions on
//! the node context: radio wake and sleep, and timers measured on the
//! client's own (drifting) clock. It owns the policy's counters (which
//! `scenario::collect` reports once, at the end of a run), and records
//! every `WakeLead` the policy notes on its shard's recorder lane
//! (`Ctx::obs`).
//!
//! In Monitor mode the radio never sleeps and the replay is the policy
//! run, so a Monitor-mode daemon ([`PowerClient::monitor`]) runs no
//! policy: it drops schedule broadcasts undecoded, passes every other
//! frame to its app, arms no timer of its own, records nothing, and its
//! [`PowerClient::stats`] stay zero.

use std::any::Any;

use powerburst_obs::{EventKind, Hist};

use powerburst_core::{Action, ClientPolicy, PolicyParams, PolicyStats, PolicyTimer, Schedule};
use powerburst_net::{ports, Ctx, HostAddr, IfaceId, Node, Packet, Proto, TimerId, TimerToken};
use powerburst_traffic::{App, APP_TOKEN};

/// The power-daemon node hosting an [`App`].
pub struct PowerClient {
    app: Box<dyn App>,
    /// The policy a live radio runs on; `None` in Monitor mode.
    live: Option<LivePolicy>,
    /// The policy's counters (all zero in Monitor mode).
    pub stats: PolicyStats,
}

/// The client power policy with what driving it through a [`Ctx`] needs.
struct LivePolicy {
    me: HostAddr,
    policy: ClientPolicy,
    /// Timers of the plan in force, with what each one is for; a timer's
    /// token is its index here. A new plan cancels them all.
    plan: Vec<(TimerId, PolicyTimer)>,
    /// Recycled schedule buffer: broadcasts are decoded into it
    /// ([`Schedule::decode_into`]), so the once-per-interval decode reuses
    /// one entries allocation.
    decode_buf: Schedule,
}

impl PowerClient {
    /// The daemon of a live-radio host `me`, hosting `app` and running the
    /// client power policy with `params`.
    pub fn live(me: HostAddr, params: PolicyParams, app: Box<dyn App>) -> PowerClient {
        let live = LivePolicy {
            me,
            policy: ClientPolicy::new(me, params),
            plan: Vec::new(),
            decode_buf: Schedule::default(),
        };
        PowerClient { app, live: Some(live), stats: PolicyStats::default() }
    }

    /// The daemon of a Monitor-mode host: it only hosts `app`.
    pub fn monitor(app: Box<dyn App>) -> PowerClient {
        PowerClient { app, live: None, stats: PolicyStats::default() }
    }

    /// Access the hosted application.
    pub fn app_mut<T: App>(&mut self) -> &mut T {
        self.app.as_any_mut().downcast_mut().expect("app type")
    }
}

impl LivePolicy {
    /// Carry out the policy's actions.
    fn drive(&mut self, ctx: &mut Ctx<'_>) {
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
    }
}

impl Node for PowerClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Unsynced: stay in high power until the first schedule arrives.
        self.app.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, pkt: Packet) {
        let schedule = pkt.proto == Proto::Udp && pkt.dst.port == ports::SCHEDULE;
        let Some(live) = &mut self.live else {
            if !schedule {
                self.app.on_packet(ctx, pkt);
            }
            return;
        };
        let now = ctx.now();
        if schedule {
            if !Schedule::decode_into(&pkt.payload, &mut live.decode_buf) {
                return;
            }
            live.policy.on_schedule(now, ctx.local_now().0, &live.decode_buf, &mut self.stats);
        } else {
            let (marked, unicast) = (pkt.tos_mark, !pkt.is_broadcast());
            self.app.on_packet(ctx, pkt);
            if !unicast {
                return;
            }
            live.policy.on_frame(now, marked, &mut self.stats);
        }
        live.drive(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if token & APP_TOKEN != 0 {
            self.app.on_timer(ctx, token);
            return;
        }
        let Some(live) = &mut self.live else { return };
        let Some(&(_, timer)) = live.plan.get(token as usize) else { return };
        live.policy.on_timer(ctx.now(), timer, &mut self.stats);
        live.drive(ctx);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
