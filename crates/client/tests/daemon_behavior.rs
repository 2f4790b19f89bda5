//! Behavioral tests for the client power daemon, driven by a scripted
//! proxy stand-in over a real radio world: wake/sleep discipline, miss
//! recovery, the packet-ordering rules, the §5 optimization, and the
//! Monitor-mode daemon that runs no policy.

use std::any::Any;

use powerburst_client::PowerClient;
use powerburst_core::{PolicyParams, PolicyStats, Schedule, ScheduleEntry};
use powerburst_net::{
    ports, AccessPoint, AirtimeModel, ApDelayParams, Ctx, Endpoint, HostAddr, IfaceId, LinkSpec,
    Node, NodeConfig, NodeId, Packet, SockAddr, TimerToken, World, AP_RADIO, AP_WIRED,
};
use powerburst_obs::{EventKind, Hist, ObsReport};
use powerburst_sim::{ClockModel, SimDuration, SimTime};
use powerburst_traffic::{App, CountingSink};
use powerburst_transport::StreamPayload;

const CLIENT: HostAddr = HostAddr(100);
const PROXY: HostAddr = HostAddr(3);
const INTERVAL_MS: u64 = 100;

/// A scripted proxy: broadcasts a fixed schedule every interval and sends a
/// small marked burst at the client's rendezvous point. Knobs simulate
/// misbehavior for the recovery tests.
struct ScriptedProxy {
    seq: u64,
    /// Skip broadcasting these schedule sequence numbers entirely.
    skip_broadcasts: Vec<u64>,
    /// Don't set the ToS mark on these burst sequence numbers.
    unmark_bursts: Vec<u64>,
    /// Flag schedules as unchanged (§5).
    flag_unchanged: bool,
    /// Stop all activity after this many intervals.
    max_intervals: u64,
    bursts_sent: u64,
}

impl ScriptedProxy {
    fn new() -> ScriptedProxy {
        ScriptedProxy {
            seq: 0,
            skip_broadcasts: Vec::new(),
            unmark_bursts: Vec::new(),
            flag_unchanged: false,
            max_intervals: u64::MAX,
            bursts_sent: 0,
        }
    }

    fn schedule(&self) -> Schedule {
        Schedule {
            seq: self.seq,
            entries: vec![ScheduleEntry {
                client: CLIENT,
                rp_offset: SimDuration::from_ms(5),
                duration: SimDuration::from_ms(10),
            }],
            next_srp: SimDuration::from_ms(INTERVAL_MS),
            unchanged: self.flag_unchanged && self.seq > 0,
            fixed_slots: false,
            saturated: false,
        }
    }
}

const T_SRP: TimerToken = 1;
const T_BURST: TimerToken = 2;

impl Node for ScriptedProxy {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_ms(1), T_SRP);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        match token {
            T_SRP => {
                if self.seq >= self.max_intervals {
                    return;
                }
                if !self.skip_broadcasts.contains(&self.seq) {
                    let pkt = Packet::udp(
                        0,
                        SockAddr::new(PROXY, ports::SCHEDULE),
                        SockAddr::new(HostAddr::BROADCAST, ports::SCHEDULE),
                        self.schedule().encode(),
                    );
                    ctx.send_assigning(IfaceId(0), pkt);
                }
                ctx.set_timer(SimDuration::from_ms(5), T_BURST);
                ctx.set_timer(SimDuration::from_ms(INTERVAL_MS), T_SRP);
                self.seq += 1;
            }
            T_BURST => {
                let burst_no = self.bursts_sent;
                self.bursts_sent += 1;
                for k in 0..2u64 {
                    let mut pkt = Packet::udp(
                        0,
                        SockAddr::new(PROXY, ports::MEDIA),
                        SockAddr::new(CLIENT, ports::MEDIA),
                        StreamPayload { flow: 0, seq: burst_no * 2 + k }.encode(400),
                    );
                    pkt.tos_mark = k == 1 && !self.unmark_bursts.contains(&burst_no);
                    ctx.send_assigning(IfaceId(0), pkt);
                }
            }
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn sink() -> Box<dyn App> {
    Box::new(CountingSink::new())
}

/// The scripted proxy, an access point and `client` in one radio cell;
/// the client has a live WaveLAN card exactly when `live_radio`. Returns
/// the world and the proxy's and the client's node ids.
fn build_world(
    proxy: ScriptedProxy,
    client: PowerClient,
    live_radio: bool,
) -> (World, NodeId, NodeId) {
    let mut world = World::new(5);
    let p = world.add_node(Box::new(proxy), NodeConfig::wired(PROXY));
    let ap = world.add_node(
        Box::new(AccessPoint::new(ApDelayParams::deterministic(300.0))),
        NodeConfig::infrastructure(),
    );
    let c = world.add_node(
        Box::new(client),
        NodeConfig { host: Some(CLIENT), clock: ClockModel::perfect(), live_radio },
    );
    world.add_link(
        Endpoint { node: p, iface: IfaceId(0) },
        Endpoint { node: ap, iface: AP_WIRED },
        LinkSpec::FAST_ETHERNET,
    );
    world.add_cell(AirtimeModel::DSSS_11MBPS, SimDuration::from_ms(150), ap);
    world.attach_wireless_cell(ap, AP_RADIO, 0);
    world.attach_wireless_cell(c, IfaceId(0), 0);
    (world, p, c)
}

/// Run a live-radio client with policy `cfg` against `proxy` for `secs`.
fn run(proxy: ScriptedProxy, cfg: PolicyParams, secs: u64) -> (World, NodeId) {
    let (mut world, _, c) = build_world(proxy, PowerClient::live(CLIENT, cfg, sink()), true);
    world.run_until(SimTime::from_secs(secs));
    (world, c)
}

#[test]
fn synced_client_sleeps_between_bursts_and_loses_nothing() {
    let (mut world, c) = run(ScriptedProxy::new(), PolicyParams::default(), 10);
    let stats = *world.stats(c);
    assert_eq!(stats.missed_frames, 0, "no data lost");
    let rep = world.wnic_report(c).unwrap();
    let sleep_frac = rep.sleep.as_secs_f64() / 10.0;
    assert!(sleep_frac > 0.6, "slept {sleep_frac:.2} of the run");
    let pc = world.node_mut::<PowerClient>(c);
    assert!(pc.stats.marks_received > 90, "marks {}", pc.stats.marks_received);
    assert_eq!(pc.stats.schedules_missed, 0);
    // The application saw every packet (2 per interval, ~100 intervals).
    let sink = pc.app_mut::<CountingSink>();
    assert!(sink.packets >= 190, "app packets {}", sink.packets);
    assert_eq!(sink.lost(), 0);
}

#[test]
fn skipped_broadcast_triggers_miss_recovery() {
    let mut proxy = ScriptedProxy::new();
    proxy.skip_broadcasts = vec![20, 21];
    // Without a schedule the proxy still bursts; the client (awake in miss
    // recovery) receives the data anyway.
    let (mut world, c) = run(proxy, PolicyParams::default(), 5);
    let stats = *world.stats(c);
    let pc = world.node_mut::<PowerClient>(c);
    assert!(pc.stats.schedules_missed >= 1, "missed {}", pc.stats.schedules_missed);
    assert!(
        pc.stats.missed_sched_wait > SimDuration::from_ms(50),
        "miss wait {}",
        pc.stats.missed_sched_wait
    );
    // Recovery: later schedules were received and bursts resumed normally.
    assert!(pc.stats.schedules_received >= 45);
    assert_eq!(stats.missed_frames, 0, "miss recovery kept the radio on");
}

#[test]
fn lost_mark_is_recovered_via_the_next_schedule() {
    let mut proxy = ScriptedProxy::new();
    proxy.unmark_bursts = vec![10];
    let (mut world, c) = run(proxy, PolicyParams::default(), 5);
    let stats = *world.stats(c);
    let pc = world.node_mut::<PowerClient>(c);
    // Ordering rule (1): the next schedule found the client still awaiting
    // its mark and was deferred, then applied.
    assert!(pc.stats.deferred_schedules >= 1);
    assert_eq!(stats.missed_frames, 0);
    assert!(pc.stats.schedules_received >= 45);
}

#[test]
fn unchanged_flag_skips_srp_wakes_without_losses() {
    let mut proxy = ScriptedProxy::new();
    proxy.flag_unchanged = true;
    let cfg = PolicyParams { skip_unchanged: true, ..PolicyParams::default() };
    let (mut world, c) = run(proxy, cfg, 10);
    let stats = *world.stats(c);
    let rep = world.wnic_report(c).unwrap();
    let sleep_with = rep.sleep.as_secs_f64();
    let pc = world.node_mut::<PowerClient>(c);
    assert!(pc.stats.skipped_srp_wakes > 20, "skipped {}", pc.stats.skipped_srp_wakes);
    assert_eq!(stats.missed_frames, 0, "optimization must not cost data");

    // And it must actually save energy versus not skipping.
    let mut proxy2 = ScriptedProxy::new();
    proxy2.flag_unchanged = true;
    let (mut world2, c2) = run(proxy2, PolicyParams::default(), 10);
    let rep2 = world2.wnic_report(c2).unwrap();
    assert!(
        sleep_with > rep2.sleep.as_secs_f64(),
        "skip-unchanged slept {:.2}s vs baseline {:.2}s",
        sleep_with,
        rep2.sleep.as_secs_f64()
    );
}

#[test]
fn proxy_going_silent_leaves_client_awake_but_lossless() {
    let mut proxy = ScriptedProxy::new();
    proxy.max_intervals = 20; // proxy dies at t=2s
    let (mut world, c) = run(proxy, PolicyParams::default(), 6);
    let stats = *world.stats(c);
    assert_eq!(stats.missed_frames, 0);
    let rep = world.wnic_report(c).unwrap();
    // After the proxy dies the client declares a miss and stays in
    // high-power mode waiting (§4.3 worst-case behaviour).
    assert!(rep.sleep < SimDuration::from_secs(3));
    let pc = world.node_mut::<PowerClient>(c);
    assert!(pc.stats.schedules_missed >= 1);
}

#[test]
fn larger_early_transition_wakes_earlier_and_wastes_more() {
    let mk = |early_ms: u64| {
        let cfg = PolicyParams {
            early_transition: SimDuration::from_ms(early_ms),
            ..PolicyParams::default()
        };
        let (mut world, c) = run(ScriptedProxy::new(), cfg, 10);
        let rep = world.wnic_report(c).unwrap();
        let pc = world.node_mut::<PowerClient>(c);
        (rep.total_mj, pc.stats.early_wait)
    };
    let (e2, w2) = mk(2);
    let (e10, w10) = mk(10);
    assert!(w10 > w2, "early wait {w10} !> {w2}");
    assert!(e10 > e2, "energy {e10} !> {e2}");
}

/// Run `client` (on a WaveLAN card exactly when `wnic`) for 5 s against a
/// proxy that skips two broadcasts, recording metrics and events on one
/// lane. Returns the world, the proxy's bursts and the export.
fn recorded_run(client: PowerClient, wnic: bool) -> (World, NodeId, u64, ObsReport) {
    let mut proxy = ScriptedProxy::new();
    proxy.skip_broadcasts = vec![20, 21];
    let (mut world, p, c) = build_world(proxy, client, wnic);
    let obs = world.install_recorder(true, true);
    world.run_until(SimTime::from_secs(5));
    let bursts = world.node_mut::<ScriptedProxy>(p).bursts_sent;
    (world, c, bursts, obs.export().expect("recorder enabled"))
}

fn wake_leads(obs: &ObsReport) -> usize {
    obs.events.iter().filter(|e| matches!(e.kind, EventKind::WakeLead { .. })).count()
}

#[test]
fn monitor_mode_daemon_only_hosts_its_app() {
    let (mut world, c, bursts, obs) = recorded_run(PowerClient::monitor(sink()), false);
    assert!(bursts >= 49, "bursts {bursts}");
    let pc = world.node_mut::<PowerClient>(c);
    assert_eq!(pc.stats, PolicyStats::default(), "no policy ran");
    // Every burst frame reached the app.
    assert_eq!(pc.app_mut::<CountingSink>().packets, 2 * bursts);
    assert_eq!(obs.hist(Hist::WakeLeadUs).count, 0);
    assert_eq!(wake_leads(&obs), 0);

    // The same world with a live-radio client runs the policy: it counts
    // schedules applied and missed and marks seen, and records its wake
    // leads.
    let live = PowerClient::live(CLIENT, PolicyParams::default(), sink());
    let (mut world, c, _, obs) = recorded_run(live, true);
    let stats = world.node_mut::<PowerClient>(c).stats;
    assert!(stats.schedules_applied > 0, "{stats:?}");
    assert!(stats.schedules_missed > 0, "{stats:?}");
    assert!(stats.marks_received > 0, "{stats:?}");
    assert!(obs.hist(Hist::WakeLeadUs).count > 0);
    assert!(wake_leads(&obs) > 0);
}
