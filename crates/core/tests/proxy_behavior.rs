//! Behavioral tests for the proxy over a real mini-world: interception,
//! buffering-until-burst, schedule cadence, marking, pass-through mode,
//! and queue overflow.

use std::any::Any;

use powerburst_core::{PolicyKind, Proxy, ProxyConfig, ProxyMode, Schedule, PROXY_AP, PROXY_LAN};
use powerburst_net::{
    ports, AccessPoint, AirtimeModel, ApDelayParams, Ctx, Delivery, Endpoint, HostAddr, IfaceId,
    LinkSpec, Node, NodeConfig, NodeId, Packet, SockAddr, TimerToken, World, AP_RADIO, AP_WIRED,
};
use powerburst_sim::{SimDuration, SimTime};
use powerburst_transport::StreamPayload;

const SERVER: HostAddr = HostAddr(1);
const PROXY_HOST: HostAddr = HostAddr(3);
const CLIENT: HostAddr = HostAddr(100);

/// UDP source that sends `count` packets spaced `gap` apart.
struct UdpSource {
    count: u64,
    sent: u64,
    gap: SimDuration,
    payload: usize,
}

impl Node for UdpSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_ms(10), 0);
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _pkt: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        if self.sent >= self.count {
            return;
        }
        let payload = StreamPayload { flow: 0, seq: self.sent }.encode(self.payload);
        self.sent += 1;
        ctx.send_assigning(
            IfaceId(0),
            Packet::udp(
                0,
                SockAddr::new(SERVER, ports::MEDIA),
                SockAddr::new(CLIENT, ports::MEDIA),
                payload,
            ),
        );
        ctx.set_timer(self.gap, 0);
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Always-on client that records every packet's arrival time.
#[derive(Default)]
struct Recorder {
    data: Vec<(SimTime, bool)>, // (arrival, marked)
    schedules: Vec<(SimTime, Schedule)>,
}

impl Node for Recorder {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, pkt: Packet) {
        if pkt.dst.port == ports::SCHEDULE {
            if let Some(s) = Schedule::decode(&pkt.payload) {
                self.schedules.push((ctx.now(), s));
            }
        } else {
            self.data.push((ctx.now(), pkt.tos_mark));
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct TestWorld {
    world: World,
    proxy: NodeId,
    client: NodeId,
}

fn build(policy: PolicyKind, mode: ProxyMode, source: UdpSource) -> TestWorld {
    let mut world = World::new(17);
    let src = world.add_node(Box::new(source), NodeConfig::wired(SERVER));
    let mut pcfg =
        ProxyConfig::new(SockAddr::new(PROXY_HOST, ports::SCHEDULE), vec![CLIENT], policy);
    pcfg.mode = mode;
    let proxy = world.add_node(
        Box::new(Proxy::new(pcfg)),
        NodeConfig { host: Some(PROXY_HOST), clock: Default::default(), wnic: None },
    );
    let ap = world.add_node(
        Box::new(AccessPoint::new(ApDelayParams::deterministic(300.0))),
        NodeConfig::infrastructure(),
    );
    let client = world.add_node(
        Box::new(Recorder::default()),
        NodeConfig { host: Some(CLIENT), clock: Default::default(), wnic: None },
    );
    world.add_link(
        Endpoint { node: src, iface: IfaceId(0) },
        Endpoint { node: proxy, iface: PROXY_LAN },
        LinkSpec::FAST_ETHERNET,
    );
    world.add_link(
        Endpoint { node: proxy, iface: PROXY_AP },
        Endpoint { node: ap, iface: AP_WIRED },
        LinkSpec::FAST_ETHERNET,
    );
    world.add_cell(
        AirtimeModel { jitter_us: 0, ..AirtimeModel::DSSS_11MBPS },
        SimDuration::from_ms(150),
        ap,
    );
    world.attach_wireless_cell(ap, AP_RADIO, 0);
    world.attach_wireless_cell(client, IfaceId(0), 0);
    TestWorld { world, proxy, client }
}

fn fixed(ms: u64) -> PolicyKind {
    PolicyKind::DynamicFixed { interval: SimDuration::from_ms(ms) }
}

#[test]
fn datagrams_are_buffered_and_burst_on_schedule() {
    // 40 packets, one every 10 ms — a steady trickle. The proxy must turn
    // them into per-interval bursts: data clustered shortly after each
    // schedule broadcast, not spread across the interval.
    let src = UdpSource { count: 40, sent: 0, gap: SimDuration::from_ms(10), payload: 400 };
    let mut tw = build(fixed(100), ProxyMode::Split, src);
    tw.world.run_until(SimTime::from_secs(1));
    let rec = tw.world.node_mut::<Recorder>(tw.client);
    assert_eq!(rec.data.len(), 40, "all data delivered");
    assert!(rec.schedules.len() >= 8, "schedules {}", rec.schedules.len());
    // Every data arrival within 30 ms of the preceding schedule broadcast.
    let scheds: Vec<SimTime> = rec.schedules.iter().map(|(t, _)| *t).collect();
    for (t, _) in &rec.data {
        let prev = scheds.iter().filter(|s| **s <= *t).max().expect("schedule first");
        let off = t.since(*prev);
        assert!(off < SimDuration::from_ms(30), "data {off} into interval");
    }
}

#[test]
fn each_nonempty_interval_ends_with_exactly_one_mark() {
    let src = UdpSource { count: 60, sent: 0, gap: SimDuration::from_ms(7), payload: 300 };
    let mut tw = build(fixed(100), ProxyMode::Split, src);
    tw.world.run_until(SimTime::from_secs(1));
    let rec = tw.world.node_mut::<Recorder>(tw.client);
    // Partition data by schedule arrivals; each partition must end marked
    // and contain exactly one mark.
    let scheds: Vec<SimTime> = rec.schedules.iter().map(|(t, _)| *t).collect();
    for win in scheds.windows(2) {
        let in_interval: Vec<&(SimTime, bool)> =
            rec.data.iter().filter(|(t, _)| *t >= win[0] && *t < win[1]).collect();
        if in_interval.is_empty() {
            continue;
        }
        let marks = in_interval.iter().filter(|(_, m)| *m).count();
        assert_eq!(marks, 1, "interval at {} has {marks} marks", win[0]);
        assert!(in_interval.last().unwrap().1, "mark is last");
    }
}

#[test]
fn schedule_cadence_matches_the_policy() {
    let src = UdpSource { count: 50, sent: 0, gap: SimDuration::from_ms(10), payload: 300 };
    let mut tw = build(fixed(100), ProxyMode::Split, src);
    tw.world.run_until(SimTime::from_secs(2));
    let rec = tw.world.node_mut::<Recorder>(tw.client);
    let ts: Vec<SimTime> = rec.schedules.iter().map(|(t, _)| *t).collect();
    assert!(ts.len() >= 18);
    for w in ts.windows(2) {
        let gap = w[1].since(w[0]).as_ms() as i64;
        assert!((gap - 100).abs() <= 15, "cadence gap {gap}ms");
    }
    // The broadcast schedule announces the same interval.
    let (_, s) = &rec.schedules[2];
    assert_eq!(s.next_srp, SimDuration::from_ms(100));
}

#[test]
fn rendezvous_offsets_in_schedule_match_actual_burst_times() {
    let src = UdpSource { count: 50, sent: 0, gap: SimDuration::from_ms(10), payload: 300 };
    let mut tw = build(fixed(100), ProxyMode::Split, src);
    tw.world.run_until(SimTime::from_secs(1));
    let rec = tw.world.node_mut::<Recorder>(tw.client);
    // For each schedule carrying an entry, the first data frame of that
    // interval should land near (schedule arrival + rp_offset): both paths
    // share the AP/medium latency, so the skew is bounded by airtime.
    let mut checked = 0;
    for ((t_sched, sched), next) in
        rec.schedules.iter().zip(rec.schedules.iter().skip(1).map(|(t, _)| *t))
    {
        let Some(entry) = sched.entries.first() else { continue };
        let first_data = rec.data.iter().find(|(t, _)| *t > *t_sched && *t < next);
        if let Some((t_data, _)) = first_data {
            let expected = *t_sched + entry.rp_offset;
            let skew =
                if *t_data > expected { t_data.since(expected) } else { expected.since(*t_data) };
            assert!(skew < SimDuration::from_ms(5), "rp skew {skew}");
            checked += 1;
        }
    }
    assert!(checked >= 5, "checked {checked} intervals");
}

#[test]
fn passthrough_mode_still_bursts_udp() {
    let src = UdpSource { count: 30, sent: 0, gap: SimDuration::from_ms(10), payload: 300 };
    let mut tw = build(fixed(100), ProxyMode::PassThrough, src);
    tw.world.run_until(SimTime::from_secs(1));
    let proxy_stats = tw.world.node_mut::<Proxy>(tw.proxy).stats;
    assert!(proxy_stats.udp_packets_sent >= 30);
    assert_eq!(proxy_stats.splices_created, 0, "no splices in pass-through");
    let rec = tw.world.node_mut::<Recorder>(tw.client);
    assert_eq!(rec.data.len(), 30);
}

#[test]
fn empty_cell_sends_empty_schedules_and_nothing_else() {
    let src = UdpSource { count: 0, sent: 0, gap: SimDuration::from_ms(10), payload: 100 };
    let mut tw = build(fixed(100), ProxyMode::Split, src);
    tw.world.run_until(SimTime::from_secs(1));
    let rec = tw.world.node_mut::<Recorder>(tw.client);
    assert!(rec.data.is_empty());
    assert!(rec.schedules.len() >= 9);
    assert!(rec.schedules.iter().all(|(_, s)| s.entries.is_empty()));
}

#[test]
fn queue_overflow_drops_are_counted() {
    // Source far faster than the slot capacity of a tiny interval: the
    // per-client queue (256 KiB) must eventually tail-drop.
    let src = UdpSource { count: 4_000, sent: 0, gap: SimDuration::from_us(200), payload: 700 };
    let mut tw = build(fixed(500), ProxyMode::Split, src);
    tw.world.run_until(SimTime::from_secs(3));
    let proxy = tw.world.node_mut::<Proxy>(tw.proxy);
    assert!(proxy.stats.queue_drops > 0, "expected tail drops under overload");
}

#[test]
fn trace_records_bursts_as_delivered() {
    let src = UdpSource { count: 60, sent: 0, gap: SimDuration::from_ms(10), payload: 300 };
    let mut tw = build(fixed(100), ProxyMode::Split, src);
    tw.world.run_until(SimTime::from_secs(1));
    let trace = tw.world.take_trace();
    let delivered =
        trace.iter().filter(|r| r.dst.host == CLIENT && r.delivery == Delivery::Delivered).count();
    assert_eq!(delivered, 60);
    let marks = trace.iter().filter(|r| r.tos_mark).count();
    assert!(marks >= 5, "marks {marks}");
}
