//! Per-layer floors: each layer's hot operation timed alone, through the
//! same public functions the simulator calls. A floor is the cost of the
//! operation with nothing around it, so it bounds what an optimisation of
//! that layer can save per operation. Each floor runs a fixed number of
//! operations in batches and reports the median batch's cost per
//! operation together with the operation count.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use powerburst_core::{
    registry, BuilderConfig, ClientDemand, MarkCoordinator, PolicyScratch, Schedule,
};
use powerburst_energy::{CardSpec, Wnic};
use powerburst_net::{
    ChannelQuality, Endpoint, HostAddr, IfaceId, LinkSpec, NodeConfig, SockAddr, StaticRouter,
    Switch, World,
};
use powerburst_sim::{EventQueue, SimDuration, SimTime};
use powerburst_traffic::{CbrSource, CbrSpec, CountingSink, NaiveClient};
use powerburst_transport::{Loopback, TcpConfig, TcpEndpoint, STREAM_HEADER};

use crate::stats::median;

/// One floor's reading.
#[derive(Debug, Clone)]
pub struct Floor {
    /// Metric name (`layer.what`).
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Median over batches (ns per op, or MB/s for throughput floors).
    pub value: f64,
    /// Operations timed, over all batches.
    pub ops: u64,
}

/// Time `batches` calls of `batch`, each doing `ops` operations, and
/// return the median nanoseconds per operation.
fn ns_per_op(batches: usize, ops: u64, mut batch: impl FnMut()) -> (f64, u64) {
    let mut per_op = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        batch();
        per_op.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    (median(&per_op), ops * batches as u64)
}

/// Every floor, in report order. Returns an error if a floor's own output
/// check fails (a lost packet, a short TCP transfer).
pub(crate) fn run_all(quick: bool) -> Result<Vec<Floor>, String> {
    // Medians over an odd batch count; tests run three batches.
    let n = if quick { 3 } else { 41 };
    let mut out = Vec::new();
    let (v, ops) = queue_push_pop(n);
    out.push(Floor { name: "sim.queue_ns_per_event", unit: "ns", value: v, ops });
    let (v, ops) = queue_push_cancel_pop(n);
    out.push(Floor { name: "sim.queue_cancel_ns_per_event", unit: "ns", value: v, ops });
    let (v, ops) = forward(n.min(7))?;
    out.push(Floor { name: "net.forward_ns_per_pkt", unit: "ns", value: v, ops });
    for (name, policy) in [
        ("core.policy_build_ns.fixed", "fixed"),
        ("core.policy_build_ns.variable", "variable"),
        ("core.policy_build_ns.channel", "channel"),
        ("core.policy_build_ns.buffer", "buffer"),
    ] {
        let (v, ops) = policy_build(policy, n);
        out.push(Floor { name, unit: "ns", value: v, ops });
    }
    let (v, ops) = schedule_codec(n)?;
    out.push(Floor { name: "core.schedule_codec_ns", unit: "ns", value: v, ops });
    let (v, ops) = marking(n);
    out.push(Floor { name: "core.marking_ns_per_burst", unit: "ns", value: v, ops });
    let (v, ops) = wnic(n);
    out.push(Floor { name: "energy.wnic_ns_per_cycle", unit: "ns", value: v, ops });
    let (v, ops) = tcp(1 << 20, false, n.min(9))?;
    out.push(Floor { name: "transport.tcp_mb_per_s.lossless", unit: "MB/s", value: v, ops });
    let (v, ops) = tcp(256 << 10, true, n.min(9))?;
    out.push(Floor { name: "transport.tcp_mb_per_s.loss5", unit: "MB/s", value: v, ops });
    Ok(out)
}

/// `EventQueue` push then pop of 1 000 events at scattered times; an op
/// is one event pushed and popped.
fn queue_push_pop(batches: usize) -> (f64, u64) {
    let mut q = EventQueue::with_capacity(1_000);
    ns_per_op(batches, 20_000, || {
        for _ in 0..20 {
            for i in 0..1_000u64 {
                q.push(SimTime::from_us(i * 37 % 5_000), i);
            }
            while let Some(ev) = q.pop() {
                black_box(ev);
            }
        }
    })
}

/// Push 1 000 events, cancel every other one, pop the rest; an op is one
/// event pushed.
fn queue_push_cancel_pop(batches: usize) -> (f64, u64) {
    let mut q = EventQueue::with_capacity(1_000);
    let mut ids = Vec::with_capacity(1_000);
    ns_per_op(batches, 20_000, || {
        for _ in 0..20 {
            ids.clear();
            ids.extend((0..1_000u64).map(|i| q.push(SimTime::from_us(i * 37 % 5_000), i)));
            for id in ids.iter().step_by(2) {
                q.cancel(*id);
            }
            while let Some(ev) = q.pop() {
                black_box(ev);
            }
        }
    })
}

/// A bare wired world, `CbrSource` → `Switch` → `CountingSink`, at the
/// smallest packet the source can send; an op is one packet delivered.
fn forward(batches: usize) -> Result<(f64, u64), String> {
    const PKTS: u64 = 20_000;
    let interval = SimDuration::from_us(10);
    let mut per_pkt = Vec::new();
    for batch in 0..batches as u64 {
        let (src_host, dst_host) = (HostAddr(1), HostAddr(2));
        let mut world = World::new(batch);
        let spec = CbrSpec {
            dst: SockAddr::new(dst_host, 5_000),
            packet_bytes: STREAM_HEADER,
            interval,
            start: SimTime::ZERO,
            stop: SimTime::ZERO + interval * PKTS,
            flow: 0,
        };
        let src = world.add_node(
            Box::new(CbrSource::new(SockAddr::new(src_host, 5_000), spec)),
            NodeConfig::wired(src_host),
        );
        let mut router = StaticRouter::new();
        router.add_route(src_host, IfaceId(0));
        router.add_route(dst_host, IfaceId(1));
        let switch = world.add_node(Box::new(Switch::new(router)), NodeConfig::infrastructure());
        let sink = world.add_node(
            Box::new(NaiveClient::new(Box::new(CountingSink::new()))),
            NodeConfig::wired(dst_host),
        );
        let link = LinkSpec::FAST_ETHERNET;
        world.add_link(
            Endpoint { node: src, iface: IfaceId(0) },
            Endpoint { node: switch, iface: IfaceId(0) },
            link,
        );
        world.add_link(
            Endpoint { node: switch, iface: IfaceId(1) },
            Endpoint { node: sink, iface: IfaceId(0) },
            link,
        );
        let t = Instant::now();
        world.run_until(SimTime::ZERO + interval * (PKTS + 100));
        let ns = t.elapsed().as_nanos() as f64;
        let got = world.node_mut::<NaiveClient>(sink).app_mut::<CountingSink>().packets;
        if got != PKTS {
            return Err(format!("forwarding floor delivered {got} of {PKTS} packets"));
        }
        per_pkt.push(ns / PKTS as f64);
    }
    Ok((median(&per_pkt), PKTS * per_pkt.len() as u64))
}

/// Demand snapshots of `n` clients with varied queue sizes, channel
/// states and reported playout buffers.
fn demands(n: u32) -> Vec<ClientDemand> {
    (0..n)
        .map(|i| {
            let mut d = ClientDemand::new(
                HostAddr(100 + i),
                2_000 + 1_500 * u64::from(i % 7),
                600 * u64::from(i % 3),
                400 + 150 * (i as usize % 8),
            );
            d.channel =
                [ChannelQuality::Good, ChannelQuality::Fair, ChannelQuality::Bad][i as usize % 3];
            d.buffer_bytes = Some(8_000 * u64::from(i % 6));
            d
        })
        .collect()
}

/// `SchedulePolicy::build_into` for the named policy, alternating 10- and
/// 64-client snapshots; an op is one build.
fn policy_build(name: &str, batches: usize) -> (f64, u64) {
    let policy = registry()
        .into_iter()
        .find(|p| p.name() == name)
        .expect("every floor policy is in the registry");
    let cfg = BuilderConfig::default();
    let snaps = [demands(10), demands(64)];
    let mut scratch = PolicyScratch::default();
    let mut out = Schedule::default();
    let mut seq = 0u64;
    ns_per_op(batches, 2_000, || {
        for _ in 0..1_000 {
            for d in &snaps {
                seq += 1;
                policy.build_into(&cfg, black_box(d), seq, &mut scratch, &mut out);
                black_box(&out);
            }
        }
    })
}

/// `Schedule::encode` then `Schedule::decode_into`, alternating 10- and
/// 64-entry schedules; an op is one encode plus one decode.
fn schedule_codec(batches: usize) -> Result<(f64, u64), String> {
    let cfg = BuilderConfig::default();
    let fixed = registry().into_iter().next().expect("registry lists the fixed policy first");
    let scheds = [fixed.build(&cfg, &demands(10), 1), fixed.build(&cfg, &demands(64), 2)];
    for s in &scheds {
        let mut back = Schedule::default();
        if !Schedule::decode_into(&s.encode(), &mut back) || back != *s {
            return Err("schedule codec floor: decode(encode(s)) != s".into());
        }
    }
    let mut into = Schedule::default();
    Ok(ns_per_op(batches, 20_000, || {
        for _ in 0..10_000 {
            for s in &scheds {
                let bytes = black_box(s).encode();
                black_box(Schedule::decode_into(&bytes, &mut into));
            }
        }
    }))
}

/// The marking protocol over one burst: burst bytes in, end of burst,
/// ten forwarded packets; an op is one burst.
fn marking(batches: usize) -> (f64, u64) {
    let mut mc = MarkCoordinator::new();
    ns_per_op(batches, 20_000, || {
        for _ in 0..20_000 {
            mc.on_burst_bytes(black_box(14_600));
            black_box(mc.end_burst());
            for _ in 0..10 {
                black_box(mc.on_forward(1_460));
            }
        }
    })
}

/// The WNIC energy meter through wake, receive and sleep; an op is one
/// cycle.
fn wnic(batches: usize) -> (f64, u64) {
    ns_per_op(batches, 20_000, || {
        for _ in 0..20 {
            let mut w = Wnic::new(CardSpec::WAVELAN_DSSS);
            let mut t = SimTime::ZERO;
            for _ in 0..1_000 {
                t += SimDuration::from_ms(5);
                w.wake(t);
                t += SimDuration::from_ms(5);
                w.on_receive(t, SimDuration::from_us(1_500));
                w.sleep(t);
            }
            black_box(w.finish(t));
        }
    })
}

/// One `bytes`-long transfer over the TCP `Loopback`, lossless or with
/// every 20th segment dropped (5 %); the value is MB/s of host time, an
/// op is one transfer.
fn tcp(bytes: usize, lossy: bool, transfers: usize) -> Result<(f64, u64), String> {
    let mut rates = Vec::with_capacity(transfers);
    for _ in 0..transfers {
        let cfg = TcpConfig::default();
        let (a_addr, b_addr) = (SockAddr::new(HostAddr(1), 1), SockAddr::new(HostAddr(2), 2));
        let a = TcpEndpoint::active(a_addr, b_addr, cfg);
        let b = TcpEndpoint::passive(b_addr, a_addr, cfg);
        let mut lo = Loopback::new(a, b, SimDuration::from_ms(2));
        if lossy {
            lo = lo.with_loss(|idx, _| idx % 20 == 13);
        }
        let t = Instant::now();
        lo.a.connect(SimTime::ZERO);
        lo.run(100);
        let now = lo.now();
        lo.a.send(now, Bytes::from(vec![0u8; bytes]));
        lo.run(2_000_000);
        let got = lo.b_received().len();
        let s = t.elapsed().as_secs_f64();
        if got != bytes {
            return Err(format!("tcp floor delivered {got} of {bytes} bytes"));
        }
        rates.push(bytes as f64 / s / 1e6);
    }
    Ok((median(&rates), transfers as u64))
}
