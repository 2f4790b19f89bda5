//! The coordinator tier of a multi-cell deployment.
//!
//! One proxy shard schedules each cell autonomously; the coordinator is
//! the only component that sees the whole city, and all it sees are
//! *aggregates*: one fixed-size [`DemandReport`] per shard per SRP
//! interval, answered with one fixed-size [`BudgetGrant`]. Coordination
//! cost is therefore O(cells) per interval — independent of how many
//! clients each cell holds — which is what lets schedule broadcasts stay
//! bounded per-cell while the client population scales (the
//! distributed-scheduling shape of Bi et al., arXiv:1703.05859).
//!
//! The protocol is fully asynchronous: a shard never waits for a grant.
//! It schedules with the last grant it has (initially the full interval)
//! and the coordinator's answer shapes the *next* interval. Losing a
//! report or a grant therefore degrades fairness for one interval, never
//! correctness.
//!
//! Budget arithmetic is integer-only and processes reports in arrival
//! order, so the coordinator adds no nondeterminism to a run.

use std::any::Any;

use powerburst_core::{BudgetGrant, DemandReport};
use powerburst_net::{ports, Ctx, IfaceId, Node, Packet, Proto, SockAddr};

/// The coordinator's single wired interface.
pub const COORD_IFACE: IfaceId = IfaceId(0);

/// Coordinator configuration.
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorConfig {
    /// The coordinator's own address (`ports::COORD`).
    pub addr: SockAddr,
    /// Total airtime pool shared by all cells, in permille of one burst
    /// interval *per cell*. `None` (the default) grants every cell its
    /// full interval — cells are then isolated, which models
    /// non-overlapping channels. `Some(p)` models a shared constraint
    /// (e.g. co-channel interference or a backhaul cap): each cell's
    /// grant is its demand-proportional share of `p × cells`.
    pub pool_permille: Option<u32>,
}

/// Counters the experiment harnesses read after a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoordStats {
    /// Well-formed demand reports received.
    pub reports_received: u64,
    /// Budget grants sent back.
    pub grants_sent: u64,
    /// Datagrams on the coordination port that failed to decode.
    pub malformed: u64,
}

/// Latest known state of one cell.
#[derive(Debug, Clone, Copy, Default)]
struct CellDemand {
    /// Last reported aggregate demand, bytes.
    demand_bytes: u64,
    /// Has this cell ever reported? (Unreported cells don't dilute the
    /// pool.)
    seen: bool,
}

/// The coordinator node.
pub struct Coordinator {
    cfg: CoordinatorConfig,
    /// Latest per-cell demand, indexed densely by cell id.
    cells: Vec<CellDemand>,
    /// Statistics.
    pub stats: CoordStats,
}

impl Coordinator {
    /// Build a coordinator from its configuration.
    pub fn new(cfg: CoordinatorConfig) -> Coordinator {
        Coordinator { cfg, cells: Vec::new(), stats: CoordStats::default() }
    }

    /// The grant (permille of the cell's burst interval) for `cell` under
    /// the current demand picture.
    ///
    /// With no pool every cell gets the full interval. With a pool, the
    /// cell gets its demand-proportional share of `pool × reporting
    /// cells`, clamped to `1..=1000` — the 1‰ floor guarantees a starved
    /// cell still broadcasts schedules and drains slowly instead of
    /// deadlocking.
    fn grant_for(&self, cell: usize) -> u32 {
        let Some(pool) = self.cfg.pool_permille else { return 1000 };
        let d = self.cells[cell].demand_bytes;
        if d == 0 {
            // An idle cell only needs the (tiny) schedule broadcast; give
            // it the floor and leave the pool to cells with traffic.
            return 1;
        }
        let total: u64 = self.cells.iter().filter(|c| c.seen).map(|c| c.demand_bytes).sum();
        let reporting = self.cells.iter().filter(|c| c.seen).count() as u64;
        // share = pool × reporting × d / total, in permille of one interval.
        let share = (pool as u64).saturating_mul(reporting).saturating_mul(d) / total.max(1);
        share.clamp(1, 1000) as u32
    }

    fn on_report(
        &mut self,
        ctx: &mut Ctx<'_>,
        iface: IfaceId,
        src: SockAddr,
        report: DemandReport,
    ) {
        let ci = report.cell as usize;
        if self.cells.len() <= ci {
            self.cells.resize(ci + 1, CellDemand::default());
        }
        self.cells[ci] = CellDemand { demand_bytes: report.demand_bytes, seen: true };
        self.stats.reports_received += 1;
        let grant =
            BudgetGrant { cell: report.cell, seq: report.seq, permille: self.grant_for(ci) };
        let pkt = Packet::udp(0, self.cfg.addr, src, grant.encode());
        // Reply on the interface the report arrived on, so the coordinator
        // works both behind a switch (one link) and wired point-to-point.
        ctx.send_assigning(iface, pkt);
        self.stats.grants_sent += 1;
    }
}

impl Node for Coordinator {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        if pkt.proto != Proto::Udp || pkt.dst.port != ports::COORD {
            return; // not coordination traffic; the coordinator serves nothing else
        }
        match DemandReport::decode(&pkt.payload) {
            Some(report) => self.on_report(ctx, iface, pkt.src, report),
            None => self.stats.malformed += 1,
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerburst_net::{Endpoint, HostAddr, LinkSpec, NodeConfig, TimerToken, World};
    use powerburst_sim::{SimDuration, SimTime};

    /// Stub shard: sends one demand report at start, records grants.
    struct StubShard {
        me: SockAddr,
        coord: SockAddr,
        demand: u64,
        grants: Vec<BudgetGrant>,
    }

    impl Node for StubShard {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_ms(1), 1 as TimerToken);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
            let report = DemandReport {
                cell: self.me.host.0 - 40, // cells 0, 1, ... for hosts 40, 41, ...
                seq: 5,
                clients: 8,
                demand_bytes: self.demand,
            };
            ctx.send_assigning(COORD_IFACE, Packet::udp(0, self.me, self.coord, report.encode()));
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, pkt: Packet) {
            if let Some(g) = BudgetGrant::decode(&pkt.payload) {
                self.grants.push(g);
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Two shards wired to one coordinator; returns the shards' node ids.
    fn coord_world(
        pool: Option<u32>,
        demands: [u64; 2],
    ) -> (World, powerburst_net::NodeId, powerburst_net::NodeId) {
        let mut w = World::new(3);
        let coord_addr = SockAddr::new(HostAddr(4), ports::COORD);
        let coord = w.add_node(
            Box::new(Coordinator::new(CoordinatorConfig { addr: coord_addr, pool_permille: pool })),
            NodeConfig::wired(HostAddr(4)),
        );
        let mut shards = Vec::new();
        for (i, d) in demands.into_iter().enumerate() {
            let host = HostAddr(40 + i as u32);
            let id = w.add_node(
                Box::new(StubShard {
                    me: SockAddr::new(host, ports::COORD),
                    coord: coord_addr,
                    demand: d,
                    grants: Vec::new(),
                }),
                NodeConfig::wired(host),
            );
            // Coordinator iface i ↔ shard iface 0.
            w.add_link(
                Endpoint { node: coord, iface: IfaceId(i as u8) },
                Endpoint { node: id, iface: COORD_IFACE },
                LinkSpec::FAST_ETHERNET,
            );
            shards.push(id);
        }
        (w, shards[0], shards[1])
    }

    #[test]
    fn uncapped_pool_grants_full_interval() {
        let (mut w, s0, s1) = coord_world(None, [1_000_000, 10]);
        w.run_until(SimTime::from_ms(20));
        for (sid, cell) in [(s0, 0u32), (s1, 1u32)] {
            let s = w.node_mut::<StubShard>(sid);
            assert_eq!(s.grants.len(), 1, "exactly one grant per report");
            assert_eq!(s.grants[0], BudgetGrant { cell, seq: 5, permille: 1000 });
        }
    }

    #[test]
    fn capped_pool_splits_proportionally_to_demand() {
        // Pool of 500‰/cell across 2 cells = 1000‰ to split; cell 0 has
        // 3× cell 1's demand. Shard 1 reports after shard 0 (both fire at
        // 1 ms; delivery order follows node order), so its grant sees both
        // demands: 1000 × 250k/1M = 250‰.
        let (mut w, _s0, s1) = coord_world(Some(500), [750_000, 250_000]);
        w.run_until(SimTime::from_ms(20));
        let s = w.node_mut::<StubShard>(s1);
        assert_eq!(s.grants.len(), 1);
        assert_eq!(s.grants[0].permille, 250);
    }

    #[test]
    fn idle_cell_gets_floor_grant_under_a_pool() {
        let (mut w, _s0, s1) = coord_world(Some(500), [5_000, 0]);
        w.run_until(SimTime::from_ms(20));
        let s = w.node_mut::<StubShard>(s1);
        assert_eq!(s.grants.len(), 1);
        assert_eq!(s.grants[0].permille, 1, "idle cell gets the 1‰ floor, not a share");
    }

    #[test]
    fn malformed_coordination_datagrams_are_counted_not_answered() {
        let mut w = World::new(5);
        let coord_addr = SockAddr::new(HostAddr(4), ports::COORD);
        let coord = w.add_node(
            Box::new(Coordinator::new(CoordinatorConfig { addr: coord_addr, pool_permille: None })),
            NodeConfig::wired(HostAddr(4)),
        );
        struct Garbage {
            coord: SockAddr,
        }
        impl Node for Garbage {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let src = SockAddr::new(HostAddr(9), ports::COORD);
                ctx.send_assigning(
                    COORD_IFACE,
                    Packet::udp(0, src, self.coord, bytes::Bytes::from_static(b"nonsense")),
                );
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _pkt: Packet) {
                panic!("garbage must not be answered");
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let g = w.add_node(Box::new(Garbage { coord: coord_addr }), NodeConfig::wired(HostAddr(9)));
        w.add_link(
            Endpoint { node: coord, iface: IfaceId(0) },
            Endpoint { node: g, iface: COORD_IFACE },
            LinkSpec::FAST_ETHERNET,
        );
        w.run_until(SimTime::from_ms(20));
        let c = w.node_mut::<Coordinator>(coord);
        assert_eq!(c.stats.malformed, 1);
        assert_eq!(c.stats.grants_sent, 0);
    }
}
