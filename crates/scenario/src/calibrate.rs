//! The bandwidth microbenchmark (§3.2.2 / experiment M1).
//!
//! "We executed a set of microbenchmarks to create a model of send overhead
//! and latency on our wireless network. From these, we developed a linear
//! cost function based on the message size."
//!
//! [`calibrate`] builds a minimal world (probe host → AP → always-on
//! client) on the testbed's 11 Mb/s DSSS medium and default AP, sends a
//! train of packets at each probe size on an otherwise idle channel,
//! measures every frame's airtime from the monitoring-station trace, and
//! least-squares fits the linear model the proxy then uses for slot
//! budgeting.

use std::any::Any;

use bytes::Bytes;
use powerburst_core::BandwidthModel;
use powerburst_net::{
    AccessPoint, AirtimeModel, ApDelayParams, Ctx, Endpoint, HostAddr, IfaceId, LinkSpec, Node,
    NodeConfig, Packet, SockAddr, TimerToken, World, AP_RADIO, AP_WIRED,
};
use powerburst_sim::{SimDuration, SimTime};
use powerburst_traffic::{CountingSink, NaiveClient};

/// Result of the calibration microbenchmark.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// The fitted linear send-cost model.
    pub model: BandwidthModel,
    /// Fit quality (R²).
    pub r2: f64,
    /// Number of (size, airtime) samples used.
    pub samples: usize,
}

/// Probe payload sizes, bytes: small control packets to full frames.
const SIZES: [usize; 8] = [64, 128, 256, 512, 750, 1_000, 1_250, 1_472];

/// Probes sent at each size.
const PER_SIZE: usize = 20;

/// Sends [`PER_SIZE`] probes of each size, paced so the channel is idle
/// between probes (microbenchmark conditions).
struct ProbeSource {
    addr: SockAddr,
    dst: SockAddr,
    gap: SimDuration,
    idx: usize,
    count: usize,
}

impl Node for ProbeSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.gap, 0);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        let Some(&size) = SIZES.get(self.idx) else { return };
        let payload = Bytes::from(vec![0x5Au8; size]);
        ctx.send_assigning(IfaceId(0), Packet::udp(0, self.addr, self.dst, payload));
        self.count += 1;
        if self.count >= PER_SIZE {
            self.count = 0;
            self.idx += 1;
        }
        if self.idx < SIZES.len() {
            ctx.set_timer(self.gap, 0);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Run the microbenchmark in a world seeded with `seed`.
pub fn calibrate(seed: u64) -> Calibration {
    let server = HostAddr(1);
    let client = HostAddr(2);
    let mut world = World::new(seed);

    let gap = SimDuration::from_ms(5);
    let total_probes = SIZES.len() * PER_SIZE;
    let probe = world.add_node(
        Box::new(ProbeSource {
            addr: SockAddr::new(server, 4000),
            dst: SockAddr::new(client, 4000),
            gap,
            idx: 0,
            count: 0,
        }),
        NodeConfig::wired(server),
    );
    let ap = world.add_node(
        Box::new(AccessPoint::new(ApDelayParams::default())),
        NodeConfig::infrastructure(),
    );
    let sink = world.add_node(
        Box::new(NaiveClient::new(Box::new(CountingSink::new()))),
        NodeConfig { host: Some(client), clock: Default::default(), live_radio: false },
    );
    world.add_link(
        Endpoint { node: probe, iface: IfaceId(0) },
        Endpoint { node: ap, iface: AP_WIRED },
        LinkSpec::FAST_ETHERNET,
    );
    world.add_cell(AirtimeModel::DSSS_11MBPS, SimDuration::from_secs(1), ap);
    world.attach_wireless_cell(ap, AP_RADIO, 0);
    world.attach_wireless_cell(sink, IfaceId(0), 0);

    let horizon = SimTime::ZERO + gap * (total_probes as u64 + 4);
    world.run_until(horizon);

    // Fit (wire size → airtime) from the capture.
    let samples: Vec<(usize, SimDuration)> = world
        .take_trace()
        .iter()
        .filter(|r| r.dst.host == client)
        .map(|r| (r.wire_size, r.airtime))
        .collect();
    let (model, r2) =
        BandwidthModel::fit(&samples).expect("calibration produced enough distinct sizes");
    Calibration { model, r2, samples: samples.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_recovers_medium_model() {
        let cal = calibrate(7);
        assert!(cal.samples >= 70, "samples {}", cal.samples);
        assert!(cal.r2 > 0.98, "r2 {}", cal.r2);
        let truth = AirtimeModel::DSSS_11MBPS;
        // Slope within 5% of the true per-byte cost; intercept within the
        // jitter margin of the true fixed cost.
        assert!(
            (cal.model.beta_us - truth.per_byte_us).abs() / truth.per_byte_us < 0.05,
            "beta {} vs {}",
            cal.model.beta_us,
            truth.per_byte_us
        );
        assert!(
            (cal.model.alpha_us - truth.fixed_us).abs() < 120.0,
            "alpha {} vs {}",
            cal.model.alpha_us,
            truth.fixed_us
        );
    }

    #[test]
    fn calibrated_model_predicts_airtime() {
        let cal = calibrate(9);
        let predicted = cal.model.send_time(1_000).as_us() as f64;
        let truth = AirtimeModel::DSSS_11MBPS.airtime(1_000).as_us() as f64;
        assert!((predicted - truth).abs() / truth < 0.08, "{predicted} vs {truth}");
    }
}
