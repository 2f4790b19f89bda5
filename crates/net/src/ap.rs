//! The wireless access point.
//!
//! The AP bridges the proxy-side Ethernet onto the shared radio medium.
//! §3.3 of the paper is explicit that the AP is the reason delay
//! compensation exists: "Even though the proxy is as close to the client as
//! possible, all packets must pass through the access point. This ... can
//! cause a packet to arrive earlier or later than expected."
//!
//! [`ApDelayProcess`] models that forwarding delay as a constant base plus
//! (a) small i.i.d. per-packet noise, (b) a slowly drifting random-walk
//! component (the "several subsequent schedule packets will arrive
//! according to the same pattern" correlation the adaptive algorithm
//! exploits), and (c) occasional queueing spikes with an exponential tail.
//! The positive skew of the spikes is what makes *early* transition
//! amounts valuable and drives the Figure 6 trade-off.

use std::any::Any;
use std::collections::VecDeque;

use powerburst_obs::Counter;
use powerburst_sim::{SimDuration, SimTime};
use rand::Rng;

use crate::addr::IfaceId;
use crate::faults::ApJitterFault;
use crate::node::{Ctx, Node, TimerToken};
use crate::packet::Packet;

/// The AP's wired interface number.
pub const AP_WIRED: IfaceId = IfaceId(0);
/// The AP's radio interface number.
pub const AP_RADIO: IfaceId = IfaceId(1);

/// Parameters of the AP forwarding-delay process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApDelayParams {
    /// Constant forwarding latency, microseconds.
    pub base_us: f64,
    /// Uniform i.i.d. per-packet noise in `[0, noise_us]`.
    pub noise_us: f64,
    /// Random-walk step standard deviation per forwarded packet.
    pub walk_sigma_us: f64,
    /// Clamp for the walk component, `[0, walk_max_us]`.
    pub walk_max_us: f64,
    /// Probability a packet hits a queueing spike.
    pub spike_prob: f64,
    /// Mean of the exponential spike size, microseconds.
    pub spike_mean_us: f64,
    /// Hard cap on a single spike, microseconds.
    pub spike_cap_us: f64,
}

impl Default for ApDelayParams {
    fn default() -> Self {
        ApDelayParams {
            base_us: 300.0,
            noise_us: 400.0,
            walk_sigma_us: 180.0,
            walk_max_us: 3_500.0,
            spike_prob: 0.15,
            spike_mean_us: 2_500.0,
            spike_cap_us: 9_000.0,
        }
    }
}

impl ApDelayParams {
    /// A perfectly deterministic AP (unit tests, calibration).
    pub fn deterministic(base_us: f64) -> ApDelayParams {
        ApDelayParams {
            base_us,
            noise_us: 0.0,
            walk_sigma_us: 0.0,
            walk_max_us: 0.0,
            spike_prob: 0.0,
            spike_mean_us: 0.0,
            spike_cap_us: 0.0,
        }
    }
}

/// Stateful per-packet delay sampler.
#[derive(Debug, Clone)]
pub struct ApDelayProcess {
    params: ApDelayParams,
    walk_us: f64,
}

impl ApDelayProcess {
    /// New process at the walk's floor.
    pub fn new(params: ApDelayParams) -> ApDelayProcess {
        ApDelayProcess { params, walk_us: 0.0 }
    }

    /// Approximate standard normal via Irwin–Hall (sum of 12 uniforms).
    fn approx_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        let mut s = 0.0;
        for _ in 0..12 {
            s += rng.random::<f64>();
        }
        s - 6.0
    }

    /// Sample the forwarding delay for the next packet.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> SimDuration {
        let p = &self.params;
        if p.walk_sigma_us > 0.0 {
            self.walk_us += p.walk_sigma_us * Self::approx_normal(rng);
            self.walk_us = self.walk_us.clamp(0.0, p.walk_max_us);
        }
        let mut d = p.base_us + self.walk_us;
        if p.noise_us > 0.0 {
            d += rng.random_range(0.0..p.noise_us);
        }
        if p.spike_prob > 0.0 && rng.random::<f64>() < p.spike_prob {
            let u: f64 = rng.random::<f64>().max(1e-12);
            d += (-p.spike_mean_us * u.ln()).min(p.spike_cap_us);
        }
        SimDuration::from_us(d.max(0.0).round() as u64)
    }
}

/// The access-point node: wired iface 0 bridges to radio iface 1.
pub struct AccessPoint {
    delay: ApDelayProcess,
    /// Fixed uplink (radio→wired) forwarding latency.
    uplink_delay: SimDuration,
    /// Frames awaiting release, per direction (index 1 = toward the
    /// radio). The direction is the release timer's token, and the FIFO
    /// guard makes each direction's releases strictly increasing, so a
    /// firing timer always releases the front frame.
    pending: [VecDeque<Packet>; 2],
    /// FIFO guard per direction: a frame never leaves before one that
    /// entered earlier (a real AP's forwarding queue preserves order even
    /// when its latency varies).
    last_out: [SimTime; 2],
    /// Actual departure times per direction, for the ordering invariant.
    last_sent: [SimTime; 2],
    /// Departures observed earlier than a previous departure in the same
    /// direction. The FIFO guard should keep this at zero; a nonzero count
    /// is surfaced as an `ApOrdering` invariant violation in run reports.
    pub fifo_violations: u64,
    /// Injected extra jitter spikes, when a fault plan asks for them.
    /// Sampled from the dedicated fault stream, never from the node's own
    /// RNG, so baseline runs are unaffected.
    fault_jitter: Option<ApJitterFault>,
}

impl AccessPoint {
    /// New AP with the given delay process.
    pub fn new(params: ApDelayParams) -> AccessPoint {
        AccessPoint {
            delay: ApDelayProcess::new(params),
            uplink_delay: SimDuration::from_us(150),
            pending: [VecDeque::new(), VecDeque::new()],
            last_out: [SimTime::ZERO; 2],
            last_sent: [SimTime::ZERO; 2],
            fifo_violations: 0,
            fault_jitter: None,
        }
    }

    /// Install an injected extra-jitter process (builder style).
    pub fn with_fault_jitter(mut self, fault: ApJitterFault) -> AccessPoint {
        self.fault_jitter = Some(fault);
        self
    }

    /// Injected jitter spikes applied so far.
    pub fn fault_spikes(&self) -> u64 {
        self.fault_jitter.as_ref().map(|f| f.spikes).unwrap_or(0)
    }

    fn defer(&mut self, ctx: &mut Ctx<'_>, out: IfaceId, pkt: Packet, delay: SimDuration) {
        let dir = (out == AP_RADIO) as usize;
        let now = ctx.now();
        let mut release = now + delay;
        if release <= self.last_out[dir] {
            release = self.last_out[dir] + SimDuration::from_us(1);
        }
        self.last_out[dir] = release;
        self.pending[dir].push_back(pkt);
        ctx.set_timer(release.since(now), dir as TimerToken);
    }
}

impl Node for AccessPoint {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        if iface == AP_WIRED {
            ctx.obs().incr(Counter::ApForwardedDown);
            let mut d = self.delay.sample(ctx.rng());
            if let Some(f) = self.fault_jitter.as_mut() {
                d += f.sample();
            }
            self.defer(ctx, AP_RADIO, pkt, d);
        } else {
            ctx.obs().incr(Counter::ApForwardedUp);
            let d = self.uplink_delay;
            self.defer(ctx, AP_WIRED, pkt, d);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let dir = token as usize;
        if let Some(pkt) = self.pending[dir].pop_front() {
            let out = if dir == 1 { AP_RADIO } else { AP_WIRED };
            let now = ctx.now();
            if now < self.last_sent[dir] {
                self.fifo_violations += 1;
                ctx.obs().incr(Counter::ApFifoViolations);
            }
            self.last_sent[dir] = now.max(self.last_sent[dir]);
            ctx.send(out, pkt);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerburst_sim::derive_rng;

    #[test]
    fn deterministic_process_returns_base() {
        let mut p = ApDelayProcess::new(ApDelayParams::deterministic(500.0));
        let mut rng = derive_rng(1, 1);
        for _ in 0..10 {
            assert_eq!(p.sample(&mut rng), SimDuration::from_us(500));
        }
    }

    #[test]
    fn delays_are_bounded_and_positive() {
        let params = ApDelayParams::default();
        let mut p = ApDelayProcess::new(params);
        let mut rng = derive_rng(2, 2);
        let cap = (params.base_us + params.walk_max_us + params.noise_us + params.spike_cap_us)
            .round() as u64;
        for _ in 0..5_000 {
            let d = p.sample(&mut rng).as_us();
            assert!(d >= params.base_us as u64);
            assert!(d <= cap, "delay {d} above cap {cap}");
        }
    }

    #[test]
    fn spikes_produce_positive_skew() {
        let mut p = ApDelayProcess::new(ApDelayParams::default());
        let mut rng = derive_rng(3, 3);
        let mut samples: Vec<f64> =
            (0..20_000).map(|_| p.sample(&mut rng).as_us() as f64).collect();
        // Mean and the spike fraction are order-invariant, so compute them
        // first and then sort the vector in place for the median — no clone.
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        // A visible — but minority — fraction of packets see large extra
        // delay (walk excursions plus the exponential spike tail).
        let spiky = samples.iter().filter(|&&d| d > 4_500.0).count() as f64 / samples.len() as f64;
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        assert!(mean > median, "spiky tail should pull mean above median");
        assert!(spiky > 0.01 && spiky < 0.40, "spike fraction {spiky}");
    }

    #[test]
    fn walk_correlates_consecutive_delays() {
        // With only the walk enabled, consecutive samples should be closer
        // to each other than samples far apart (lag-1 autocorrelation).
        let params = ApDelayParams {
            noise_us: 0.0,
            spike_prob: 0.0,
            walk_sigma_us: 100.0,
            walk_max_us: 5_000.0,
            ..ApDelayParams::default()
        };
        let mut p = ApDelayProcess::new(params);
        let mut rng = derive_rng(4, 4);
        let xs: Vec<f64> = (0..4_000).map(|_| p.sample(&mut rng).as_us() as f64).collect();
        let lag_diff: f64 =
            xs.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (xs.len() - 1) as f64;
        let far_diff: f64 =
            xs.iter().zip(xs.iter().skip(200)).map(|(a, b)| (b - a).abs()).sum::<f64>()
                / (xs.len() - 200) as f64;
        assert!(lag_diff < far_diff, "lag1 {lag_diff} far {far_diff}");
    }
}
