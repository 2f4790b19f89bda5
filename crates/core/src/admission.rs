//! Admission control — the §3.2.1 future-work feature.
//!
//! "At present, we do not perform admission control at the proxy and so do
//! not handle overload; to solve this problem we could leverage off of the
//! significant amount of work in this area (e.g., [Vin et al.])."
//!
//! This module implements the classic reservation-style scheme that
//! citation points at: the proxy tracks the measured airtime load of every
//! admitted flow (exponentially-decayed rate estimates) and admits a new
//! flow only if the measured load plus a nominal reservation for the
//! newcomer stays under 85 % of the channel. Rejected flows are dropped
//! at the proxy (UDP) or refused with a reset (TCP), so admitted clients
//! keep their scheduled slots, their low loss, and their energy savings
//! even when the cell is oversubscribed.

use std::collections::BTreeMap;

use powerburst_net::SockAddr;
use powerburst_sim::{SimDuration, SimTime};

use crate::bandwidth::BandwidthModel;

/// Fraction of the channel the proxy is willing to commit.
const CAPACITY_FRACTION: f64 = 0.85;
/// Reservation assumed for a flow whose rate is not yet known, bits/s.
const ASSUMED_FLOW_BPS: f64 = 450_000.0;
/// Rate-estimator time constant.
const TAU: SimDuration = SimDuration::from_secs(2);
/// A silent admitted flow releases its reservation after this long.
const FLOW_EXPIRY: SimDuration = SimDuration::from_secs(10);

/// A flow is identified by its (destination client endpoint, source
/// endpoint) pair — the granularity at which streams arrive at the proxy.
pub type FlowKey = (SockAddr, SockAddr);

#[derive(Debug, Clone, Copy)]
struct FlowState {
    /// Exponentially-decayed byte rate, bytes/s.
    rate_bytes_s: f64,
    last_update: SimTime,
    admitted: bool,
}

/// Counters for reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionStats {
    /// Flows admitted.
    pub admitted: u64,
    /// Flows rejected at arrival.
    pub rejected: u64,
    /// Packets dropped because their flow was rejected.
    pub packets_refused: u64,
}

impl AdmissionStats {
    /// Fold another shard's counters into this one (multi-cell runs
    /// report the sum over shards).
    pub fn merge(&mut self, o: &AdmissionStats) {
        self.admitted += o.admitted;
        self.rejected += o.rejected;
        self.packets_refused += o.packets_refused;
    }
}

/// The admission controller.
#[derive(Debug)]
pub struct AdmissionControl {
    /// Airtime cost per payload byte at typical media framing, seconds.
    airtime_per_byte_s: f64,
    /// Keyed by flow; a BTreeMap so load sums iterate in a fixed order
    /// (f64 addition is order-sensitive — lint rule D002).
    flows: BTreeMap<FlowKey, FlowState>,
    /// Statistics.
    pub stats: AdmissionStats,
}

impl AdmissionControl {
    /// Build a controller against the proxy's send-cost model, using
    /// `typical_pkt` bytes as the framing granularity for airtime costs.
    pub fn new(bw: &BandwidthModel, typical_pkt: usize) -> AdmissionControl {
        let per_pkt = bw.send_time(typical_pkt).as_secs_f64();
        AdmissionControl {
            airtime_per_byte_s: per_pkt / typical_pkt as f64,
            flows: BTreeMap::new(),
            stats: AdmissionStats::default(),
        }
    }

    fn decay(&self, st: &FlowState, now: SimTime) -> f64 {
        let dt = now.since(st.last_update).as_secs_f64();
        let tau = TAU.as_secs_f64();
        st.rate_bytes_s * (-dt / tau).exp()
    }

    /// Measured airtime load (fraction of the channel) of admitted flows.
    pub fn measured_load(&self, now: SimTime) -> f64 {
        self.flows
            .values()
            .filter(|f| f.admitted)
            .map(|f| self.decay(f, now) * self.airtime_per_byte_s)
            .sum()
    }

    /// Committed load: every *live* admitted flow holds at least its
    /// nominal reservation (peak-rate admission, per the multimedia-server
    /// literature the paper cites); a flow silent past `FLOW_EXPIRY`
    /// releases it.
    pub fn committed_load(&self, now: SimTime) -> f64 {
        let reservation = self.reservation();
        self.flows
            .values()
            .filter(|f| f.admitted && now.since(f.last_update) < FLOW_EXPIRY)
            .map(|f| (self.decay(f, now) * self.airtime_per_byte_s).max(reservation))
            .sum()
    }

    /// Airtime fraction a nominal new flow would add.
    fn reservation(&self) -> f64 {
        ASSUMED_FLOW_BPS / 8.0 * self.airtime_per_byte_s
    }

    /// Offer a packet of `bytes` belonging to `key`. Returns `true` if the
    /// flow is (or becomes) admitted; `false` means the proxy must refuse
    /// the packet.
    pub fn offer(&mut self, key: FlowKey, bytes: usize, now: SimTime) -> bool {
        let tau = TAU.as_secs_f64();
        if let Some(st) = self.flows.get_mut(&key) {
            if st.admitted {
                let decayed = {
                    let dt = now.since(st.last_update).as_secs_f64();
                    st.rate_bytes_s * (-dt / tau).exp()
                };
                st.rate_bytes_s = decayed + bytes as f64 / tau;
                st.last_update = now;
                return true;
            }
            self.stats.packets_refused += 1;
            return false;
        }
        // New flow: admit iff committed load + its reservation fits.
        let admitted = self.committed_load(now) + self.reservation() <= CAPACITY_FRACTION;
        if admitted {
            self.stats.admitted += 1;
        } else {
            self.stats.rejected += 1;
            self.stats.packets_refused += 1;
        }
        self.flows.insert(
            key,
            FlowState {
                rate_bytes_s: bytes as f64 / TAU.as_secs_f64(),
                last_update: now,
                admitted,
            },
        );
        admitted
    }

    /// Is the flow currently admitted (unknown flows count as admitted)?
    pub fn is_admitted(&self, key: &FlowKey) -> bool {
        self.flows.get(key).map(|f| f.admitted).unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerburst_net::HostAddr;

    fn key(c: u32, s: u16) -> FlowKey {
        (SockAddr::new(HostAddr(100 + c), 554), SockAddr::new(HostAddr(1), s))
    }

    fn ac() -> AdmissionControl {
        AdmissionControl::new(&BandwidthModel::DEFAULT_11MBPS, 728)
    }

    #[test]
    fn first_flows_admitted_then_rejected_at_capacity() {
        // 450 kbps at ~2.04 us/B framing ≈ 11.5% airtime each; at 85%
        // capacity roughly 6-7 such reservations fit.
        let mut a = ac();
        let t = SimTime::from_secs(1);
        let mut admitted = 0;
        for i in 0..10u32 {
            if a.offer(key(i, 2000), 700, t) {
                admitted += 1;
            }
        }
        assert!((5..9).contains(&admitted), "admitted {admitted} of 10 oversubscribed flows");
        assert_eq!(a.stats.admitted as u32, admitted);
        assert_eq!(a.stats.rejected as u32, 10 - admitted);
    }

    #[test]
    fn rejected_flow_stays_rejected() {
        let mut a = ac();
        let t = SimTime::from_secs(1);
        // Saturate the channel: the first flow that does not fit is
        // rejected, and every later packet of it is refused.
        let rejected = (0..10u32)
            .map(|i| key(i, 2000))
            .find(|&k| !a.offer(k, 700, t))
            .expect("ten 450 kbps reservations oversubscribe the cell");
        assert!(!a.offer(rejected, 700, t + SimDuration::from_secs(5)));
        assert_eq!(a.stats.rejected, 1);
        assert_eq!(a.stats.packets_refused, 2);
        assert!(!a.is_admitted(&rejected));
    }

    #[test]
    fn measured_load_tracks_actual_rate() {
        let mut a = ac();
        let mut t = SimTime::from_secs(1);
        // Feed ~56 kB/s (450 kbps) for several tau.
        for _ in 0..800 {
            a.offer(key(0, 2000), 700, t);
            t += SimDuration::from_us(12_500); // 700 B / 12.5 ms = 56 kB/s
        }
        let load = a.measured_load(t);
        // 56 kB/s * ~2.04 us/B ≈ 0.115 channel fraction.
        assert!((0.08..0.16).contains(&load), "load {load}");
    }

    #[test]
    fn idle_flows_decay_and_free_capacity() {
        let mut a = ac();
        let t0 = SimTime::from_secs(1);
        // Saturate with admitted reservations.
        let mut admitted0 = 0;
        for i in 0..10u32 {
            if a.offer(key(i, 2000), 700, t0) {
                admitted0 += 1;
            }
        }
        assert!(admitted0 < 10);
        // Much later, the old flows have expired; a newcomer fits again.
        let t1 = t0 + SimDuration::from_secs(60);
        assert!(a.offer(key(42, 9000), 700, t1), "capacity freed by expiry");
    }

    #[test]
    fn unknown_flows_default_admitted() {
        let a = ac();
        assert!(a.is_admitted(&key(7, 7)));
    }
}
