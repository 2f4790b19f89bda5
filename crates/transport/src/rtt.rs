//! RTT estimation and retransmission-timeout computation (RFC 6298 style).

use powerburst_sim::SimDuration;

/// Smoothed RTT estimator producing the retransmission timeout.
#[derive(Debug, Clone, Copy)]
pub struct RttEstimator {
    srtt: Option<f64>, // seconds
    rttvar: f64,       // seconds
    rto: SimDuration,
    min_rto: SimDuration,
    max_rto: SimDuration,
}

impl RttEstimator {
    /// New estimator with the given initial and bounding RTOs.
    pub fn new(initial_rto: SimDuration, min_rto: SimDuration, max_rto: SimDuration) -> Self {
        RttEstimator { srtt: None, rttvar: 0.0, rto: initial_rto, min_rto, max_rto }
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Feed one RTT measurement (must be from an un-retransmitted segment,
    /// per Karn's algorithm — the caller enforces that).
    pub fn sample(&mut self, rtt: SimDuration) {
        let r = rtt.as_secs_f64();
        let srtt = match self.srtt {
            None => {
                self.rttvar = r / 2.0;
                r
            }
            Some(srtt) => {
                // RFC 6298: alpha = 1/8, beta = 1/4.
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - r).abs();
                0.875 * srtt + 0.125 * r
            }
        };
        self.srtt = Some(srtt);
        let rto = srtt + (4.0 * self.rttvar).max(0.000_1);
        self.rto = SimDuration::from_secs_f64(rto).max(self.min_rto).min(self.max_rto);
    }

    /// Exponential backoff after a retransmission timeout.
    pub fn backoff(&mut self) {
        self.rto = (self.rto * 2).min(self.max_rto);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::new(
            SimDuration::from_secs(1),
            SimDuration::from_ms(200),
            SimDuration::from_secs(60),
        )
    }

    #[test]
    fn initial_rto_until_first_sample() {
        let e = est();
        assert_eq!(e.rto(), SimDuration::from_secs(1));
    }

    #[test]
    fn first_sample_sets_srtt() {
        let mut e = est();
        e.sample(SimDuration::from_ms(100));
        // The first sample sets srtt = 100 ms and rttvar = 50 ms, so
        // RTO = srtt + 4*rttvar = 100 + 200 = 300ms.
        assert_eq!(e.rto(), SimDuration::from_ms(300));
    }

    #[test]
    fn stable_rtt_converges_to_min_bound() {
        let mut e = est();
        for _ in 0..100 {
            e.sample(SimDuration::from_ms(10));
        }
        // Variance collapses; min_rto floor applies.
        assert_eq!(e.rto(), SimDuration::from_ms(200));
    }

    #[test]
    fn jittery_rtt_raises_rto() {
        let mut e = est();
        for i in 0..50 {
            let ms = if i % 2 == 0 { 50 } else { 250 };
            e.sample(SimDuration::from_ms(ms));
        }
        assert!(e.rto() > SimDuration::from_ms(300), "rto {:?}", e.rto());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = est();
        e.backoff();
        assert_eq!(e.rto(), SimDuration::from_secs(2));
        for _ in 0..10 {
            e.backoff();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(60));
    }
}
