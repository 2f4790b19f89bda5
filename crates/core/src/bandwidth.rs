//! The proxy's linear send-cost model.
//!
//! §3.2.2, *Bandwidth Constraints*: "we executed a set of microbenchmarks
//! to create a model of send overhead and latency on our wireless network.
//! From these, we developed a linear cost function based on the message
//! size. The proxy uses this to estimate how much data can be sent in a
//! given time period."
//!
//! [`BandwidthModel`] is that cost function; [`BandwidthModel::fit`] builds
//! it from `(message size, observed send time)` samples exactly as the
//! paper's microbenchmark does. The M1 experiment regenerates the fit
//! against the simulated medium's ground truth.

use powerburst_sim::{LinearFit, SimDuration};

/// Linear per-message send-cost model: `time_us = alpha + beta * bytes`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthModel {
    /// Fixed per-message overhead, microseconds.
    pub alpha_us: f64,
    /// Per-byte cost, microseconds.
    pub beta_us: f64,
}

impl BandwidthModel {
    /// A model matching the default simulated 11 Mbps medium (used when a
    /// scenario skips explicit calibration).
    pub const DEFAULT_11MBPS: BandwidthModel = BandwidthModel {
        alpha_us: 930.0, // medium fixed cost + mean jitter
        beta_us: 8.0 / 11.0,
    };

    /// Estimated airtime for one message of `bytes`.
    pub fn send_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_us((self.alpha_us + self.beta_us * bytes as f64).max(0.0).round() as u64)
    }

    /// How many bytes fit in `budget` if sent as messages of `msg_bytes`?
    /// Accounts for the per-message overhead of each message, and reserves
    /// channel time for the receiver's echo traffic: `echo_ratio` echo
    /// frames of `echo_bytes` per data message (TCP ACK clocking on a
    /// shared half-duplex medium).
    pub fn bytes_in_with_echo(
        &self,
        budget: SimDuration,
        msg_bytes: usize,
        echo_bytes: usize,
        echo_ratio: f64,
    ) -> u64 {
        let per_msg = self.send_time(msg_bytes).as_us() as f64
            + echo_ratio * self.send_time(echo_bytes).as_us() as f64;
        let msgs = (budget.as_us() as f64 / per_msg.max(1.0)) as u64;
        msgs * msg_bytes as u64
    }

    /// Fit a model from `(bytes, observed send time)` microbenchmark
    /// samples. Returns the model and the fit's R², or `None` when the
    /// samples are degenerate.
    pub fn fit(samples: &[(usize, SimDuration)]) -> Option<(BandwidthModel, f64)> {
        let pts: Vec<(f64, f64)> =
            samples.iter().map(|&(b, t)| (b as f64, t.as_us() as f64)).collect();
        let f = LinearFit::fit(&pts)?;
        Some((BandwidthModel { alpha_us: f.alpha, beta_us: f.beta }, f.r2))
    }
}

impl Default for BandwidthModel {
    fn default() -> Self {
        BandwidthModel::DEFAULT_11MBPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_time_is_linear() {
        let m = BandwidthModel::DEFAULT_11MBPS;
        let t0 = m.send_time(0).as_us() as i64;
        let t1 = m.send_time(1_000).as_us() as i64;
        let t2 = m.send_time(2_000).as_us() as i64;
        assert!(((t1 - t0) - (t2 - t1)).abs() <= 1);
    }

    #[test]
    fn bytes_in_counts_per_message_overhead_and_echoes() {
        let m = BandwidthModel { alpha_us: 1_000.0, beta_us: 1.0 };
        let budget = SimDuration::from_ms(10);
        // Each 1000-byte message costs 2000us; 10ms fits 5 of them.
        assert_eq!(m.bytes_in_with_echo(budget, 1_000, 40, 0.0), 5_000);
        // Smaller messages waste budget on overhead.
        assert!(m.bytes_in_with_echo(budget, 100, 40, 0.0) < 5_000);
        // One 40-byte echo (1040us) per message leaves room for 3.
        assert_eq!(m.bytes_in_with_echo(budget, 1_000, 40, 1.0), 3_000);
    }

    #[test]
    fn fit_recovers_known_model() {
        let truth = BandwidthModel { alpha_us: 900.0, beta_us: 0.727 };
        let samples: Vec<(usize, SimDuration)> = (1..=20)
            .map(|i| {
                let bytes = i * 100;
                (bytes, truth.send_time(bytes))
            })
            .collect();
        let (m, r2) = BandwidthModel::fit(&samples).unwrap();
        assert!((m.alpha_us - truth.alpha_us).abs() < 2.0, "alpha {}", m.alpha_us);
        assert!((m.beta_us - truth.beta_us).abs() < 0.01, "beta {}", m.beta_us);
        assert!(r2 > 0.999);
    }

    #[test]
    fn degenerate_fit_is_none() {
        assert!(BandwidthModel::fit(&[]).is_none());
        assert!(BandwidthModel::fit(&[(100, SimDuration::from_us(5))]).is_none());
    }

    #[test]
    fn default_throughput_is_sane() {
        // 1 200-byte messages at 3–7 Mb/s: a send time of 1 371–3 200 µs.
        let t = BandwidthModel::DEFAULT_11MBPS.send_time(1_200).as_secs_f64();
        let bps = 1_200.0 * 8.0 / t;
        assert!(bps > 3e6 && bps < 7e6, "bps {bps}");
    }
}
