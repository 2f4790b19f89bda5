//! The shared wireless medium.
//!
//! A single half-duplex radio channel: one frame in the air at a time, with
//! per-frame airtime `fixed + per_byte * bytes (+ jitter)`. The linear form
//! is exactly the model the paper's proxy fits from microbenchmarks
//! (§3.2.2, "we developed a linear cost function based on the message
//! size") — here it is also the ground truth the medium enforces, so the
//! proxy's estimator can be honestly evaluated against it.
//!
//! Overload behaves like a real access point: when the transmit backlog
//! exceeds `max_backlog`, new frames are dropped at the tail. This is the
//! mechanism behind the paper's 512 kbps anomaly ("the peak bandwidth
//! required to transfer 10 512Kbps streams exceeds the effective wireless
//! network bandwidth"), which pushes RealServer-style sources to adapt
//! down.

use powerburst_sim::{SimDuration, SimTime};
use rand::Rng;

/// Linear per-frame airtime model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AirtimeModel {
    /// Fixed per-frame cost, microseconds (preamble, MAC overhead, IFS,
    /// average contention backoff, link-layer ACK).
    pub fixed_us: f64,
    /// Per-byte cost, microseconds (8 bits / PHY rate).
    pub per_byte_us: f64,
    /// Uniform extra jitter in `[0, jitter_us]`, microseconds.
    pub jitter_us: u64,
    /// Per-frame corruption probability (the frame consumes its airtime
    /// but is delivered to nobody) — the DummyNet-style lossy-channel knob
    /// of §4.3.
    pub loss_prob: f64,
}

impl AirtimeModel {
    /// An 11 Mbps DSSS channel like the paper's Orinoco cards. The fixed
    /// cost is tuned so bulk transfer with ~1000–1500 B frames lands near
    /// the ≈4 Mb/s *effective* bandwidth the paper reports.
    pub const DSSS_11MBPS: AirtimeModel = AirtimeModel {
        fixed_us: 900.0,
        per_byte_us: 8.0 / 11.0, // 0.727 us per byte at 11 Mbps
        jitter_us: 60,
        loss_prob: 0.0,
    };

    /// Deterministic (jitter-free) airtime for `bytes`.
    pub fn airtime(&self, bytes: usize) -> SimDuration {
        SimDuration::from_us((self.fixed_us + self.per_byte_us * bytes as f64).round() as u64)
    }

    /// Airtime with sampled jitter.
    pub fn airtime_jittered<R: Rng + ?Sized>(&self, bytes: usize, rng: &mut R) -> SimDuration {
        let base = self.airtime(bytes);
        if self.jitter_us == 0 {
            return base;
        }
        base + SimDuration::from_us(rng.random_range(0..=self.jitter_us))
    }

    /// Effective throughput in bits/s for back-to-back frames of `bytes`.
    pub fn effective_bps(&self, bytes: usize) -> f64 {
        let t = self.airtime(bytes).as_secs_f64();
        (bytes * 8) as f64 / t
    }
}

/// Outcome of asking the medium to carry a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// Frame accepted; it finishes (and is delivered) at the given time
    /// after occupying the given airtime.
    Sent {
        /// Instant the frame's airtime completes (delivery instant).
        finish: SimTime,
        /// Airtime consumed by the frame.
        airtime: SimDuration,
    },
    /// Dropped: the transmit backlog exceeded the queue bound.
    Dropped,
}

/// Channel occupancy bookkeeping for the single shared radio channel.
#[derive(Debug, Clone)]
pub struct Medium {
    airtime: AirtimeModel,
    /// Instant the channel becomes free.
    busy_until: SimTime,
    /// Maximum tolerated backlog (acts as the AP/driver transmit queue).
    max_backlog: SimDuration,
    /// Count of frames dropped due to backlog overflow.
    pub drops: u64,
}

impl Medium {
    /// New idle medium.
    pub fn new(airtime: AirtimeModel, max_backlog: SimDuration) -> Medium {
        Medium { airtime, busy_until: SimTime::ZERO, max_backlog, drops: 0 }
    }

    /// The airtime model in force.
    pub fn airtime_model(&self) -> &AirtimeModel {
        &self.airtime
    }

    /// Attempt to transmit `bytes` starting no earlier than `now`.
    pub fn transmit<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        bytes: usize,
        rng: &mut R,
    ) -> TxOutcome {
        let start = now.max(self.busy_until);
        if start.since(now) > self.max_backlog {
            self.drops += 1;
            return TxOutcome::Dropped;
        }
        let airtime = self.airtime.airtime_jittered(bytes, rng);
        let finish = start + airtime;
        self.busy_until = finish;
        TxOutcome::Sent { finish, airtime }
    }

    /// Current backlog (how far in the future the channel frees up).
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.busy_until.since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerburst_sim::derive_rng;

    fn no_jitter() -> AirtimeModel {
        AirtimeModel { jitter_us: 0, ..AirtimeModel::DSSS_11MBPS }
    }

    #[test]
    fn airtime_is_linear() {
        let m = no_jitter();
        let a0 = m.airtime(0).as_us() as f64;
        let a1000 = m.airtime(1000).as_us() as f64;
        let a2000 = m.airtime(2000).as_us() as f64;
        assert!((a1000 - a0 - (a2000 - a1000)).abs() <= 1.0, "linearity");
        assert!((a0 - 900.0).abs() <= 1.0);
    }

    #[test]
    fn effective_bandwidth_near_four_mbps_for_big_frames() {
        let bps = AirtimeModel::DSSS_11MBPS.effective_bps(1200);
        assert!(bps > 3.5e6 && bps < 6.5e6, "effective {bps}");
    }

    #[test]
    fn serializes_transmissions() {
        let mut med = Medium::new(no_jitter(), SimDuration::from_secs(1));
        let mut rng = derive_rng(1, 1);
        let t0 = SimTime::ZERO;
        let TxOutcome::Sent { finish: f1, airtime: a1 } = med.transmit(t0, 1000, &mut rng) else {
            panic!("dropped")
        };
        let TxOutcome::Sent { finish: f2, .. } = med.transmit(t0, 1000, &mut rng) else {
            panic!("dropped")
        };
        assert_eq!(f1, t0 + a1);
        assert_eq!(f2, f1 + a1, "second frame queues behind the first");
    }

    #[test]
    fn overflow_drops_at_tail() {
        let mut med = Medium::new(no_jitter(), SimDuration::from_ms(5));
        let mut rng = derive_rng(1, 2);
        let mut dropped = 0;
        for _ in 0..100 {
            if med.transmit(SimTime::ZERO, 1400, &mut rng) == TxOutcome::Dropped {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "must eventually drop");
        assert_eq!(med.drops, dropped);
        // Backlog bounded by the cap plus one frame.
        assert!(
            med.backlog(SimTime::ZERO)
                <= SimDuration::from_ms(5) + med.airtime_model().airtime(1400)
        );
    }

    #[test]
    fn channel_frees_up_over_time() {
        let mut med = Medium::new(no_jitter(), SimDuration::from_ms(50));
        let mut rng = derive_rng(1, 3);
        for _ in 0..10 {
            med.transmit(SimTime::ZERO, 1400, &mut rng);
        }
        let later = SimTime::from_secs(1);
        assert_eq!(med.backlog(later), SimDuration::ZERO);
        assert!(matches!(med.transmit(later, 100, &mut rng), TxOutcome::Sent { .. }));
    }

    #[test]
    fn jitter_bounded() {
        let m = AirtimeModel { fixed_us: 100.0, per_byte_us: 1.0, jitter_us: 50, loss_prob: 0.0 };
        let mut rng = derive_rng(1, 4);
        for _ in 0..200 {
            let a = m.airtime_jittered(100, &mut rng).as_us();
            assert!((200..=250).contains(&a), "airtime {a}");
        }
    }
}
