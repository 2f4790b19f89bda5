//! Seeded Markov channel-state model.
//!
//! The paper's scheduler assumes a fixed-rate medium; real 802.11 links
//! fade. Following the multi-state time-varying channel abstraction of
//! Wang et al. (arXiv:1606.00952), each client's radio link walks a
//! three-state Markov chain — Good / Fair / Bad — where each state maps to
//! an *effective rate fraction* of the nominal channel rate. The proxy's
//! channel-aware policy reads the per-client state at every schedule
//! rebuild and inflates slot shares for degraded clients so their drain
//! time (bytes / effective rate) stays balanced.
//!
//! Determinism contract: the model owns a single [`StdRng`] injected by
//! the scenario builder (derived from the master seed and
//! `streams::CHANNEL`), and advances in fixed *epochs* of sim time. All
//! clients step once per epoch in client-index order, so the trajectory is
//! a pure function of `(seed, epoch count, client count)` — independent of
//! how many threads run the sweep or how often callers sample it.
//! The model is purely observational: it schedules no events and sends no
//! packets, so enabling it cannot perturb a run that does not read it.

use powerburst_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

/// Radio-link quality bucket for one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChannelQuality {
    /// Full nominal rate (the paper's assumption).
    #[default]
    Good,
    /// Degraded: retransmissions / lower PHY rate cost roughly half the
    /// nominal throughput.
    Fair,
    /// Deep fade: only a quarter of the nominal throughput survives.
    Bad,
}

impl ChannelQuality {
    /// Effective throughput as an integer percentage of the nominal rate.
    ///
    /// Integer so downstream schedule arithmetic stays float-free (wire
    /// codec rule D005 territory).
    pub const fn rate_pct(self) -> u64 {
        match self {
            ChannelQuality::Good => 100,
            ChannelQuality::Fair => 55,
            ChannelQuality::Bad => 25,
        }
    }

    /// Stable short label for traces and metrics.
    pub const fn label(self) -> &'static str {
        match self {
            ChannelQuality::Good => "good",
            ChannelQuality::Fair => "fair",
            ChannelQuality::Bad => "bad",
        }
    }
}

// Transition structure of the per-client chain: a slowly-fading indoor
// channel with 100 ms coherence epochs, mostly Good, occasional Fair
// excursions, rare deep fades (stationary distribution ≈ 77% Good / 19%
// Fair / 4% Bad). Probabilities are integers, parts per thousand per
// epoch, so the model never touches floats; the remainder of each row is
// the self-transition probability.

/// Epoch length: how often every client re-rolls its state.
const EPOCH: SimDuration = SimDuration::from_ms(100);
/// Good → Fair (‰ per epoch).
const GOOD_TO_FAIR: u16 = 50;
/// Fair → Good (‰ per epoch).
const FAIR_TO_GOOD: u16 = 200;
/// Fair → Bad (‰ per epoch).
const FAIR_TO_BAD: u16 = 40;
/// Bad → Fair (‰ per epoch).
const BAD_TO_FAIR: u16 = 200;

/// Per-client Good/Fair/Bad trajectory, advanced lazily in epochs.
#[derive(Debug)]
pub struct ChannelModel {
    states: Vec<ChannelQuality>,
    rng: StdRng,
    /// Number of epochs already applied.
    epochs_done: u64,
}

impl ChannelModel {
    /// A model for `clients` links, all starting in [`ChannelQuality::Good`]
    /// (matching the paper's fixed-rate baseline at t = 0).
    ///
    /// `rng` must be a seed-derived stream (see `powerburst_sim::rng`);
    /// the model performs exactly one draw per client per epoch.
    pub fn new(clients: usize, rng: StdRng) -> Self {
        ChannelModel { states: vec![ChannelQuality::Good; clients], rng, epochs_done: 0 }
    }

    /// Advance the chain so it reflects sim time `now`.
    ///
    /// Steps every client once per elapsed epoch, in client-index order.
    /// Idempotent within an epoch: sampling twice at the same `now` (or
    /// anywhere inside the same epoch) performs no extra draws.
    pub fn advance_to(&mut self, now: SimTime) {
        let target = now.as_us() / EPOCH.as_us();
        while self.epochs_done < target {
            for i in 0..self.states.len() {
                let roll: u64 = self.rng.random_range(0..1000);
                self.states[i] = step(self.states[i], roll as u16);
            }
            self.epochs_done += 1;
        }
    }

    /// Current quality of client index `idx` (Good if out of range, so a
    /// late-admitted client degrades gracefully).
    pub fn quality(&self, idx: usize) -> ChannelQuality {
        self.states.get(idx).copied().unwrap_or(ChannelQuality::Good)
    }

    /// Number of modelled client links.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when no client links are modelled.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Snapshot of all current states (test/diagnostic helper).
    pub fn states(&self) -> &[ChannelQuality] {
        &self.states
    }
}

/// One Markov step given a uniform roll in `[0, 1000)`.
fn step(s: ChannelQuality, roll: u16) -> ChannelQuality {
    match s {
        ChannelQuality::Good => {
            if roll < GOOD_TO_FAIR {
                ChannelQuality::Fair
            } else {
                ChannelQuality::Good
            }
        }
        ChannelQuality::Fair => {
            if roll < FAIR_TO_GOOD {
                ChannelQuality::Good
            } else if roll < FAIR_TO_GOOD + FAIR_TO_BAD {
                ChannelQuality::Bad
            } else {
                ChannelQuality::Fair
            }
        }
        ChannelQuality::Bad => {
            if roll < BAD_TO_FAIR {
                ChannelQuality::Fair
            } else {
                ChannelQuality::Bad
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerburst_sim::rng::{derive_rng, streams};

    fn model(seed: u64, clients: usize) -> ChannelModel {
        ChannelModel::new(clients, derive_rng(seed, streams::CHANNEL))
    }

    #[test]
    fn same_seed_same_trajectory() {
        let mut a = model(42, 5);
        let mut b = model(42, 5);
        for ms in (0..5_000).step_by(37) {
            let t = SimTime::from_us(ms * 1000);
            a.advance_to(t);
            b.advance_to(t);
            assert_eq!(a.states(), b.states(), "diverged at {ms} ms");
        }
    }

    #[test]
    fn sampling_cadence_is_irrelevant() {
        // Coarse sampling and fine sampling must land on identical states:
        // draws are per-epoch, not per-call.
        let mut fine = model(7, 4);
        let mut coarse = model(7, 4);
        for ms in 0..3_000 {
            fine.advance_to(SimTime::from_us(ms * 1000));
        }
        coarse.advance_to(SimTime::from_us(2_999 * 1000));
        assert_eq!(fine.states(), coarse.states());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = model(1, 8);
        let mut b = model(2, 8);
        let t = SimTime::from_us(60_000_000);
        a.advance_to(t);
        b.advance_to(t);
        assert_ne!(a.states(), b.states());
    }

    #[test]
    fn all_states_reachable() {
        let mut m = model(42, 10);
        m.advance_to(SimTime::from_us(120_000_000));
        // After 1200 epochs × 10 clients the chain has visited everything.
        let mut seen = [false; 3];
        let mut probe = model(42, 10);
        for e in 1..=1200u64 {
            probe.advance_to(SimTime::from_us(e * 100_000));
            for s in probe.states() {
                seen[match s {
                    ChannelQuality::Good => 0,
                    ChannelQuality::Fair => 1,
                    ChannelQuality::Bad => 2,
                }] = true;
            }
        }
        assert_eq!(seen, [true; 3]);
        let _ = m;
    }

    #[test]
    fn rate_pct_ordering() {
        assert!(ChannelQuality::Good.rate_pct() > ChannelQuality::Fair.rate_pct());
        assert!(ChannelQuality::Fair.rate_pct() > ChannelQuality::Bad.rate_pct());
        assert_eq!(ChannelQuality::Good.rate_pct(), 100);
    }

    #[test]
    fn out_of_range_is_good() {
        let m = model(3, 2);
        assert_eq!(m.quality(99), ChannelQuality::Good);
    }
}
