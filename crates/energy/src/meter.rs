//! WNIC power-state machine with integrated energy accounting.
//!
//! [`Wnic`] is the live model: the client daemon drives it (`wake`/`sleep`)
//! and the network substrate bills frame airtimes against it (`on_receive`/
//! `on_transmit`). Energy is integrated exactly over the state timeline —
//! no sampling — so two runs with identical schedules report identical
//! millijoules.
//!
//! The sleep→idle transition is modeled per the paper: the card spends
//! `CardSpec::wake_transition` (2 ms for WaveLAN) at **idle power** during
//! which it cannot yet receive. Receiving a frame while in transition or
//! asleep means the frame is missed; that policy decision lives in the
//! network layer, which queries [`Wnic::is_listening`].

use powerburst_obs::{Counter, EventKind, Gauge, Recorder};
use powerburst_sim::{SimDuration, SimTime};

use crate::card::CardSpec;

/// Internal coarse state of the radio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RadioState {
    /// Low-power mode; cannot receive.
    Sleeping,
    /// Transitioning sleep→idle; powered (idle draw) but deaf until `until`.
    Waking { until: SimTime },
    /// High-power mode, able to receive and transmit.
    Awake,
}

impl RadioState {
    /// Static label for observability events.
    fn label(self) -> &'static str {
        match self {
            RadioState::Sleeping => "sleep",
            RadioState::Waking { .. } => "waking",
            RadioState::Awake => "awake",
        }
    }
}

/// Accumulated per-mode time and energy for one client WNIC.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyReport {
    /// Time spent in sleep mode.
    pub sleep: SimDuration,
    /// Time spent in the sleep→idle wake transition (billed at idle power).
    pub waking: SimDuration,
    /// Time spent awake (includes receive/transmit time).
    pub awake: SimDuration,
    /// Portion of awake time spent receiving frames.
    pub rx: SimDuration,
    /// Portion of awake time spent transmitting frames.
    pub tx: SimDuration,
    /// Number of sleep→idle transitions.
    pub wake_transitions: u64,
    /// Total energy, millijoules.
    pub total_mj: f64,
}

impl EnergyReport {
    /// Total observed duration.
    pub fn duration(&self) -> SimDuration {
        self.sleep + self.waking + self.awake
    }

    /// Awake time not spent actively receiving or transmitting.
    pub fn idle(&self) -> SimDuration {
        self.awake.saturating_sub(self.rx + self.tx)
    }

    /// Fraction of energy saved versus a baseline (naive) energy figure.
    pub fn saved_vs(&self, naive_mj: f64) -> f64 {
        if naive_mj <= 0.0 {
            return 0.0;
        }
        1.0 - self.total_mj / naive_mj
    }
}

/// Live WNIC model: state machine + exact energy integration.
#[derive(Debug, Clone)]
pub struct Wnic {
    spec: CardSpec,
    state: RadioState,
    /// Instant the current billing segment began.
    since: SimTime,
    report: EnergyReport,
    /// Observability handle; disabled by default, so billing costs nothing.
    obs: Recorder,
    /// Client id used to label state-transition events.
    obs_client: u32,
}

impl Wnic {
    /// A new radio, awake (high-power) at time zero — the state a freshly
    /// associated 802.11 station is in.
    pub fn new(spec: CardSpec) -> Wnic {
        Wnic {
            spec,
            state: RadioState::Awake,
            since: SimTime::ZERO,
            report: EnergyReport::default(),
            obs: Recorder::disabled(),
            obs_client: 0,
        }
    }

    /// Attach an observability recorder, labelling this radio as `client`.
    /// The radio starts awake, so an attached recorder sees it in the
    /// awake population immediately.
    pub fn set_recorder(&mut self, rec: Recorder, client: u32) {
        if rec.enabled() && !matches!(self.state, RadioState::Sleeping) {
            rec.gauge_add(Gauge::RadiosAwake, 1);
        }
        self.obs = rec;
        self.obs_client = client;
    }

    /// Emit a state-transition event (no-op when observability is off).
    fn obs_transition(&self, t: SimTime, from: &'static str, to: &'static str) {
        self.obs.event(t.as_us(), EventKind::WnicState { client: self.obs_client, from, to });
    }

    /// Close the billing segment ending at `now`.
    fn bill(&mut self, now: SimTime) {
        debug_assert!(now >= self.since, "time went backwards");
        // A Waking segment may straddle its completion point; split it so
        // the time ledger attributes waking vs awake correctly (power is
        // idle-rate either way).
        if let RadioState::Waking { until } = self.state {
            if now >= until {
                let waking_part = until.since(self.since);
                self.report.waking += waking_part;
                self.report.total_mj += self.spec.idle_mw * waking_part.as_secs_f64();
                self.state = RadioState::Awake;
                self.since = until;
                self.obs_transition(until, "waking", "awake");
            }
        }
        let span = now.since(self.since);
        match self.state {
            RadioState::Sleeping => {
                self.report.sleep += span;
                self.report.total_mj += self.spec.sleep_mw * span.as_secs_f64();
            }
            RadioState::Waking { .. } => {
                self.report.waking += span;
                self.report.total_mj += self.spec.idle_mw * span.as_secs_f64();
            }
            RadioState::Awake => {
                self.report.awake += span;
                self.report.total_mj += self.spec.idle_mw * span.as_secs_f64();
            }
        }
        self.since = now;
    }

    /// Request high-power mode. No-op if already awake or waking.
    pub fn wake(&mut self, now: SimTime) {
        self.bill(now);
        if self.state == RadioState::Sleeping {
            self.state = RadioState::Waking { until: now + self.spec.wake_transition };
            self.report.wake_transitions += 1;
            self.obs.incr(Counter::WnicWakes);
            self.obs.gauge_add(Gauge::RadiosAwake, 1);
            self.obs_transition(now, "sleep", "waking");
        }
    }

    /// Request low-power (sleep) mode. Takes effect immediately; a pending
    /// wake transition is abandoned.
    pub fn sleep(&mut self, now: SimTime) {
        self.bill(now);
        if !matches!(self.state, RadioState::Sleeping) {
            self.obs.incr(Counter::WnicSleeps);
            self.obs.gauge_add(Gauge::RadiosAwake, -1);
            self.obs_transition(now, self.state.label(), "sleep");
        }
        self.state = RadioState::Sleeping;
    }

    /// Can the radio receive a frame ending at `now`?
    pub fn is_listening(&mut self, now: SimTime) -> bool {
        self.bill(now);
        self.state == RadioState::Awake
    }

    /// Bill a received frame whose airtime was `airtime`, ending at `now`.
    /// Accounts the difference between receive and idle power over the
    /// frame (the base idle draw over that span is billed by the timeline).
    pub fn on_receive(&mut self, now: SimTime, airtime: SimDuration) {
        self.bill(now);
        debug_assert_eq!(self.state, RadioState::Awake, "received while not listening");
        self.report.rx += airtime;
        self.report.total_mj += (self.spec.recv_mw - self.spec.idle_mw) * airtime.as_secs_f64();
    }

    /// Bill a transmitted frame of `airtime`, ending at `now`. Transmitting
    /// implicitly requires high-power mode; the client daemon ensures it.
    pub fn on_transmit(&mut self, now: SimTime, airtime: SimDuration) {
        self.bill(now);
        self.report.tx += airtime;
        self.report.total_mj += (self.spec.xmit_mw - self.spec.idle_mw) * airtime.as_secs_f64();
    }

    /// Finalize at `now` and return the accumulated report.
    pub fn finish(mut self, now: SimTime) -> EnergyReport {
        self.bill(now);
        self.report
    }

    /// Snapshot the report as of `now` without consuming the radio.
    pub fn report_at(&mut self, now: SimTime) -> EnergyReport {
        self.bill(now);
        self.report
    }
}

/// Energy a *naive* client (WNIC always high-power) would use over a run.
///
/// The paper's baseline: "the naive client, which keeps its WNIC in
/// high-power mode" — idle except while actually receiving/transmitting.
pub fn naive_energy_mj(
    spec: &CardSpec,
    total: SimDuration,
    rx_airtime: SimDuration,
    tx_airtime: SimDuration,
) -> f64 {
    let idle_time = total.saturating_sub(rx_airtime + tx_airtime);
    spec.idle_mw * idle_time.as_secs_f64()
        + spec.recv_mw * rx_airtime.as_secs_f64()
        + spec.xmit_mw * tx_airtime.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: CardSpec = CardSpec::WAVELAN_DSSS;

    #[test]
    fn always_awake_bills_idle() {
        let w = Wnic::new(SPEC);
        let r = w.finish(SimTime::from_secs(10));
        assert_eq!(r.awake, SimDuration::from_secs(10));
        assert_eq!(r.sleep, SimDuration::ZERO);
        assert!((r.total_mj - 13_190.0).abs() < 1e-6);
    }

    #[test]
    fn sleeping_bills_sleep_power() {
        let mut w = Wnic::new(SPEC);
        w.sleep(SimTime::ZERO);
        let r = w.finish(SimTime::from_secs(10));
        assert_eq!(r.sleep, SimDuration::from_secs(10));
        assert!((r.total_mj - 1_770.0).abs() < 1e-6);
    }

    #[test]
    fn wake_transition_takes_two_ms_and_counts() {
        let mut w = Wnic::new(SPEC);
        w.sleep(SimTime::ZERO);
        w.wake(SimTime::from_ms(100));
        // Not yet listening during the transition.
        assert!(!w.is_listening(SimTime::from_ms(101)));
        // Listening once the 2ms transition elapses.
        assert!(w.is_listening(SimTime::from_ms(102)));
        let r = w.finish(SimTime::from_ms(102));
        assert_eq!(r.wake_transitions, 1);
        assert_eq!(r.waking, SimDuration::from_ms(2));
        assert_eq!(r.sleep, SimDuration::from_ms(100));
    }

    #[test]
    fn wake_while_awake_is_noop() {
        let mut w = Wnic::new(SPEC);
        w.wake(SimTime::from_ms(5));
        let r = w.finish(SimTime::from_ms(10));
        assert_eq!(r.wake_transitions, 0);
        assert_eq!(r.awake, SimDuration::from_ms(10));
    }

    #[test]
    fn sleep_aborts_wake_transition() {
        let mut w = Wnic::new(SPEC);
        w.sleep(SimTime::ZERO);
        w.wake(SimTime::from_ms(10));
        w.sleep(SimTime::from_ms(11)); // give up mid-transition
        assert!(!w.is_listening(SimTime::from_ms(20)));
        let r = w.finish(SimTime::from_ms(20));
        assert_eq!(r.waking, SimDuration::from_ms(1));
        assert_eq!(r.sleep, SimDuration::from_ms(19));
    }

    #[test]
    fn receive_bills_rx_delta() {
        let mut w = Wnic::new(SPEC);
        assert!(w.is_listening(SimTime::from_ms(1)));
        w.on_receive(SimTime::from_ms(2), SimDuration::from_ms(1));
        let r = w.finish(SimTime::from_secs(1));
        assert_eq!(r.rx, SimDuration::from_ms(1));
        let expect = SPEC.idle_mw * 1.0 + (SPEC.recv_mw - SPEC.idle_mw) * 0.001;
        assert!((r.total_mj - expect).abs() < 1e-9);
    }

    #[test]
    fn transmit_bills_tx_delta() {
        let mut w = Wnic::new(SPEC);
        w.on_transmit(SimTime::from_ms(3), SimDuration::from_ms(2));
        let r = w.finish(SimTime::from_secs(1));
        assert_eq!(r.tx, SimDuration::from_ms(2));
        let expect = SPEC.idle_mw * 1.0 + (SPEC.xmit_mw - SPEC.idle_mw) * 0.002;
        assert!((r.total_mj - expect).abs() < 1e-9);
    }

    #[test]
    fn report_durations_sum_to_total() {
        let mut w = Wnic::new(SPEC);
        w.sleep(SimTime::from_ms(100));
        w.wake(SimTime::from_ms(300));
        w.sleep(SimTime::from_ms(400));
        w.wake(SimTime::from_ms(600));
        let r = w.finish(SimTime::from_secs(1));
        assert_eq!(r.duration(), SimDuration::from_secs(1));
        assert_eq!(r.wake_transitions, 2);
    }

    #[test]
    fn naive_energy_matches_manual_computation() {
        let e = naive_energy_mj(
            &SPEC,
            SimDuration::from_secs(100),
            SimDuration::from_secs(2),
            SimDuration::from_secs(1),
        );
        let expect = SPEC.idle_mw * 97.0 + SPEC.recv_mw * 2.0 + SPEC.xmit_mw * 1.0;
        assert!((e - expect).abs() < 1e-6);
    }

    #[test]
    fn saved_vs_naive() {
        let mut w = Wnic::new(SPEC);
        w.sleep(SimTime::ZERO);
        let r = w.finish(SimTime::from_secs(10));
        let naive = naive_energy_mj(
            &SPEC,
            SimDuration::from_secs(10),
            SimDuration::ZERO,
            SimDuration::ZERO,
        );
        let saved = r.saved_vs(naive);
        assert!((saved - SPEC.max_savings_fraction()).abs() < 1e-9);
    }

    #[test]
    fn idle_excludes_rx_tx() {
        let mut w = Wnic::new(SPEC);
        w.on_receive(SimTime::from_ms(10), SimDuration::from_ms(4));
        w.on_transmit(SimTime::from_ms(20), SimDuration::from_ms(1));
        let r = w.finish(SimTime::from_ms(100));
        assert_eq!(r.idle(), SimDuration::from_ms(95));
    }
}
