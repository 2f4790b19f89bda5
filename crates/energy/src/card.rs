//! Wireless NIC power characteristics.
//!
//! The paper simulates a 2.4 GHz WaveLAN DSSS card: 1319 mW idle, 1425 mW
//! receiving, 1675 mW transmitting, 177 mW sleeping (citing Stemm et al. and
//! Havinga), and models the sleep→idle transition as 2 ms spent at idle
//! power (citing the Bounded Slowdown paper).

use powerburst_sim::SimDuration;

/// Power draw and transition characteristics of a WNIC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CardSpec {
    /// Power in idle mode, milliwatts (mJ/s).
    pub idle_mw: f64,
    /// Power while receiving, milliwatts.
    pub recv_mw: f64,
    /// Power while transmitting, milliwatts.
    pub xmit_mw: f64,
    /// Power in sleep mode, milliwatts.
    pub sleep_mw: f64,
    /// Time to transition sleep→idle, billed at idle power.
    pub wake_transition: SimDuration,
}

impl CardSpec {
    /// The 2.4 GHz WaveLAN DSSS card used throughout the paper's evaluation.
    pub const WAVELAN_DSSS: CardSpec = CardSpec {
        idle_mw: 1319.0,
        recv_mw: 1425.0,
        xmit_mw: 1675.0,
        sleep_mw: 177.0,
        wake_transition: SimDuration::from_ms(2),
    };

    /// The theoretical ceiling on energy savings for this card: a client
    /// that sleeps 100% of the time saves `1 - sleep/idle` versus a naive
    /// client that idles 100% of the time.
    pub fn max_savings_fraction(&self) -> f64 {
        1.0 - self.sleep_mw / self.idle_mw
    }
}

impl Default for CardSpec {
    fn default() -> Self {
        CardSpec::WAVELAN_DSSS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelan_numbers_match_paper() {
        let c = CardSpec::WAVELAN_DSSS;
        assert_eq!(c.idle_mw, 1319.0);
        assert_eq!(c.recv_mw, 1425.0);
        assert_eq!(c.xmit_mw, 1675.0);
        assert_eq!(c.sleep_mw, 177.0);
        assert_eq!(c.wake_transition, SimDuration::from_ms(2));
    }

    #[test]
    fn max_savings_is_about_87_percent() {
        let s = CardSpec::WAVELAN_DSSS.max_savings_fraction();
        assert!(s > 0.85 && s < 0.88, "got {s}");
    }
}
