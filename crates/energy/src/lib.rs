//! # powerburst-energy
//!
//! Energy model for the ICPP 2004 power-aware proxy reproduction.
//!
//! The paper's evaluation simulates a 2.4 GHz WaveLAN DSSS WNIC and charges
//! the client for time spent in each radio mode. This crate provides:
//!
//! * [`card`] — card power specifications ([`CardSpec::WAVELAN_DSSS`] is the
//!   paper's card: 1319/1425/1675/177 mW idle/rx/tx/sleep, 2 ms wake);
//! * [`meter`] — [`Wnic`], the live radio state machine with exact energy
//!   integration, plus the naive-client baseline;
//! * [`optimal`] — the paper's theoretical-optimal savings formula (§4.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod card;
pub mod meter;
pub mod optimal;

pub use card::CardSpec;
pub use meter::{naive_energy_mj, EnergyReport, Wnic};
pub use optimal::{optimal_savings, optimal_savings_for_rate, OptimalInput, OptimalResult};
