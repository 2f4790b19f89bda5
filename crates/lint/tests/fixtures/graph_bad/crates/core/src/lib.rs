//! Fixture: `core` reaching the quarantined `sim::clock` through a
//! top-level re-export.
use powerburst_sim::ClockModel;

pub mod wire;

pub struct MarkCoordinator;
