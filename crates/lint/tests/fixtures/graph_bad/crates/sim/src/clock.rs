//! Fixture quarantined module.
pub struct ClockModel;
