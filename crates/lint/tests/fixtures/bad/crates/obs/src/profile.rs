//! Fixture: no file is exempt from D001 — wall-clock time fires in `obs`
//! as anywhere else the lint scans.
use std::time::Instant;

pub fn stopwatch() -> Instant {
    Instant::now()
}
