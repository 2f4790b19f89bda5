//! # powerburst-obs
//!
//! Sim-time observability for the `powerburst` workspace: a metrics and
//! tracing subsystem the simulation layers (proxy, AP, client daemon,
//! energy meter, world) report into, with deterministic exporters the
//! experiment harnesses surface in results and the CLI.
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero overhead when disabled.** The default [`Recorder`] holds no
//!    state; every recording call is a single `Option` check with no heap
//!    allocation. Instrumented hot paths (per-frame, per-burst) stay free.
//! 2. **Deterministic exports.** Metrics and events carry only simulation
//!    quantities (integral microseconds, bytes, counts) and are exported in
//!    catalog / recording order — the same run produces bit-identical JSON
//!    and CSV across repeats and across sweep thread counts. Wall-clock
//!    data never enters a metrics export; host-time measurement lives in
//!    the separate `perfbench` benchmark.
//! 3. **Static metric ids.** Counters, gauges, and histograms are keyed by
//!    the enums in [`metrics`]; storage is fixed-size atomic arrays, so the
//!    enabled hot path is also allocation-free.
//!
//! The crate is dependency-free (timestamps are plain `u64` microseconds),
//! so every other workspace crate can depend on it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod metrics;
pub mod recorder;
pub mod report;

pub use events::{EventKind, ObsEvent};
pub use metrics::{Counter, Gauge, Hist, BUCKET_BOUNDS};
pub use recorder::{Recorder, RecorderConfig, EVENT_CAP};
pub use report::{HistSnapshot, ObsReport};
