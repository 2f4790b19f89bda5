//! The powerburst benchmark: three workloads driven through the public API
//! of `powerburst-scenario` and the crates below it, reporting end-to-end
//! metrics from an untraced run and per-layer metrics from a separate
//! traced run. See `perfbench/README.md` for the workloads, the metric
//! map and how to read a traced report.

pub mod calib;
pub mod floors;
pub mod report;
pub mod span;
pub mod stats;
pub mod workload;
