//! # powerburst-scenario
//!
//! Experiment assembly for the ICPP 2004 transparent-proxy reproduction:
//! builds the paper's testbed topology (Figure 1), runs workloads, and
//! collects per-client energy/loss results through the paper's postmortem
//! methodology.
//!
//! * [`config`] — scenario and client configuration and the Figure-4
//!   video access patterns;
//! * [`build`] — topology assembly ([`assemble`]) and execution
//!   ([`run_scenario`], the composition of [`assemble`], the world's run,
//!   [`postmortem`] and [`collect`]);
//! * [`results`] — per-client and per-run result structures;
//! * [`calibrate`](mod@calibrate) — the §3.2.2 bandwidth microbenchmark (M1);
//! * [`experiments`] — the experiment registry, one entry per paper
//!   table/figure (E1–E10, ablations A1–A7, microbenchmark M1);
//! * [`report`] — text-table rendering for harness output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod calibrate;
pub mod config;
pub mod experiments;
pub mod report;
pub mod results;

pub use build::{assemble, collect, hosts, postmortem, run_scenario, Assembled, MAX_CELLS};
pub use calibrate::{calibrate, Calibration};
pub use config::{ClientKind, ClientSpec, ObsConfig, RadioMode, ScenarioConfig, VideoPattern};
pub use report::{banner, fmt_summary, Table};
pub use results::{AppMetrics, ClientResult, FtpSummary, LiveSummary, ScenarioResult, WebSummary};
