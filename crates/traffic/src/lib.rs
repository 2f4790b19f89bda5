//! # powerburst-traffic
//!
//! Workloads matching the paper's evaluation (§4.1–4.2):
//!
//! * [`video`] — a RealServer-style VBR streaming source (nominal 56/128/
//!   256/512 kbps → effective 34/80/225/450 kbps, GOP-bursty) with
//!   loss-driven fidelity adaptation, plus the client player that sends
//!   receiver reports;
//! * [`web`] — a request/response byte server and a seeded, scripted
//!   multi-connection browser;
//! * [`ftp`] — single-connection bulk download with transfer timing;
//! * [`cbr`] — constant-bit-rate source and counting sink (calibration);
//! * [`app`] — the [`App`] trait client nodes host, the `drive_endpoint`
//!   helper, and the naive (always-on) client baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod cbr;
pub mod ftp;
pub mod video;
pub mod web;

pub use app::{drive_endpoint, App, NaiveClient, APP_TOKEN, CLIENT_RADIO};
pub use cbr::{CbrSource, CbrSpec, CountingSink};
pub use ftp::FtpClientApp;
pub use video::{Fidelity, PlayerStats, StreamSpec, VideoClientApp, VideoServer};
pub use web::{generate_script, BrowserStats, ByteServer, Page, WebClientApp, WebScriptConfig};
