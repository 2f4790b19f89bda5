//! # powerburst-client
//!
//! The mobile-client power daemon for the ICPP 2004 transparent-proxy
//! reproduction: the "simple daemon" of §3.2.1 that hosts the unmodified
//! client application and, on a live radio, drives the client power
//! policy ([`powerburst_core::client_policy`]) with what its radio hears,
//! waking and sleeping the WNIC as the policy says. In Monitor mode the
//! postmortem replay runs the policy, and the daemon only hosts the app.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;

pub use daemon::PowerClient;
