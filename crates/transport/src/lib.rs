//! # powerburst-transport
//!
//! Transport protocols for the ICPP 2004 transparent-proxy reproduction.
//! The proxy "maintains separate connections to the client and server"
//! (§1), so this crate provides a real — if compact — TCP that both the
//! proxy's splice halves and the end hosts run, plus UDP helpers for the
//! streaming traffic.
//!
//! * [`tcp`] — sans-IO [`TcpEndpoint`]: 3-way handshake, sliding window,
//!   Reno congestion control, RTT estimation (Karn), RTO with backoff,
//!   fast retransmit, reassembly, FIN teardown, and the proxy's
//!   end-of-burst ToS marking hook;
//! * [`udp`] — the sequence-stamped stream payload format;
//! * [`loopback`] — an in-memory channel for driving two endpoints in
//!   tests;
//! * [`rtt`], [`congestion`], [`reassembly`], [`sendbuf`] — the pieces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod congestion;
pub mod loopback;
pub mod reassembly;
pub mod rtt;
pub mod sendbuf;
pub mod tcp;
pub mod udp;

pub use congestion::Reno;
pub use loopback::Loopback;
pub use reassembly::Reassembly;
pub use rtt::RttEstimator;
pub use sendbuf::SendBuffer;
pub use tcp::{TcpConfig, TcpEndpoint, TcpEvent, TcpState, TcpStats};
pub use udp::{StreamPayload, STREAM_HEADER};
