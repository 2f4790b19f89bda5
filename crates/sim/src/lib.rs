//! # powerburst-sim
//!
//! Deterministic discrete-event simulation substrate for the `powerburst`
//! workspace, a reproduction of *"Dynamic, Power-Aware Scheduling for Mobile
//! Clients Using a Transparent Proxy"* (ICPP 2004).
//!
//! This crate is intentionally domain-free: it knows nothing about packets,
//! proxies, or energy. It provides the pieces every other crate builds on:
//!
//! * [`time`] — integral-microsecond simulation time ([`SimTime`],
//!   [`SimDuration`]);
//! * [`events`] — a deterministic event queue with `(time, seq)` ordering
//!   and O(log n) cancellation by handle;
//! * [`clock`] — per-node clock skew/drift models (the reason the paper
//!   needs delay compensation at all);
//! * [`rng`] — decorrelated per-component RNG streams derived from one
//!   master seed;
//! * [`sweep`] — a scoped-thread parallel runner for fanning experiment
//!   configurations across cores;
//! * [`shard`] — the conservative-lookahead epoch executor that runs one
//!   world's shards across threads with deterministic mailbox exchange;
//! * [`stats`] — the summary statistics and least-squares fit the
//!   experiment harnesses report.
//!
//! Determinism contract: given the same master seed and configuration, a
//! run produces bit-identical traces on any platform. Everything here is
//! integer time plus explicitly seeded `StdRng` streams; no wall clock, no
//! `HashMap` iteration order on any result path.

#![warn(missing_docs)]

pub mod clock;
pub mod events;
pub mod hash;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod sweep;
pub mod time;

pub use clock::{ClockModel, LocalTime};
pub use events::{EventId, EventQueue};
pub use hash::{FastHashBuilder, FastHashMap};
pub use rng::derive_rng;
pub use shard::{run_epochs, EpochPlan, MailSender, Outboxes};
pub use stats::{LinearFit, Summary};
pub use sweep::parallel_sweep;
pub use time::{SimDuration, SimTime};
