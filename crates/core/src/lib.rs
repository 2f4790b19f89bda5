//! # powerburst-core
//!
//! The paper's contribution: a **transparent proxy** that transforms
//! ordinary downlink streams into scheduled bursts so that multiple mobile
//! clients can sleep their WNICs between bursts.
//!
//! * [`proxy`] — the proxy node: interception with address spoofing, split
//!   connections, per-client buffering, burst execution, schedule
//!   broadcast; includes the pass-through ablation mode;
//! * [`schedule`] — schedule data types and the demand snapshot;
//! * [`client_policy`] — the client side of the protocol: the §3.2–3.3
//!   wake/sleep policy as one sans-IO state machine, driven by the live
//!   daemon and by the postmortem replay alike;
//! * [`policy`] — [`PolicyKind`], which names the seven scheduling
//!   policies (dynamic fixed/variable, channel-aware, buffer-aware,
//!   static equal, slotted TCP/UDP static, PSM beacon) and builds their
//!   schedules;
//! * [`wire`] — the schedule broadcast wire codec (integer-only by
//!   contract, policed by the sim-purity lint's D005 rule);
//! * [`bandwidth`] — the fitted linear send-cost model (§3.2.2);
//! * [`marking`] — the three-counter end-of-burst marking protocol
//!   (§3.2.2) with its `forwarded ≤ sent` invariant;
//! * [`queues`] — byte-capped per-client packet queues;
//! * [`admission`] — the §3.2.1 future-work admission controller;
//! * [`invariants`] — runtime checks of the scheduler's contract (slot
//!   budgets, end-of-burst marks, schedule completeness, energy
//!   conservation), collected into the run report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod bandwidth;
pub mod client_policy;
pub mod invariants;
pub mod marking;
pub mod policy;
pub mod proxy;
pub mod queues;
pub mod schedule;
pub mod wire;

pub use admission::{AdmissionControl, AdmissionStats};
pub use bandwidth::BandwidthModel;
pub use client_policy::{
    Action, ClientPolicy, CompMode, PolicyParams, PolicyStats, PolicyTimer, WokeFor,
};
pub use invariants::{
    check_energy_conservation, InvariantKind, InvariantLog, ScheduleAuditor, Violation,
};
pub use marking::MarkCoordinator;
pub use policy::{registry, PolicyKind, PolicyScratch, DEFAULT_TARGET_BUFFER};
pub use proxy::{Proxy, ProxyConfig, ProxyMode, ProxyStats, PROXY_AP, PROXY_LAN};
pub use queues::PacketQueue;
pub use schedule::{BuilderConfig, ClientDemand, Schedule, ScheduleEntry};
pub use wire::{BudgetGrant, DemandReport};
