//! # powerburst
//!
//! A from-scratch Rust reproduction of **“Dynamic, Power-Aware Scheduling
//! for Mobile Clients Using a Transparent Proxy”** (ICPP 2004): a
//! transparent proxy that buffers downlink traffic and bursts it to mobile
//! clients on a broadcast schedule, so their wireless NICs can sleep
//! between bursts — plus every substrate the paper's testbed provided
//! (a deterministic network simulator, a compact TCP, RealServer-style
//! streaming workloads, a WaveLAN energy model, and the monitoring-station
//! postmortem methodology).
//!
//! This crate is the facade: it re-exports the workspace crates under one
//! roof, provides a [`prelude`] for examples and quick experiments, and
//! holds the [`golden`] snapshot harness the regression tests share.
//!
//! ```
//! use powerburst::prelude::*;
//!
//! // Ten clients streaming 56 kbps video behind a 100 ms burst schedule.
//! let clients = (0..10)
//!     .map(|_| ClientSpec::new(ClientKind::Video { fidelity: Fidelity::K56 }))
//!     .collect();
//! let cfg = ScenarioConfig::new(
//!     42,
//!     PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) },
//!     clients,
//! )
//! .with_duration(SimDuration::from_secs(10));
//! let result = run_scenario(&cfg);
//! assert!(result.saved_all().mean > 50.0, "low-rate streams save energy");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod golden;

pub use powerburst_client as client;
pub use powerburst_core as core;
pub use powerburst_energy as energy;
pub use powerburst_net as net;
pub use powerburst_obs as obs;
pub use powerburst_scenario as scenario;
pub use powerburst_sim as sim;
pub use powerburst_trace as trace;
pub use powerburst_traffic as traffic;
pub use powerburst_transport as transport;

/// Everything a typical experiment needs in one import.
pub mod prelude {
    pub use powerburst_client::PowerClient;
    pub use powerburst_core::{
        BandwidthModel, CompMode, InvariantKind, InvariantLog, PolicyKind, PolicyStats, Proxy,
        ProxyConfig, ProxyMode, Schedule, Violation,
    };
    pub use powerburst_energy::{
        naive_energy_mj, optimal_savings_for_rate, CardSpec, EnergyReport, Wnic,
    };
    pub use powerburst_net::{
        AirtimeModel, ApDelayParams, FaultPlan, FaultStats, HostAddr, LinkSpec, World,
    };
    pub use powerburst_obs::{ObsReport, Recorder, RecorderConfig};
    pub use powerburst_scenario::{
        assemble, calibrate, run_scenario, ClientKind, ClientSpec, ObsConfig, RadioMode,
        ScenarioConfig, ScenarioResult, VideoPattern,
    };
    pub use powerburst_sim::{SimDuration, SimTime, Summary};
    pub use powerburst_trace::{analyze_client, PolicyParams, PostmortemReport};
    pub use powerburst_traffic::{Fidelity, WebScriptConfig};
    pub use powerburst_transport::{TcpConfig, TcpEndpoint};
}
