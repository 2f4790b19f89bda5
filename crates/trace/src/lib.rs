//! # powerburst-trace
//!
//! The measurement half of the paper's methodology (§3.1, §4.1): traces
//! captured by the monitoring station are replayed *postmortem* to compute
//! per-client WNIC energy, missed packets, and the waste decomposition of
//! Figure 6, against the baseline of a naive always-on client.
//!
//! * [`postmortem`] — the replay simulator ([`analyze_client`]);
//! * [`summary`] — medium utilization and JSON-lines export of captures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod postmortem;
pub mod summary;

pub use postmortem::{analyze_client, PolicyParams, PostmortemReport};
pub use summary::{to_jsonl, utilization};
