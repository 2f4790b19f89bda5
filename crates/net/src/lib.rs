//! # powerburst-net
//!
//! Network substrate for the ICPP 2004 transparent-proxy reproduction: the
//! pieces the paper got for free from a physical testbed (Fast Ethernet,
//! an Orinoco 11 Mbps radio cell, a Linux bridge to interpose on) rebuilt
//! as a deterministic discrete-event model.
//!
//! * [`addr`] / [`packet`] — hosts, sockets, and packets with real headers
//!   (including the ToS end-of-burst mark the proxy sets);
//! * [`link`] — wired point-to-point links with serialization + delay;
//! * [`medium`] — the shared half-duplex radio channel with a **linear
//!   airtime model** and tail-drop overload behaviour;
//! * [`ap`] — the access point, whose correlated forwarding-delay process
//!   is what the paper's delay-compensation algorithm fights;
//! * [`forward`] — static routing and an Ethernet switch;
//! * [`shaper`] — a DummyNet-style pipe (rate, delay, Bernoulli drops);
//! * [`sniffer`] — the monitoring station capturing every radio frame;
//! * [`node`] / [`world`] — the event engine: [`Node`] state machines
//!   driven by a deterministic event loop, with per-client WNIC energy
//!   billed exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod ap;
pub mod channel;
pub mod faults;
pub mod feedback;
pub mod forward;
pub mod link;
pub mod medium;
pub mod node;
pub mod packet;
pub mod pattern;
pub mod shaper;
pub mod sniffer;
pub mod world;

pub use addr::{ports, HostAddr, IfaceId, NodeId, SockAddr};
pub use ap::{AccessPoint, ApDelayParams, ApDelayProcess, AP_RADIO, AP_WIRED};
pub use channel::{ChannelModel, ChannelQuality, MarkovChannelConfig};
pub use faults::{ApJitterFault, FaultInjector, FaultPlan, FaultStats};
pub use feedback::ReceiverReport;
pub use forward::{StaticRouter, Switch};
pub use link::{Endpoint, HalfLink, Link, LinkSpec, WireOutcome};
pub use medium::{AirtimeModel, Medium, TxOutcome};
pub use node::{Ctx, Ev, Node, TimerId, TimerToken};
pub use packet::{Packet, Proto, TcpFlags, TcpHeader, IP_HEADER, TCP_HEADER, UDP_HEADER};
pub use pattern::{pattern_bytes, PatternCache};
pub use shaper::{Pipe, PipeSpec};
pub use sniffer::{Delivery, Sniffer, SnifferRecord};
pub use world::{NodeConfig, NodeStats, World};
