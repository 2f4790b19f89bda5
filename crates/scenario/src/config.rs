//! Experiment configuration: client specifications, scenario assembly
//! inputs and the Figure-4 video access patterns.

use powerburst_core::{CompMode, PolicyKind, PolicyParams, ProxyMode};
use powerburst_net::FaultPlan;
use powerburst_sim::SimDuration;
use powerburst_traffic::{Fidelity, WebScriptConfig};

/// What a client does during the run.
#[derive(Debug, Clone)]
pub enum ClientKind {
    /// Streams a video of the given fidelity (RealOne ↔ RealServer).
    Video {
        /// Requested stream fidelity.
        fidelity: Fidelity,
    },
    /// Browses the web with a pre-generated script.
    Web {
        /// Script-generation parameters.
        script: WebScriptConfig,
    },
    /// Downloads one large file over TCP.
    Ftp {
        /// Transfer size, bytes.
        size: u64,
    },
}

impl ClientKind {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            ClientKind::Video { fidelity } => format!("video-{}", fidelity.label()),
            ClientKind::Web { .. } => "web".to_string(),
            ClientKind::Ftp { size } => format!("ftp-{}MB", size / 1_000_000),
        }
    }

    /// Is this a UDP (video) client?
    pub fn is_video(&self) -> bool {
        matches!(self, ClientKind::Video { .. })
    }
}

/// Per-client configuration.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// Workload.
    pub kind: ClientKind,
    /// Early-transition amount (§3.3).
    pub early_transition: SimDuration,
    /// Honor the §5 `unchanged` optimization.
    pub skip_unchanged: bool,
    /// Delay-compensation algorithm (the §3.3 adaptive default, or the
    /// fixed-anchor ablation baseline).
    pub comp: CompMode,
}

impl ClientSpec {
    /// A client with the paper's default 6 ms early transition.
    pub fn new(kind: ClientKind) -> ClientSpec {
        ClientSpec {
            kind,
            early_transition: SimDuration::from_ms(6),
            skip_unchanged: false,
            comp: CompMode::Adaptive,
        }
    }

    /// The client power policy's parameters, for the daemon and the replay.
    pub fn policy_params(&self) -> PolicyParams {
        PolicyParams {
            early_transition: self.early_transition,
            skip_unchanged: self.skip_unchanged,
            comp: self.comp,
        }
    }
}

/// Observability settings for a scenario run.
///
/// Disabled by default: the recorder handed to every layer is the no-op
/// handle, so instrumented hot paths cost one branch and allocate nothing.
/// One recorder is created *per run* (inside `assemble`), never shared
/// across sweep jobs, so exports are deterministic at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Collect metrics (counters, gauges, histograms).
    pub metrics: bool,
    /// Also collect the structured event stream (heavier), up to the
    /// recorder's default capacity; later events are counted as dropped.
    pub events: bool,
}

impl ObsConfig {
    /// Everything off (the default).
    pub const OFF: ObsConfig = ObsConfig { metrics: false, events: false };

    /// Metrics only.
    pub fn metrics() -> ObsConfig {
        ObsConfig { metrics: true, events: false }
    }

    /// Metrics plus the event stream.
    pub fn full() -> ObsConfig {
        ObsConfig { metrics: true, events: true }
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::OFF
    }
}

/// How client radios are modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadioMode {
    /// The paper's methodology: radios stay listening for the whole run
    /// (every frame is captured); energy and losses come from the
    /// postmortem replay of the trace.
    Monitor,
    /// Radios genuinely sleep: frames arriving during sleep are lost on
    /// the air (TCP must retransmit). Used by the drop-impact experiments.
    Live,
}

/// A complete experiment scenario.
///
/// The testbed of §4.1 is fixed in `assemble`: the 11 Mb/s DSSS medium,
/// the AP's forwarding-delay process, 100 Mb/s Fast Ethernet wiring, the
/// metro backhaul between cells, a 150 ms AP transmit backlog and ±5 ms
/// client clock offsets.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Master seed (drives every random stream).
    pub seed: u64,
    /// Max client clock drift, ppm (uniform ±).
    pub clock_drift_ppm: f64,
    /// Proxy scheduling policy. `assemble` gives each policy the inputs
    /// it reads: the seeded Markov channel model for `ChannelAware`,
    /// buffer-extended receiver reports for `BufferAware`.
    pub policy: PolicyKind,
    /// Proxy connection mode (split vs pass-through ablation).
    pub proxy_mode: ProxyMode,
    /// Emit the §5 unchanged flag.
    pub flag_unchanged: bool,
    /// The clients.
    pub clients: Vec<ClientSpec>,
    /// Radio modeling.
    pub radio: RadioMode,
    /// Run duration (the paper's trailer is 1:59).
    pub duration: SimDuration,
    /// Video stream start stagger (§4.1: "requests were spaced roughly one
    /// second apart").
    pub stagger: SimDuration,
    /// Put the paper's DummyNet pipe (4 Mb/s, 2 ms RTT, 5 % drops)
    /// between the servers and the proxy (§4.3).
    pub pipe: bool,
    /// Run §3.2.1 admission control at the proxy.
    pub admission: bool,
    /// Deterministic fault injection (loss/dup/reorder/SRP drops, AP
    /// jitter spikes, clock-skew ramps). Defaults to no faults. Frame loss
    /// is also the DummyNet lossy channel of §4.3 (E9).
    pub faults: FaultPlan,
    /// Observability (metrics/events) collection. Defaults to off.
    pub obs: ObsConfig,
    /// Number of radio cells. 1 (the default) is the paper's single-AP
    /// world. Client `i` joins cell `i % cells`. With more than one
    /// occupied cell, `assemble` instantiates one AP + one proxy shard
    /// per *occupied* cell on the wired topology, plus a coordinator tier
    /// exchanging per-cell aggregate demand — schedule broadcasts then
    /// stay bounded by cell size instead of O(total clients). Cells that
    /// end up with no clients are elided, so a config with fewer clients
    /// than cells occupies only `clients` cells, and one client in any
    /// number of cells builds the 1-cell world.
    pub cells: usize,
    /// Shared airtime pool for the coordinator, in permille of one burst
    /// interval per cell (see `powerburst_coord::CoordinatorConfig`).
    /// `None` grants every cell its full interval (non-overlapping
    /// channels). Ignored in 1-cell worlds, which have no coordinator.
    pub coord_pool_permille: Option<u32>,
    /// Worker threads for the sharded event core (1 by default). Thread
    /// count never changes any simulated result — the
    /// conservative-lookahead engine is byte-identical at every thread
    /// count (see the determinism matrix test) — and 1-cell worlds always
    /// run on the caller's thread.
    pub threads: usize,
}

impl ScenarioConfig {
    /// A scenario with paper-standard network settings.
    pub fn new(seed: u64, policy: PolicyKind, clients: Vec<ClientSpec>) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            clock_drift_ppm: 50.0,
            policy,
            proxy_mode: ProxyMode::Split,
            flag_unchanged: false,
            clients,
            radio: RadioMode::Monitor,
            duration: SimDuration::from_secs(119),
            stagger: SimDuration::from_secs(1),
            pipe: false,
            admission: false,
            faults: FaultPlan::NONE,
            obs: ObsConfig::OFF,
            cells: 1,
            coord_pool_permille: None,
            threads: 1,
        }
    }

    /// Shorten the run (tests and smoke runs).
    pub fn with_duration(mut self, d: SimDuration) -> ScenarioConfig {
        self.duration = d;
        self
    }

    /// Inject faults (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> ScenarioConfig {
        self.faults = plan;
        self
    }

    /// Enable observability collection (builder style).
    pub fn with_obs(mut self, obs: ObsConfig) -> ScenarioConfig {
        self.obs = obs;
        self
    }

    /// Spread the clients over `cells` radio cells, round-robin (builder
    /// style).
    pub fn with_cells(mut self, cells: usize) -> ScenarioConfig {
        assert!(cells >= 1, "a world has at least one cell");
        self.cells = cells;
        self
    }

    /// Constrain the coordinator to a shared airtime pool (builder style).
    pub fn with_coord_pool(mut self, permille: u32) -> ScenarioConfig {
        self.coord_pool_permille = Some(permille);
        self
    }

    /// Run the sharded event core on `threads` workers (builder style).
    /// Purely a wall-clock knob.
    pub fn with_threads(mut self, threads: usize) -> ScenarioConfig {
        self.threads = threads;
        self
    }

    /// The cell client `i` belongs to: round-robin over the cells.
    pub fn cell_of(&self, i: usize) -> usize {
        i % self.cells.max(1)
    }

    /// How many cells hold a client: `min(cells, clients)`, and at least
    /// one (a world without clients is still the paper's single-AP world).
    /// Round-robin fills cells in order, so the occupied cells are exactly
    /// `0..occupied_cells()`; `assemble` builds one AP and proxy shard for
    /// each.
    pub fn occupied_cells(&self) -> usize {
        self.cells.min(self.clients.len()).max(1)
    }
}

/// The paper's five Figure-4 access patterns for ten video clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VideoPattern {
    /// All ten clients at 56 kbps.
    All56,
    /// All ten at 256 kbps.
    All256,
    /// All ten at 512 kbps.
    All512,
    /// Five at 56 kbps, five at 512 kbps.
    Half56Half512,
    /// Five at 56 kbps plus one-ish of each fidelity ("All").
    Mixed,
}

impl VideoPattern {
    /// The fidelities assigned to `n` clients under this pattern.
    pub fn fidelities(self, n: usize) -> Vec<Fidelity> {
        use Fidelity::*;
        let base: Vec<Fidelity> = match self {
            VideoPattern::All56 => vec![K56],
            VideoPattern::All256 => vec![K256],
            VideoPattern::All512 => vec![K512],
            VideoPattern::Half56Half512 => vec![K56, K512],
            VideoPattern::Mixed => vec![K56, K56, K56, K56, K56, K56, K128, K256, K512, K128],
        };
        (0..n)
            .map(|i| match self {
                VideoPattern::Half56Half512 => {
                    if i < n / 2 {
                        K56
                    } else {
                        K512
                    }
                }
                _ => base[i % base.len()],
            })
            .collect()
    }

    /// Paper bar label.
    pub fn label(self) -> &'static str {
        match self {
            VideoPattern::All56 => "56K",
            VideoPattern::All256 => "256K",
            VideoPattern::All512 => "512K",
            VideoPattern::Half56Half512 => "56K_512K",
            VideoPattern::Mixed => "All",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_cover_ten_clients() {
        for p in [
            VideoPattern::All56,
            VideoPattern::All256,
            VideoPattern::All512,
            VideoPattern::Half56Half512,
            VideoPattern::Mixed,
        ] {
            let f = p.fidelities(10);
            assert_eq!(f.len(), 10, "{p:?}");
        }
    }

    #[test]
    fn half_split_is_half() {
        let f = VideoPattern::Half56Half512.fidelities(10);
        assert_eq!(f.iter().filter(|x| **x == Fidelity::K56).count(), 5);
        assert_eq!(f.iter().filter(|x| **x == Fidelity::K512).count(), 5);
    }

    #[test]
    fn uniform_patterns_are_uniform() {
        assert!(VideoPattern::All512.fidelities(10).iter().all(|f| *f == Fidelity::K512));
    }

    #[test]
    fn labels_match_paper_bars() {
        assert_eq!(VideoPattern::All56.label(), "56K");
        assert_eq!(VideoPattern::Half56Half512.label(), "56K_512K");
        assert_eq!(VideoPattern::Mixed.label(), "All");
    }

    #[test]
    fn client_kind_labels() {
        assert_eq!(ClientKind::Video { fidelity: Fidelity::K256 }.label(), "video-256K");
        assert_eq!(ClientKind::Ftp { size: 2_000_000 }.label(), "ftp-2MB");
        assert!(ClientKind::Video { fidelity: Fidelity::K56 }.is_video());
        assert!(!ClientKind::Ftp { size: 1 }.is_video());
    }
}
