//! Result structures collected after a scenario run.

use powerburst_core::{InvariantLog, PolicyStats, ProxyStats};
use powerburst_net::{FaultStats, HostAddr};
use powerburst_obs::ObsReport;
use powerburst_sim::{SimDuration, Summary};
use powerburst_trace::PostmortemReport;
use powerburst_traffic::PlayerStats;

/// Web-browsing outcome for one client.
#[derive(Debug, Clone, Copy, Default)]
pub struct WebSummary {
    /// Objects fully fetched.
    pub objects_done: usize,
    /// Pages fully fetched.
    pub pages_done: usize,
    /// Payload bytes received.
    pub bytes: u64,
    /// Mean object fetch latency, seconds.
    pub mean_latency_s: f64,
    /// Max object fetch latency, seconds.
    pub max_latency_s: f64,
}

/// Bulk-download outcome for one client.
#[derive(Debug, Clone, Copy, Default)]
pub struct FtpSummary {
    /// All bytes arrived.
    pub done: bool,
    /// Transfer duration, seconds (if complete).
    pub transfer_s: Option<f64>,
    /// Bytes received.
    pub received: u64,
}

/// Application-level outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppMetrics {
    /// Video player stats, if a video client.
    pub video: Option<PlayerStats>,
    /// Browser stats, if a web client.
    pub web: Option<WebSummary>,
    /// Bulk-transfer stats, if an ftp client.
    pub ftp: Option<FtpSummary>,
}

/// Live-radio energy outcome (only in `RadioMode::Live` runs).
#[derive(Debug, Clone, Copy)]
pub struct LiveSummary {
    /// Measured energy, millijoules.
    pub energy_mj: f64,
    /// Naive-client energy over the same run, millijoules.
    pub naive_mj: f64,
    /// Fraction saved.
    pub saved: f64,
    /// Frames genuinely lost to sleep.
    pub missed_frames: u64,
    /// Frames received.
    pub rx_frames: u64,
}

/// Everything measured about one client.
#[derive(Debug, Clone)]
pub struct ClientResult {
    /// The client's host address.
    pub host: HostAddr,
    /// Workload label ("video-56K", "web", …).
    pub label: String,
    /// Whether this is a UDP/video client (for the Fig. 5 split).
    pub is_video: bool,
    /// Postmortem replay (the paper's primary metric path).
    pub post: PostmortemReport,
    /// Live-radio measurement, when radios actually slept.
    pub live: Option<LiveSummary>,
    /// The live daemon's policy counters: all zero in Monitor mode; the
    /// replay in `post` is the policy run.
    pub daemon: PolicyStats,
    /// Application-level outcome.
    pub app: AppMetrics,
}

impl ClientResult {
    /// The headline metric: percent energy saved vs naive (postmortem in
    /// Monitor runs, live in Live runs).
    pub fn saved_pct(&self) -> f64 {
        match &self.live {
            Some(l) => l.saved * 100.0,
            None => self.post.saved * 100.0,
        }
    }

    /// Packet loss fraction seen by the power policy.
    pub fn loss_pct(&self) -> f64 {
        match &self.live {
            Some(l) => {
                let total = l.missed_frames + l.rx_frames;
                if total == 0 {
                    0.0
                } else {
                    l.missed_frames as f64 / total as f64 * 100.0
                }
            }
            None => self.post.loss_fraction() * 100.0,
        }
    }
}

/// A completed scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Per-client outcomes, in client order.
    pub clients: Vec<ClientResult>,
    /// Proxy counters.
    pub proxy: ProxyStats,
    /// Frames dropped at the medium transmit queue (AP overload).
    pub medium_drops: u64,
    /// Medium utilization over the run.
    pub utilization: f64,
    /// Captured frames.
    pub trace_frames: usize,
    /// Run length.
    pub duration: SimDuration,
    /// Total RealServer fidelity downshifts (the 512 kbps anomaly).
    pub downshifts: u32,
    /// Admission-control counters, when admission was enabled.
    pub admission: Option<powerburst_core::AdmissionStats>,
    /// What the fault injector actually did (all zero when no plan).
    pub faults: FaultStats,
    /// Runtime invariant violations (empty on a healthy run): slot
    /// overruns, unmarked bursts, schedule completeness, energy
    /// conservation, AP ordering.
    pub invariants: InvariantLog,
    /// Events processed by the simulation loop (feeds events/sec figures).
    pub sim_events: u64,
    /// Observability export, when the scenario enabled collection.
    pub obs: Option<ObsReport>,
}

impl ScenarioResult {
    /// Summary of percent-saved over clients matching `pred`.
    pub fn saved_summary(&self, pred: impl Fn(&ClientResult) -> bool) -> Summary {
        Summary::from_iter(self.clients.iter().filter(|c| pred(c)).map(|c| c.saved_pct()))
    }

    /// Summary of loss percent over clients matching `pred`.
    pub fn loss_summary(&self, pred: impl Fn(&ClientResult) -> bool) -> Summary {
        Summary::from_iter(self.clients.iter().filter(|c| pred(c)).map(|c| c.loss_pct()))
    }

    /// Summary over all clients.
    pub fn saved_all(&self) -> Summary {
        self.saved_summary(|_| true)
    }

    /// Video-client summary (UDP bars of Figure 5).
    pub fn saved_video(&self) -> Summary {
        self.saved_summary(|c| c.is_video)
    }

    /// Non-video summary (TCP bars of Figure 5).
    pub fn saved_tcp(&self) -> Summary {
        self.saved_summary(|c| !c.is_video)
    }
}
