//! The static metric catalog.
//!
//! Every metric the workspace records is declared here with a stable name
//! and a dense index; storage in the recorder is a fixed-size array per
//! metric class, so recording never allocates and exports never depend on
//! hash-map iteration order. Adding a metric means adding an enum variant,
//! its `ALL` entry, and its `name()` — a unit test cross-checks the three.

/// Shared histogram bucket upper bounds: powers of two from 1 to 2²⁰.
///
/// The range covers every quantity we histogram — microsecond latencies up
/// to ~1 s and queue depths up to ~1 MiB — with a final implicit overflow
/// bucket for anything larger. One shared geometry keeps exports compact
/// and comparisons across histograms trivial.
pub const BUCKET_BOUNDS: [u64; 21] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
    262144, 524288, 1048576,
];

/// Bucket count per histogram: one per bound plus the overflow bucket.
pub const BUCKETS: usize = BUCKET_BOUNDS.len() + 1;

/// Monotone event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Schedules built by the proxy (one per SRP).
    SchedulesBuilt,
    /// Schedules flagged `unchanged` (clients may skip the next SRP wake).
    SchedulesUnchanged,
    /// Schedules flagged saturated (degraded round-robin layout).
    SchedulesSaturated,
    /// Schedule entries whose µs offsets/durations overflowed the u32 wire
    /// range and were clamped.
    WireOverflows,
    /// Bursts the proxy started.
    BurstsStarted,
    /// Bursts the proxy completed.
    BurstsCompleted,
    /// Bursts that ran past their slot budget (plus grace).
    SlotOverruns,
    /// UDP frames the proxy released downstream.
    UdpFramesSent,
    /// UDP wire bytes the proxy released downstream.
    UdpBytesSent,
    /// TCP payload bytes the proxy fed into splices during bursts.
    TcpBytesFed,
    /// Packets dropped at the proxy's per-client queues (capacity).
    ProxyQueueDrops,
    /// Frames the AP forwarded downlink (wire → radio).
    ApForwardedDown,
    /// Frames the AP forwarded uplink (radio → wire).
    ApForwardedUp,
    /// AP FIFO-ordering violations detected by the delay guard.
    ApFifoViolations,
    /// Schedule broadcasts a client received and applied. Like every
    /// `Client*` counter, recorded by live-radio daemons only: in Monitor
    /// mode the client policy runs in the postmortem replay.
    ClientSchedulesApplied,
    /// SRPs a client woke for but no schedule arrived (miss timer fired);
    /// live radios only.
    ClientSchedulesMissed,
    /// Marked (end-of-burst) frames clients observed; live radios only.
    ClientMarksSeen,
    /// SRP wake-ups clients skipped thanks to the `unchanged` flag; live
    /// radios only.
    ClientSkippedWakes,
    /// WNIC transitions into high-power (wake) mode.
    WnicWakes,
    /// WNIC transitions into low-power (sleep) mode.
    WnicSleeps,
    /// Events dispatched by the simulation world loop.
    WorldEvents,
    /// Runtime invariant violations recorded by the audit layer.
    InvariantViolations,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 22] = [
        Counter::SchedulesBuilt,
        Counter::SchedulesUnchanged,
        Counter::SchedulesSaturated,
        Counter::WireOverflows,
        Counter::BurstsStarted,
        Counter::BurstsCompleted,
        Counter::SlotOverruns,
        Counter::UdpFramesSent,
        Counter::UdpBytesSent,
        Counter::TcpBytesFed,
        Counter::ProxyQueueDrops,
        Counter::ApForwardedDown,
        Counter::ApForwardedUp,
        Counter::ApFifoViolations,
        Counter::ClientSchedulesApplied,
        Counter::ClientSchedulesMissed,
        Counter::ClientMarksSeen,
        Counter::ClientSkippedWakes,
        Counter::WnicWakes,
        Counter::WnicSleeps,
        Counter::WorldEvents,
        Counter::InvariantViolations,
    ];

    /// Number of counters.
    pub const COUNT: usize = Counter::ALL.len();

    /// Stable export name.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::SchedulesBuilt => "schedules_built",
            Counter::SchedulesUnchanged => "schedules_unchanged",
            Counter::SchedulesSaturated => "schedules_saturated",
            Counter::WireOverflows => "wire_overflows",
            Counter::BurstsStarted => "bursts_started",
            Counter::BurstsCompleted => "bursts_completed",
            Counter::SlotOverruns => "slot_overruns",
            Counter::UdpFramesSent => "udp_frames_sent",
            Counter::UdpBytesSent => "udp_bytes_sent",
            Counter::TcpBytesFed => "tcp_bytes_fed",
            Counter::ProxyQueueDrops => "proxy_queue_drops",
            Counter::ApForwardedDown => "ap_forwarded_down",
            Counter::ApForwardedUp => "ap_forwarded_up",
            Counter::ApFifoViolations => "ap_fifo_violations",
            Counter::ClientSchedulesApplied => "client_schedules_applied",
            Counter::ClientSchedulesMissed => "client_schedules_missed",
            Counter::ClientMarksSeen => "client_marks_seen",
            Counter::ClientSkippedWakes => "client_skipped_wakes",
            Counter::WnicWakes => "wnic_wakes",
            Counter::WnicSleeps => "wnic_sleeps",
            Counter::WorldEvents => "world_events",
            Counter::InvariantViolations => "invariant_violations",
        }
    }

    /// Dense storage index.
    #[inline]
    pub const fn idx(self) -> usize {
        self as usize
    }
}

/// Last-value gauges (signed; deltas may go negative transiently). Each
/// recorder lane keeps its own value, and an export sums them, so a gauge
/// of a multi-cell run is the total over its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Open TCP splices at the proxy.
    ActiveSplices,
    /// Total bytes buffered across all proxy client queues.
    BacklogBytes,
    /// Entry count of the most recent schedule, summed over cells.
    LastScheduleEntries,
    /// WNICs currently in high-power mode.
    RadiosAwake,
}

impl Gauge {
    /// Every gauge, in export order.
    pub const ALL: [Gauge; 4] =
        [Gauge::ActiveSplices, Gauge::BacklogBytes, Gauge::LastScheduleEntries, Gauge::RadiosAwake];

    /// Number of gauges.
    pub const COUNT: usize = Gauge::ALL.len();

    /// Stable export name.
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::ActiveSplices => "active_splices",
            Gauge::BacklogBytes => "backlog_bytes",
            Gauge::LastScheduleEntries => "last_schedule_entries",
            Gauge::RadiosAwake => "radios_awake",
        }
    }

    /// Dense storage index.
    #[inline]
    pub const fn idx(self) -> usize {
        self as usize
    }
}

/// Fixed-bucket histograms (bounds shared via [`BUCKET_BOUNDS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Spare time left in a slot when its burst completed, µs.
    SlotMarginUs,
    /// Overshoot past the slot budget when a burst overran, µs.
    SlotOverrunUs,
    /// Client wake-up lead error: awake-but-idle time before traffic, µs.
    /// Recorded by live-radio daemons only.
    WakeLeadUs,
    /// Per-client queue depth in bytes, sampled at each SRP snapshot.
    QueueDepthBytes,
    /// Per-client queue depth in packets, sampled at each SRP snapshot.
    QueueDepthPkts,
    /// Scheduled burst slot lengths, µs.
    BurstLenUs,
}

impl Hist {
    /// Every histogram, in export order.
    pub const ALL: [Hist; 6] = [
        Hist::SlotMarginUs,
        Hist::SlotOverrunUs,
        Hist::WakeLeadUs,
        Hist::QueueDepthBytes,
        Hist::QueueDepthPkts,
        Hist::BurstLenUs,
    ];

    /// Number of histograms.
    pub const COUNT: usize = Hist::ALL.len();

    /// Stable export name.
    pub const fn name(self) -> &'static str {
        match self {
            Hist::SlotMarginUs => "slot_margin_us",
            Hist::SlotOverrunUs => "slot_overrun_us",
            Hist::WakeLeadUs => "wake_lead_us",
            Hist::QueueDepthBytes => "queue_depth_bytes",
            Hist::QueueDepthPkts => "queue_depth_pkts",
            Hist::BurstLenUs => "burst_len_us",
        }
    }

    /// Dense storage index.
    #[inline]
    pub const fn idx(self) -> usize {
        self as usize
    }

    /// Bucket index for a sample: the first bound ≥ `v`, else overflow.
    #[inline]
    pub fn bucket(v: u64) -> usize {
        BUCKET_BOUNDS.partition_point(|&b| b < v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_indices_are_dense_and_ordered() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.idx(), i, "counter {} out of order", c.name());
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(g.idx(), i, "gauge {} out of order", g.name());
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.idx(), i, "hist {} out of order", h.name());
        }
    }

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Gauge::ALL.iter().map(|g| g.name()));
        names.extend(Hist::ALL.iter().map(|h| h.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
    }

    #[test]
    fn bucket_selection() {
        assert_eq!(Hist::bucket(0), 0);
        assert_eq!(Hist::bucket(1), 0);
        assert_eq!(Hist::bucket(2), 1);
        assert_eq!(Hist::bucket(3), 2);
        assert_eq!(Hist::bucket(1_048_576), BUCKET_BOUNDS.len() - 1);
        assert_eq!(Hist::bucket(u64::MAX), BUCKET_BOUNDS.len());
    }
}
