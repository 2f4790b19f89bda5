//! The recorder handle the instrumented layers hold.
//!
//! [`Recorder`] is a cheap-to-clone handle over an optional shared core.
//! The disabled recorder (the default) is a `None`: every recording call
//! is one branch, no atomics touched, no heap allocation — instrumented
//! hot paths cost nothing when observability is off. The enabled core
//! stores counters/gauges/histograms in fixed-size atomic arrays indexed
//! by the static catalog, so the enabled hot path is allocation-free too;
//! the event channel is pre-allocated to its cap for the same reason.
//!
//! ## Lanes
//!
//! A sharded world (DESIGN.md §17) records from several worker threads at
//! once. [`Recorder::lane`] derives a handle bound to one **lane**, which
//! holds everything one shard records: its own counters, gauges,
//! histograms and event buffer, written by that shard alone.
//! [`Recorder::export`] merges lanes deterministically — every number
//! summed over the lanes, events concatenated in lane order then stably
//! sorted by timestamp.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::events::{EventKind, ObsEvent};
use crate::metrics::{Counter, Gauge, Hist, BUCKETS};
use crate::report::{HistSnapshot, ObsReport};

/// Maximum events retained; later events are counted as dropped. The
/// buffer is pre-allocated to this cap so recording never allocates. The
/// cap applies per lane while recording and again to the merged stream at
/// export.
pub const EVENT_CAP: usize = 65_536;

/// Recorder construction options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Record structured events (metrics are always on for an enabled
    /// recorder; the event channel is the optional, heavier half).
    pub events: bool,
    /// Number of independent recording lanes (clamped to ≥ 1). One unless
    /// the world is sharded, in which case shard *k* records on lane *k*.
    pub lanes: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig { events: true, lanes: 1 }
    }
}

struct HistCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistCore {
    fn new() -> Self {
        HistCore {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Everything one lane records. Each lane has exactly one writer (one
/// shard), so within a lane the sequential semantics hold.
struct LaneCore {
    /// This lane's value of each counter, gauge and histogram.
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicI64; Gauge::COUNT],
    hists: [HistCore; Hist::COUNT],
    events: Mutex<Vec<ObsEvent>>,
    events_dropped: AtomicU64,
}

impl LaneCore {
    fn new(events_on: bool) -> Self {
        LaneCore {
            counters: [const { AtomicU64::new(0) }; Counter::COUNT],
            gauges: [const { AtomicI64::new(0) }; Gauge::COUNT],
            hists: std::array::from_fn(|_| HistCore::new()),
            events: Mutex::new(Vec::with_capacity(if events_on { EVENT_CAP } else { 0 })),
            events_dropped: AtomicU64::new(0),
        }
    }
}

struct ObsCore {
    events_on: bool,
    lanes: Vec<LaneCore>,
}

/// Handle through which the simulation layers record metrics and events.
///
/// A recorder is scoped to one simulation run: `run_scenario` constructs
/// one per run, so sweeps running many runs in parallel never share state
/// and exports stay deterministic regardless of thread count.
#[derive(Clone, Default)]
pub struct Recorder {
    core: Option<Arc<ObsCore>>,
    /// Which lane this handle writes to.
    lane: u32,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.core.is_some())
            .field("lane", &self.lane)
            .finish()
    }
}

impl Recorder {
    /// The no-op recorder: records nothing, costs one branch per call.
    pub const fn disabled() -> Self {
        Recorder { core: None, lane: 0 }
    }

    /// An enabled recorder, writing on lane 0.
    pub fn new(cfg: RecorderConfig) -> Self {
        let lanes = cfg.lanes.max(1);
        Recorder {
            core: Some(Arc::new(ObsCore {
                events_on: cfg.events,
                lanes: (0..lanes).map(|_| LaneCore::new(cfg.events)).collect(),
            })),
            lane: 0,
        }
    }

    /// A handle over the same core, bound to lane `idx`.
    ///
    /// # Panics
    /// If the recorder is enabled and has no lane `idx`.
    pub fn lane(&self, idx: usize) -> Recorder {
        if let Some(core) = &self.core {
            assert!(idx < core.lanes.len(), "lane {idx} of a {}-lane recorder", core.lanes.len());
        }
        Recorder { core: self.core.clone(), lane: idx as u32 }
    }

    /// This handle's lane of an enabled recorder.
    #[inline]
    fn lane_core(&self) -> Option<&LaneCore> {
        self.core.as_ref().map(|core| &core.lanes[self.lane as usize])
    }

    /// Is this recorder collecting anything at all?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Add `v` to this handle's lane's value of a counter.
    #[inline]
    pub fn add(&self, c: Counter, v: u64) {
        if let Some(lane) = self.lane_core() {
            lane.counters[c.idx()].fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Set this handle's lane's value of a gauge to `v` (the export sums
    /// the lanes).
    #[inline]
    pub fn gauge_set(&self, g: Gauge, v: i64) {
        if let Some(lane) = self.lane_core() {
            lane.gauges[g.idx()].store(v, Ordering::Relaxed);
        }
    }

    /// Add `dv` (possibly negative) to this handle's lane's value of a
    /// gauge.
    #[inline]
    pub fn gauge_add(&self, g: Gauge, dv: i64) {
        if let Some(lane) = self.lane_core() {
            lane.gauges[g.idx()].fetch_add(dv, Ordering::Relaxed);
        }
    }

    /// Record a histogram sample on this handle's lane.
    #[inline]
    pub fn observe(&self, h: Hist, v: u64) {
        if let Some(lane) = self.lane_core() {
            let hc = &lane.hists[h.idx()];
            hc.buckets[Hist::bucket(v)].fetch_add(1, Ordering::Relaxed);
            hc.count.fetch_add(1, Ordering::Relaxed);
            hc.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Record a structured event at simulation time `t_us` on this
    /// handle's lane.
    #[inline]
    pub fn event(&self, t_us: u64, kind: EventKind) {
        let Some(core) = &self.core else { return };
        if !core.events_on {
            return;
        }
        let lane = &core.lanes[self.lane as usize];
        let mut ev = lane.events.lock().expect("obs event channel poisoned");
        if ev.len() < EVENT_CAP {
            ev.push(ObsEvent { t_us, kind });
        } else {
            lane.events_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot everything recorded so far into a plain-data report.
    /// Returns `None` for the disabled recorder.
    ///
    /// Lane merge: every counter, gauge and histogram figure is the sum of
    /// its lane values. Events are concatenated in lane order, stably
    /// sorted by timestamp and cut to [`EVENT_CAP`], for one lane as for
    /// many: recording order is not always time order even within a lane
    /// (a live radio logs its `waking → awake` transition, stamped with the
    /// instant the wake completed, only when it next bills). The merge
    /// depends only on what each single-writer lane recorded — never on
    /// cross-thread timing.
    pub fn export(&self) -> Option<ObsReport> {
        let core = self.core.as_ref()?;
        let sum = |f: &dyn Fn(&LaneCore) -> &AtomicU64| {
            core.lanes.iter().map(|l| f(l).load(Ordering::Relaxed)).sum::<u64>()
        };
        let counters = Counter::ALL.iter().map(|c| sum(&|l| &l.counters[c.idx()])).collect();
        let gauges = Gauge::ALL
            .iter()
            .map(|g| core.lanes.iter().map(|l| l.gauges[g.idx()].load(Ordering::Relaxed)).sum())
            .collect();
        let hists = Hist::ALL
            .iter()
            .map(|h| HistSnapshot {
                count: sum(&|l| &l.hists[h.idx()].count),
                sum: sum(&|l| &l.hists[h.idx()].sum),
                buckets: (0..BUCKETS).map(|b| sum(&|l| &l.hists[h.idx()].buckets[b])).collect(),
            })
            .collect();
        let mut events: Vec<ObsEvent> = Vec::new();
        let mut events_dropped = 0;
        for lane in &core.lanes {
            events.extend(lane.events.lock().expect("obs event channel poisoned").iter().cloned());
            events_dropped += lane.events_dropped.load(Ordering::Relaxed);
        }
        events.sort_by_key(|e| e.t_us);
        if events.len() > EVENT_CAP {
            events_dropped += (events.len() - EVENT_CAP) as u64;
            events.truncate(EVENT_CAP);
        }
        Some(ObsReport { counters, gauges, hists, events, events_dropped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_exports_nothing() {
        let r = Recorder::disabled();
        r.incr(Counter::BurstsStarted);
        r.observe(Hist::WakeLeadUs, 7);
        r.event(1, EventKind::BurstStart { client: 1, budget_us: 10 });
        assert!(!r.enabled());
        assert!(r.export().is_none());
    }

    #[test]
    fn counters_gauges_hists_round_trip() {
        let r = Recorder::new(RecorderConfig::default());
        r.incr(Counter::SchedulesBuilt);
        r.add(Counter::UdpBytesSent, 1_000);
        r.gauge_set(Gauge::LastScheduleEntries, 5);
        r.gauge_add(Gauge::ActiveSplices, 2);
        r.gauge_add(Gauge::ActiveSplices, -1);
        r.observe(Hist::SlotMarginUs, 3);
        r.observe(Hist::SlotMarginUs, 1_000_000_000);
        let rep = r.export().unwrap();
        assert_eq!(rep.counter(Counter::SchedulesBuilt), 1);
        assert_eq!(rep.counter(Counter::UdpBytesSent), 1_000);
        assert_eq!(rep.counter(Counter::BurstsStarted), 0);
        assert_eq!(rep.gauge(Gauge::LastScheduleEntries), 5);
        assert_eq!(rep.gauge(Gauge::ActiveSplices), 1);
        let h = rep.hist(Hist::SlotMarginUs);
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1_000_000_003);
        assert_eq!(h.buckets.iter().sum::<u64>(), 2);
        assert_eq!(*h.buckets.last().unwrap(), 1, "huge sample lands in overflow");
    }

    #[test]
    fn event_channel_caps_and_counts_drops() {
        let r = Recorder::new(RecorderConfig::default());
        for i in 0..EVENT_CAP as u64 + 3 {
            r.event(i, EventKind::BurstStart { client: 1, budget_us: i });
        }
        let rep = r.export().unwrap();
        assert_eq!(rep.events.len(), EVENT_CAP);
        assert_eq!(rep.events_dropped, 3);
        assert_eq!(
            rep.events.last().map(|e| e.t_us),
            Some(EVENT_CAP as u64 - 1),
            "keeps the first"
        );
    }

    #[test]
    fn events_can_be_disabled_independently() {
        let r = Recorder::new(RecorderConfig { events: false, lanes: 1 });
        assert!(r.enabled());
        r.event(1, EventKind::BurstStart { client: 1, budget_us: 1 });
        r.incr(Counter::BurstsStarted);
        let rep = r.export().unwrap();
        assert!(rep.events.is_empty());
        assert_eq!(rep.counter(Counter::BurstsStarted), 1);
    }

    #[test]
    fn lanes_merge_deterministically() {
        let r = Recorder::new(RecorderConfig { events: true, lanes: 3 });
        let l1 = r.lane(1);
        let l2 = r.lane(2);
        // Events interleave by timestamp across lanes, ties in lane order.
        l2.event(5, EventKind::BurstStart { client: 2, budget_us: 0 });
        l1.event(3, EventKind::BurstStart { client: 1, budget_us: 0 });
        r.event(5, EventKind::BurstStart { client: 0, budget_us: 0 });
        // Gauges sum over the lanes, set or added.
        r.gauge_set(Gauge::LastScheduleEntries, 10);
        l1.gauge_set(Gauge::LastScheduleEntries, 11);
        r.gauge_add(Gauge::ActiveSplices, 2);
        l2.gauge_add(Gauge::ActiveSplices, 1);
        let rep = r.export().unwrap();
        assert_eq!(rep.events.iter().map(|e| e.t_us).collect::<Vec<_>>(), vec![3, 5, 5]);
        let EventKind::BurstStart { client, .. } = rep.events[1].kind else { panic!() };
        assert_eq!(client, 0, "lane 0 sorts before lane 2 at the same timestamp");
        assert_eq!(rep.gauge(Gauge::LastScheduleEntries), 21);
        assert_eq!(rep.gauge(Gauge::ActiveSplices), 3);
    }

    #[test]
    fn counters_and_histograms_sum_over_lanes() {
        let r = Recorder::new(RecorderConfig { events: false, lanes: 2 });
        let l1 = r.lane(1);
        r.incr(Counter::WnicWakes);
        l1.add(Counter::WnicWakes, 2);
        r.observe(Hist::SlotMarginUs, 3);
        l1.observe(Hist::SlotMarginUs, 3);
        l1.observe(Hist::SlotMarginUs, 1_000_000_000);
        let rep = r.export().unwrap();
        assert_eq!(rep.counter(Counter::WnicWakes), 3);
        let h = rep.hist(Hist::SlotMarginUs);
        assert_eq!((h.count, h.sum), (3, 1_000_000_006));
        assert_eq!(h.buckets[Hist::bucket(3)], 2);
        assert_eq!(*h.buckets.last().unwrap(), 1);
    }

    #[test]
    #[should_panic(expected = "lane 1 of a 1-lane recorder")]
    fn a_lane_past_the_lane_count_panics() {
        Recorder::new(RecorderConfig::default()).lane(1);
    }

    #[test]
    fn one_lane_exports_in_time_order() {
        let r = Recorder::new(RecorderConfig::default());
        r.event(5, EventKind::BurstStart { client: 1, budget_us: 0 });
        r.event(3, EventKind::BurstStart { client: 2, budget_us: 0 });
        let rep = r.export().unwrap();
        assert_eq!(rep.events.iter().map(|e| e.t_us).collect::<Vec<_>>(), vec![3, 5]);
    }

    #[test]
    fn clones_share_the_core() {
        let r = Recorder::new(RecorderConfig::default());
        let r2 = r.clone();
        r.incr(Counter::WnicWakes);
        r2.incr(Counter::WnicWakes);
        assert_eq!(r.export().unwrap().counter(Counter::WnicWakes), 2);
    }
}
