//! Runtime invariant checking for the proxy's scheduling machinery.
//!
//! The paper's design rests on a handful of properties that must hold on
//! every run, healthy or faulted — the scheduler may degrade service under
//! injected loss, but it must never violate its own contract:
//!
//! * **No burst overruns its slot** (§3.2.2: "slot budgets are converted
//!   to bytes through the fitted linear bandwidth model so a burst does
//!   not overrun its slot") — [`InvariantKind::SlotOverrun`];
//! * **Every burst ends with a marked frame** (§3.2.2: the last packet of
//!   each burst carries the ToS mark so the client knows to sleep) —
//!   [`InvariantKind::UnmarkedBurst`];
//! * **Every active client appears in each schedule** (§3.2.1: a client
//!   with queued data must be given a rendezvous point, or its traffic
//!   starves silently) — [`InvariantKind::MissingClient`];
//! * **Energy accounting conserves** (the WNIC dwell times must sum to
//!   the run duration, or the savings numbers are fiction) —
//!   [`InvariantKind::EnergyConservation`];
//! * **The AP forwards in order** (its FIFO guard must actually hold) —
//!   [`InvariantKind::ApOrdering`].
//!
//! Violations are *collected*, not panicked on: a run completes and its
//! report carries the [`InvariantLog`], so fault-injection experiments can
//! assert that the proxy's contract survived the abuse.

use std::fmt;

use powerburst_net::HostAddr;
use powerburst_obs::{Counter, EventKind, Hist, Recorder};
use powerburst_sim::{SimDuration, SimTime};

use crate::schedule::{ClientDemand, Schedule};

/// Which contract a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// A burst's estimated airtime exceeded its slot budget (plus grace).
    SlotOverrun,
    /// A burst emitted frames but neither marked its last frame nor
    /// nominated a mark for the in-flight TCP stream.
    UnmarkedBurst,
    /// A client with queued demand received no slot in a schedule.
    MissingClient,
    /// WNIC dwell times failed to sum to the run duration.
    EnergyConservation,
    /// The access point forwarded frames out of arrival order.
    ApOrdering,
    /// A schedule entry's µs offset or duration exceeded the u32 wire
    /// range and was clamped during encoding (never silently wrapped).
    WireOverflow,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InvariantKind::SlotOverrun => "slot-overrun",
            InvariantKind::UnmarkedBurst => "unmarked-burst",
            InvariantKind::MissingClient => "missing-client",
            InvariantKind::EnergyConservation => "energy-conservation",
            InvariantKind::ApOrdering => "ap-ordering",
            InvariantKind::WireOverflow => "wire-overflow",
        };
        f.write_str(s)
    }
}

/// One recorded violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The broken contract.
    pub kind: InvariantKind,
    /// Simulation time of detection.
    pub t: SimTime,
    /// The client involved, when the contract is per-client.
    pub client: Option<HostAddr>,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.client {
            Some(c) => write!(f, "[{}] {} client {}: {}", self.t, self.kind, c.0, self.detail),
            None => write!(f, "[{}] {}: {}", self.t, self.kind, self.detail),
        }
    }
}

/// Detailed violations kept per log; further ones only bump the counter.
const DETAIL_CAP: usize = 64;

/// Bounded violation collector carried in the run report.
#[derive(Debug, Clone, Default)]
pub struct InvariantLog {
    violations: Vec<Violation>,
    total: u64,
}

impl InvariantLog {
    /// An empty log.
    pub fn new() -> InvariantLog {
        InvariantLog::default()
    }

    /// Record one violation (details kept for the first `DETAIL_CAP`).
    pub fn record(&mut self, v: Violation) {
        self.total += 1;
        if self.violations.len() < DETAIL_CAP {
            self.violations.push(v);
        }
    }

    /// Record `n` occurrences summarized by a single detail entry.
    pub fn record_counted(&mut self, n: u64, v: Violation) {
        if n == 0 {
            return;
        }
        self.total += n - 1;
        self.record(v);
    }

    /// Total violations observed (may exceed the stored details).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// The stored violation details.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Stored violations of one kind.
    pub fn of_kind(&self, kind: InvariantKind) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(move |v| v.kind == kind)
    }

    /// Fold another log into this one.
    pub fn merge(&mut self, other: InvariantLog) {
        self.total += other.total;
        for v in other.violations {
            if self.violations.len() < DETAIL_CAP {
                self.violations.push(v);
            }
        }
    }
}

/// State of the burst currently executing.
#[derive(Debug)]
struct BurstAudit {
    client: HostAddr,
    budget: SimDuration,
    grace: SimDuration,
    spent: SimDuration,
    frames: u64,
    last_marked: bool,
    mark_nominated: bool,
    expect_mark: bool,
}

/// Audits the proxy's schedule construction and burst execution.
///
/// The proxy owns one auditor and drives it from its hot paths:
/// [`ScheduleAuditor::on_schedule`] after each build, then
/// `begin_burst` / `on_frame` / `mark_nominated` / `end_burst` around each
/// slot's synchronous emissions. All methods are cheap (no allocation on
/// the clean path). The calls that open or close a burst take the
/// proxy's recorder lane (`Ctx::obs`), which gets burst boundaries and
/// slot margins.
#[derive(Debug, Default)]
pub struct ScheduleAuditor {
    /// Collected violations.
    pub log: InvariantLog,
    open: Option<BurstAudit>,
}

impl ScheduleAuditor {
    /// A fresh auditor.
    pub fn new() -> ScheduleAuditor {
        ScheduleAuditor::default()
    }

    /// Check schedule completeness: every client with queued demand must
    /// hold its own slot, unless a broadcast slot covers everyone.
    pub fn on_schedule(
        &mut self,
        obs: &Recorder,
        now: SimTime,
        sched: &Schedule,
        demands: &[ClientDemand],
    ) {
        // A burst left open across an SRP would be a bookkeeping bug in
        // the proxy itself; close it so its checks still run.
        self.end_burst(obs, now);
        // A saturated schedule *declares* that it serves only a rotating
        // subset this interval (overhead ate the layout); completeness is
        // deliberately given up and the degradation is already surfaced via
        // the saturated flag and its counter, so don't double-report it as
        // per-client starvation.
        if sched.saturated {
            return;
        }
        let has_broadcast = sched.entries.iter().any(|e| e.client.is_broadcast());
        if has_broadcast {
            return;
        }
        for d in demands.iter().filter(|d| d.total() > 0) {
            if !sched.entries.iter().any(|e| e.client == d.client) {
                self.log.record(Violation {
                    kind: InvariantKind::MissingClient,
                    t: now,
                    client: Some(d.client),
                    detail: format!(
                        "{} queued bytes but no slot in schedule #{}",
                        d.total(),
                        sched.seq
                    ),
                });
            }
        }
    }

    /// Open an audit window for one slot's synchronous burst emissions.
    ///
    /// `grace` absorbs the deliberate overshoot sources: the guarantee-
    /// progress minimum of one segment per slot, and the held-frame drain
    /// that stops only after the budget goes negative. `expect_mark` is
    /// false for shared windows (slotted TCP slot, PSM beacon) where
    /// clients sleep on the slot boundary instead of a mark.
    pub fn begin_burst(
        &mut self,
        obs: &Recorder,
        now: SimTime,
        client: HostAddr,
        budget: SimDuration,
        grace: SimDuration,
        expect_mark: bool,
    ) {
        self.end_burst(obs, now);
        obs.incr(Counter::BurstsStarted);
        obs.observe(Hist::BurstLenUs, budget.as_us());
        obs.event(
            now.as_us(),
            EventKind::BurstStart { client: client.0, budget_us: budget.as_us() },
        );
        self.open = Some(BurstAudit {
            client,
            budget,
            grace,
            spent: SimDuration::ZERO,
            frames: 0,
            last_marked: false,
            mark_nominated: false,
            expect_mark,
        });
    }

    /// Account one client-bound frame emitted during the open burst.
    /// No-op outside a burst (ACK-clocked emissions later in the window
    /// are paid for by the budget's echo reservation, not audited here).
    pub fn on_frame(&mut self, cost: SimDuration, marked: bool) {
        if let Some(b) = self.open.as_mut() {
            b.spent += cost;
            b.frames += 1;
            b.last_marked = marked;
        }
    }

    /// Note that the burst nominated an end-of-burst mark on a TCP stream
    /// (the marked segment may reach the air later in the window).
    pub fn mark_nominated(&mut self) {
        if let Some(b) = self.open.as_mut() {
            b.mark_nominated = true;
        }
    }

    /// Close the open burst and run its checks.
    pub fn end_burst(&mut self, obs: &Recorder, now: SimTime) {
        let Some(b) = self.open.take() else { return };
        obs.incr(Counter::BurstsCompleted);
        let allowance = (b.budget + b.grace).as_us() as i64;
        let margin = allowance - b.spent.as_us() as i64;
        obs.event(
            now.as_us(),
            EventKind::BurstEnd {
                client: b.client.0,
                spent_us: b.spent.as_us(),
                margin_us: margin,
            },
        );
        if margin >= 0 {
            obs.observe(Hist::SlotMarginUs, margin as u64);
        } else {
            obs.incr(Counter::SlotOverruns);
            obs.observe(Hist::SlotOverrunUs, margin.unsigned_abs());
        }
        if b.spent > b.budget + b.grace {
            self.log.record(Violation {
                kind: InvariantKind::SlotOverrun,
                t: now,
                client: Some(b.client),
                detail: format!(
                    "estimated airtime {} exceeds slot {} (+{} grace), {} frames",
                    b.spent, b.budget, b.grace, b.frames
                ),
            });
        }
        if b.expect_mark && b.frames > 0 && !b.last_marked && !b.mark_nominated {
            self.log.record(Violation {
                kind: InvariantKind::UnmarkedBurst,
                t: now,
                client: Some(b.client),
                detail: format!("{} frames burst, final frame unmarked", b.frames),
            });
        }
    }
}

/// Check that WNIC dwell times sum to the run duration (within `tol`).
///
/// `observed` is `sleep + waking + awake` from an energy report (or the
/// postmortem equivalent); a shortfall or excess means energy was billed
/// over a timeline that is not the run, and the savings figures are
/// untrustworthy.
pub fn check_energy_conservation(
    client: HostAddr,
    observed: SimDuration,
    run: SimDuration,
    tol: SimDuration,
) -> Option<Violation> {
    let delta = if observed > run { observed - run } else { run - observed };
    if delta <= tol {
        return None;
    }
    Some(Violation {
        kind: InvariantKind::EnergyConservation,
        t: SimTime::ZERO + run,
        client: Some(client),
        detail: format!("dwell times sum to {observed}, run lasted {run} (Δ {delta})"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleEntry;

    fn sched(entries: Vec<ScheduleEntry>) -> Schedule {
        Schedule {
            seq: 7,
            entries,
            next_srp: SimDuration::from_ms(100),
            unchanged: false,
            fixed_slots: false,
            saturated: false,
        }
    }

    fn entry(client: HostAddr) -> ScheduleEntry {
        ScheduleEntry {
            client,
            rp_offset: SimDuration::from_ms(3),
            duration: SimDuration::from_ms(10),
        }
    }

    fn demand(host: u32, bytes: u64) -> ClientDemand {
        ClientDemand::new(HostAddr(host), bytes, 0, 1_000)
    }

    #[test]
    fn log_counts_past_the_detail_cap() {
        let mut log = InvariantLog::new();
        for i in 0..(DETAIL_CAP as u64 + 10) {
            log.record(Violation {
                kind: InvariantKind::ApOrdering,
                t: SimTime::from_ms(i),
                client: None,
                detail: String::new(),
            });
        }
        assert_eq!(log.total(), DETAIL_CAP as u64 + 10);
        assert_eq!(log.violations().len(), DETAIL_CAP);
        assert!(!log.is_clean());
    }

    #[test]
    fn record_counted_stores_one_detail() {
        let mut log = InvariantLog::new();
        log.record_counted(
            5,
            Violation {
                kind: InvariantKind::ApOrdering,
                t: SimTime::ZERO,
                client: None,
                detail: "5 out-of-order departures".into(),
            },
        );
        assert_eq!(log.total(), 5);
        assert_eq!(log.violations().len(), 1);
        log.record_counted(
            0,
            Violation {
                kind: InvariantKind::ApOrdering,
                t: SimTime::ZERO,
                client: None,
                detail: String::new(),
            },
        );
        assert_eq!(log.total(), 5, "zero-count records nothing");
    }

    #[test]
    fn missing_client_detected() {
        let mut a = ScheduleAuditor::new();
        let s = sched(vec![entry(HostAddr(1))]);
        a.on_schedule(
            &Recorder::disabled(),
            SimTime::ZERO,
            &s,
            &[demand(1, 500), demand(2, 800), demand(3, 0)],
        );
        let v: Vec<_> = a.log.of_kind(InvariantKind::MissingClient).collect();
        assert_eq!(v.len(), 1, "only the starved demander: {v:?}");
        assert_eq!(v[0].client, Some(HostAddr(2)));
    }

    #[test]
    fn saturated_schedule_skips_completeness_check() {
        // Saturation is an announced degradation: only a rotating subset is
        // served, so starved demand must not be double-reported.
        let mut a = ScheduleAuditor::new();
        let mut s = sched(vec![entry(HostAddr(1))]);
        s.saturated = true;
        a.on_schedule(&Recorder::disabled(), SimTime::ZERO, &s, &[demand(1, 500), demand(2, 800)]);
        assert!(a.log.is_clean(), "{:?}", a.log);
    }

    #[test]
    fn broadcast_slot_covers_everyone() {
        let mut a = ScheduleAuditor::new();
        let s = sched(vec![entry(HostAddr::BROADCAST)]);
        a.on_schedule(&Recorder::disabled(), SimTime::ZERO, &s, &[demand(1, 500), demand(2, 800)]);
        assert!(a.log.is_clean(), "{:?}", a.log);
    }

    #[test]
    fn burst_within_budget_is_clean() {
        let mut a = ScheduleAuditor::new();
        a.begin_burst(
            &Recorder::disabled(),
            SimTime::ZERO,
            HostAddr(1),
            SimDuration::from_ms(10),
            SimDuration::from_ms(1),
            true,
        );
        a.on_frame(SimDuration::from_ms(4), false);
        a.on_frame(SimDuration::from_ms(4), true);
        a.end_burst(&Recorder::disabled(), SimTime::from_ms(1));
        assert!(a.log.is_clean(), "{:?}", a.log);
    }

    #[test]
    fn slot_overrun_detected_past_grace() {
        let mut a = ScheduleAuditor::new();
        a.begin_burst(
            &Recorder::disabled(),
            SimTime::ZERO,
            HostAddr(1),
            SimDuration::from_ms(10),
            SimDuration::from_ms(2),
            true,
        );
        // 11 ms spent: inside budget+grace — clean.
        a.on_frame(SimDuration::from_ms(11), true);
        a.end_burst(&Recorder::disabled(), SimTime::from_ms(1));
        assert!(a.log.is_clean());
        // 13 ms spent: past budget+grace — violation.
        a.begin_burst(
            &Recorder::disabled(),
            SimTime::from_ms(100),
            HostAddr(1),
            SimDuration::from_ms(10),
            SimDuration::from_ms(2),
            true,
        );
        a.on_frame(SimDuration::from_ms(13), true);
        a.end_burst(&Recorder::disabled(), SimTime::from_ms(101));
        assert_eq!(a.log.of_kind(InvariantKind::SlotOverrun).count(), 1);
    }

    #[test]
    fn unmarked_burst_detected() {
        let mut a = ScheduleAuditor::new();
        a.begin_burst(
            &Recorder::disabled(),
            SimTime::ZERO,
            HostAddr(1),
            SimDuration::from_ms(10),
            SimDuration::ZERO,
            true,
        );
        a.on_frame(SimDuration::from_ms(1), false);
        a.end_burst(&Recorder::disabled(), SimTime::from_ms(1));
        assert_eq!(a.log.of_kind(InvariantKind::UnmarkedBurst).count(), 1);
    }

    #[test]
    fn nominated_mark_satisfies_the_burst() {
        let mut a = ScheduleAuditor::new();
        a.begin_burst(
            &Recorder::disabled(),
            SimTime::ZERO,
            HostAddr(1),
            SimDuration::from_ms(10),
            SimDuration::ZERO,
            true,
        );
        a.on_frame(SimDuration::from_ms(1), false);
        a.mark_nominated();
        a.end_burst(&Recorder::disabled(), SimTime::from_ms(1));
        assert!(a.log.is_clean(), "{:?}", a.log);
    }

    #[test]
    fn empty_and_shared_bursts_need_no_mark() {
        let mut a = ScheduleAuditor::new();
        // No frames at all.
        a.begin_burst(
            &Recorder::disabled(),
            SimTime::ZERO,
            HostAddr(1),
            SimDuration::from_ms(10),
            SimDuration::ZERO,
            true,
        );
        a.end_burst(&Recorder::disabled(), SimTime::from_ms(1));
        // Shared window: frames but expect_mark = false.
        a.begin_burst(
            &Recorder::disabled(),
            SimTime::from_ms(2),
            HostAddr::BROADCAST,
            SimDuration::from_ms(10),
            SimDuration::ZERO,
            false,
        );
        a.on_frame(SimDuration::from_ms(1), false);
        a.end_burst(&Recorder::disabled(), SimTime::from_ms(3));
        assert!(a.log.is_clean(), "{:?}", a.log);
    }

    #[test]
    fn energy_conservation_tolerates_slack() {
        let run = SimDuration::from_secs(10);
        let tol = SimDuration::from_ms(1);
        assert!(check_energy_conservation(HostAddr(1), run, run, tol).is_none());
        assert!(check_energy_conservation(HostAddr(1), run + SimDuration::from_us(500), run, tol)
            .is_none());
        let v = check_energy_conservation(HostAddr(1), run - SimDuration::from_ms(5), run, tol)
            .expect("5 ms shortfall flagged");
        assert_eq!(v.kind, InvariantKind::EnergyConservation);
    }
}
