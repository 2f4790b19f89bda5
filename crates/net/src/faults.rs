//! Deterministic fault injection for the radio path.
//!
//! The paper's evaluation (§4.3) stresses the system with a lossy channel;
//! this module generalizes that single knob into a seedable *fault plan*
//! covering the degraded-infrastructure modes a deployment actually sees:
//!
//! * **frame loss** — a frame burns its airtime but nobody decodes it;
//! * **duplication** — the sender retransmits, burning a second airtime
//!   slot and delivering a second copy (transport must dedupe);
//! * **reordering** — a frame is held back on the medium so later frames
//!   overtake it;
//! * **schedule drops** — targeted loss of the proxy's SRP broadcasts, so
//!   clients genuinely miss schedules and must coast on prediction;
//! * **AP jitter spikes** — extra forwarding-delay spikes on top of the
//!   [`crate::ap::ApDelayProcess`], attacking delay compensation;
//! * **clock-skew ramps** — extra per-client frequency error, so the skew
//!   between client and proxy clocks ramps linearly over the run.
//!
//! Every decision is drawn from RNG streams derived off the master seed
//! (`streams::FAULT_BASE + k`), so a faulted run is bit-reproducible and a
//! plan of [`FaultPlan::NONE`] draws nothing at all — behaviour is then
//! byte-identical to a build without this module.

use powerburst_sim::rng::streams;
use powerburst_sim::SimDuration;
use rand::rngs::StdRng;
use rand::Rng;

/// Sub-stream offsets under [`streams::FAULT_BASE`].
pub mod fault_streams {
    /// Medium-level faults (loss, duplication, reordering, schedule drops).
    pub const MEDIUM: u64 = 0;
    /// Access-point forwarding-jitter spikes.
    pub const AP: u64 = 1;
    /// Per-client clock-skew ramps.
    pub const CLOCK: u64 = 2;
}

/// A declarative, seed-driven fault schedule. All-zero means no faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Per-frame probability a radio frame is corrupted on the air.
    pub loss_prob: f64,
    /// Per-frame probability the frame is transmitted twice.
    pub dup_prob: f64,
    /// Per-frame probability the frame is held back so later frames can
    /// overtake it.
    pub reorder_prob: f64,
    /// Maximum hold-back for a reordered frame (uniform in `[0, max]`).
    pub reorder_max: SimDuration,
    /// Extra drop probability applied only to schedule (SRP) broadcasts,
    /// on top of `loss_prob`.
    pub sched_drop_prob: f64,
    /// Probability a downlink frame picks up an extra AP jitter spike.
    pub ap_jitter_prob: f64,
    /// Maximum extra AP spike (uniform in `[0, max]`).
    pub ap_jitter_max: SimDuration,
    /// Extra per-client clock frequency error, ppm (uniform ±). A constant
    /// frequency error makes the client↔proxy skew ramp linearly.
    pub clock_skew_ppm: f64,
}

impl FaultPlan {
    /// The empty plan: injects nothing, draws nothing.
    pub const NONE: FaultPlan = FaultPlan {
        loss_prob: 0.0,
        dup_prob: 0.0,
        reorder_prob: 0.0,
        reorder_max: SimDuration::ZERO,
        sched_drop_prob: 0.0,
        ap_jitter_prob: 0.0,
        ap_jitter_max: SimDuration::ZERO,
        clock_skew_ppm: 0.0,
    };

    /// Does any fault touch the shared medium (loss/dup/reorder/SRP drop)?
    pub fn affects_medium(&self) -> bool {
        self.loss_prob > 0.0
            || self.dup_prob > 0.0
            || self.reorder_prob > 0.0
            || self.sched_drop_prob > 0.0
    }

    /// Does the plan add AP forwarding jitter?
    pub fn affects_ap(&self) -> bool {
        self.ap_jitter_prob > 0.0 && self.ap_jitter_max > SimDuration::ZERO
    }

    /// Does the plan skew client clocks?
    pub fn affects_clocks(&self) -> bool {
        self.clock_skew_ppm != 0.0
    }

    /// Is the plan entirely empty?
    pub fn is_none(&self) -> bool {
        !self.affects_medium() && !self.affects_ap() && !self.affects_clocks()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

/// Counters of what the injector actually did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames corrupted by the injected loss process.
    pub frames_lost: u64,
    /// Schedule broadcasts dropped by the targeted SRP process.
    pub schedules_dropped: u64,
    /// Frames transmitted twice.
    pub frames_duplicated: u64,
    /// Frames held back for reordering.
    pub frames_reordered: u64,
    /// Extra AP jitter spikes applied.
    pub ap_spikes: u64,
}

impl FaultStats {
    /// Fold another injector's counters into this one — a sharded world
    /// runs one injector per cell and reports the city-wide sum.
    pub fn merge(&mut self, other: &FaultStats) {
        self.frames_lost += other.frames_lost;
        self.schedules_dropped += other.schedules_dropped;
        self.frames_duplicated += other.frames_duplicated;
        self.frames_reordered += other.frames_reordered;
        self.ap_spikes += other.ap_spikes;
    }
}

/// The stateful medium-fault sampler owned by the world.
///
/// One injector per world, fed by `derive_rng(seed, FAULT_BASE + MEDIUM)`;
/// decisions are made in frame order, so the same seed and traffic produce
/// the same fault pattern.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    /// What the injector has done so far.
    pub stats: FaultStats,
}

impl FaultInjector {
    /// New injector over `plan`, drawing from `rng`.
    pub fn new(plan: FaultPlan, rng: StdRng) -> FaultInjector {
        FaultInjector { plan, rng, stats: FaultStats::default() }
    }

    /// Decide whether a frame that finished its airtime is dropped.
    /// Schedule broadcasts face both the generic loss roll and the
    /// targeted SRP roll.
    pub fn should_drop(&mut self, is_schedule: bool) -> bool {
        if self.plan.loss_prob > 0.0 && self.rng.random::<f64>() < self.plan.loss_prob {
            self.stats.frames_lost += 1;
            return true;
        }
        if is_schedule
            && self.plan.sched_drop_prob > 0.0
            && self.rng.random::<f64>() < self.plan.sched_drop_prob
        {
            self.stats.schedules_dropped += 1;
            return true;
        }
        false
    }

    /// Decide whether a frame entering the medium is duplicated.
    pub fn duplicate(&mut self) -> bool {
        if self.plan.dup_prob > 0.0 && self.rng.random::<f64>() < self.plan.dup_prob {
            self.stats.frames_duplicated += 1;
            return true;
        }
        false
    }

    /// Extra hold-back delay for a frame entering the medium, if any.
    pub fn reorder_delay(&mut self) -> Option<SimDuration> {
        if self.plan.reorder_prob > 0.0
            && self.plan.reorder_max > SimDuration::ZERO
            && self.rng.random::<f64>() < self.plan.reorder_prob
        {
            self.stats.frames_reordered += 1;
            let max = self.plan.reorder_max.as_us();
            return Some(SimDuration::from_us(self.rng.random_range(0..=max)));
        }
        None
    }
}

/// Extra AP forwarding-delay spikes, sampled from the fault stream so the
/// AP's own delay process stays untouched (and baseline runs stay
/// bit-identical when the plan is empty).
#[derive(Debug)]
pub struct ApJitterFault {
    prob: f64,
    max: SimDuration,
    rng: StdRng,
    /// Spikes applied so far.
    pub spikes: u64,
}

impl ApJitterFault {
    /// New spike process: each downlink frame gains uniform `[0, max]`
    /// extra delay with probability `prob`.
    pub fn new(prob: f64, max: SimDuration, rng: StdRng) -> ApJitterFault {
        ApJitterFault { prob, max, rng, spikes: 0 }
    }

    /// Extra delay for the next downlink frame.
    pub fn sample(&mut self) -> SimDuration {
        if self.prob > 0.0 && self.max > SimDuration::ZERO && self.rng.random::<f64>() < self.prob {
            self.spikes += 1;
            return SimDuration::from_us(self.rng.random_range(0..=self.max.as_us()));
        }
        SimDuration::ZERO
    }
}

/// Extra per-client clock drift, sampled from the fault clock stream.
/// Returns the drift (ppm) to add to client `i`'s sampled clock model.
pub fn clock_skew_ramp(plan: &FaultPlan, rng: &mut StdRng) -> f64 {
    if !plan.affects_clocks() {
        return 0.0;
    }
    let s = plan.clock_skew_ppm.abs();
    rng.random_range(-s..=s)
}

/// The derived-stream id for a fault sub-stream.
pub fn fault_stream(k: u64) -> u64 {
    streams::FAULT_BASE + k
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerburst_sim::derive_rng;

    fn injector(plan: FaultPlan) -> FaultInjector {
        FaultInjector::new(plan, derive_rng(7, fault_stream(fault_streams::MEDIUM)))
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::NONE;
        assert!(plan.is_none());
        let mut f = injector(plan);
        for _ in 0..1000 {
            assert!(!f.should_drop(true));
            assert!(!f.duplicate());
            assert!(f.reorder_delay().is_none());
        }
        assert_eq!(f.stats, FaultStats::default());
    }

    #[test]
    fn certain_loss_drops_everything() {
        let mut f = injector(FaultPlan { loss_prob: 1.0, ..FaultPlan::NONE });
        for _ in 0..100 {
            assert!(f.should_drop(false));
        }
        assert_eq!(f.stats.frames_lost, 100);
        assert_eq!(f.stats.schedules_dropped, 0);
    }

    #[test]
    fn schedule_drops_only_hit_schedules() {
        let plan = FaultPlan { sched_drop_prob: 1.0, ..FaultPlan::NONE };
        let mut f = injector(plan);
        for _ in 0..50 {
            assert!(!f.should_drop(false), "data frames untouched");
            assert!(f.should_drop(true), "schedules all dropped");
        }
        assert_eq!(f.stats.schedules_dropped, 50);
        assert_eq!(f.stats.frames_lost, 0);
    }

    #[test]
    fn loss_rate_tracks_probability() {
        let mut f = injector(FaultPlan { loss_prob: 0.05, ..FaultPlan::NONE });
        let dropped = (0..20_000).filter(|_| f.should_drop(false)).count();
        let rate = dropped as f64 / 20_000.0;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn reorder_delay_is_bounded() {
        let plan = FaultPlan {
            reorder_prob: 1.0,
            reorder_max: SimDuration::from_ms(5),
            ..FaultPlan::NONE
        };
        let mut f = injector(plan);
        for _ in 0..1000 {
            let d = f.reorder_delay().expect("prob 1");
            assert!(d <= SimDuration::from_ms(5));
        }
        assert_eq!(f.stats.frames_reordered, 1000);
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan {
            loss_prob: 0.1,
            dup_prob: 0.1,
            reorder_prob: 0.1,
            reorder_max: SimDuration::from_ms(3),
            sched_drop_prob: 0.2,
            ..FaultPlan::NONE
        };
        let run = || {
            let mut f = injector(plan);
            let mut out = Vec::new();
            for i in 0..500 {
                out.push((f.should_drop(i % 7 == 0), f.duplicate(), f.reorder_delay()));
            }
            (out, f.stats)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ap_jitter_bounded_and_counted() {
        let mut j = ApJitterFault::new(
            1.0,
            SimDuration::from_ms(10),
            derive_rng(7, fault_stream(fault_streams::AP)),
        );
        for _ in 0..200 {
            assert!(j.sample() <= SimDuration::from_ms(10));
        }
        assert_eq!(j.spikes, 200);
        let mut none = ApJitterFault::new(
            0.0,
            SimDuration::from_ms(10),
            derive_rng(7, fault_stream(fault_streams::AP)),
        );
        assert_eq!(none.sample(), SimDuration::ZERO);
        assert_eq!(none.spikes, 0);
    }

    #[test]
    fn clock_skew_bounded_and_symmetric() {
        let plan = FaultPlan { clock_skew_ppm: 40.0, ..FaultPlan::NONE };
        let mut rng = derive_rng(7, fault_stream(fault_streams::CLOCK));
        let xs: Vec<f64> = (0..1000).map(|_| clock_skew_ramp(&plan, &mut rng)).collect();
        assert!(xs.iter().all(|x| x.abs() <= 40.0));
        assert!(xs.iter().any(|x| *x > 0.0) && xs.iter().any(|x| *x < 0.0));
        assert_eq!(clock_skew_ramp(&FaultPlan::NONE, &mut rng), 0.0);
    }
}
