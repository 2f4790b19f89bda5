//! Scheduling policies: the demand-snapshot → slot-layout step.
//!
//! The paper hard-codes two layout algorithms (dynamic fixed / dynamic
//! variable, §3.2.1); related work shows the real wins come from channel-
//! and buffer-aware scheduling (Wang et al. arXiv:1606.00952, Hoque et
//! al. arXiv:1403.3710). [`PolicyKind`] names every policy, and
//! [`PolicyKind::build_into`] is the seam: a policy maps a
//! [`ClientDemand`] snapshot to a [`Schedule`] and nothing else. A new
//! policy is a variant plus its arms in `name` and `build_into`, and an
//! entry in [`registry`].
//!
//! ## Contract
//!
//! Every policy must satisfy the properties enforced by
//! `crates/core/tests/policy_props.rs`:
//!
//! 1. **No overlap** — slots are laid out in rendezvous order with a guard
//!    gap; `rp_offset` of slot *k+1* ≥ end of slot *k*.
//! 2. **Fit** — the last slot ends no later than `next_srp` minus guard.
//! 3. **Coverage** — every client with nonzero demand gets a slot (own or
//!    broadcast) unless the schedule is flagged `saturated`.
//! 4. **Purity** — the output is a function of `(cfg, demands, seq)`
//!    alone: no clocks, no ambient randomness, no internal state.
//!
//! Purity is what makes the proxy deterministic (and the golden traces
//! stable): all variability enters through the demand snapshot, which the
//! proxy assembles from queue state, the seeded channel model, and snooped
//! buffer reports.
//!
//! ## Allocation discipline
//!
//! Policies build *into* caller-owned buffers ([`PolicyScratch`] plus the
//! output [`Schedule`]), so a steady-state proxy rebuilds its schedule
//! every interval without touching the allocator
//! (`tests/steady_state_alloc.rs` budgets 0.10 allocs/event).

use powerburst_net::HostAddr;
use powerburst_sim::SimDuration;

use crate::schedule::{BuilderConfig, ClientDemand, Schedule, ScheduleEntry};

/// Default playout-buffer target for [`PolicyKind::BufferAware`], bytes.
///
/// ≈ 4–5 s of a 56 kbps stream: enough to ride out one variable-interval
/// stretch plus an AP delay spike.
pub const DEFAULT_TARGET_BUFFER: u64 = 32_000;

/// Reusable working memory for schedule construction.
///
/// Owned by the caller (the proxy keeps one for its lifetime) so repeated
/// builds are allocation-free once the vectors reach steady-state
/// capacity.
#[derive(Debug, Default)]
pub struct PolicyScratch {
    weights: Vec<u64>,
    slots: Vec<(HostAddr, SimDuration)>,
    shares: Vec<SimDuration>,
}

/// A schedule-construction policy: demand snapshot in, slot layout out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Dynamic schedule with a fixed burst interval; slots proportional to
    /// queue sizes (§3.2.1 "fixed size" schedules).
    DynamicFixed {
        /// The burst interval (100 ms and 500 ms in the paper).
        interval: SimDuration,
    },
    /// Dynamic schedule with a variable burst interval: every client gets
    /// enough time to drain its queue and the interval stretches (within
    /// bounds) to fit.
    DynamicVariable {
        /// Smallest allowed interval (100 ms in the paper).
        min: SimDuration,
        /// Largest allowed interval (≈500 ms in the paper).
        max: SimDuration,
    },
    /// Permanent equal slots for every known client (§4.3 baseline).
    StaticEqual {
        /// The burst interval.
        interval: SimDuration,
    },
    /// Figure 7: a TCP slot (all clients awake) of `tcp_weight` of the
    /// interval, then equal UDP slots.
    SlottedStatic {
        /// The burst interval (500 ms in the paper's Figure 7).
        interval: SimDuration,
        /// Fraction of the usable interval given to the TCP slot
        /// (0.10 / 0.33 / 0.56 in the paper).
        tcp_weight: f64,
    },
    /// 802.11 power-save-mode baseline (§2 related work): one shared
    /// delivery window after each beacon during which *every* client
    /// listens while the AP drains all buffered traffic — no per-client
    /// rendezvous points. Demonstrates why PSM "is not a good match for
    /// multimedia": each client pays for everyone's traffic.
    PsmBeacon {
        /// The beacon interval (100 ms in 802.11's default).
        interval: SimDuration,
    },
    /// Channel-aware dynamic schedule: slot shares are proportional to the
    /// *airtime* a client needs, not its bytes. A client whose Markov
    /// channel state reports `rate_pct` percent of nominal throughput needs
    /// `100/rate_pct`× the airtime per byte, so its weight is inflated
    /// accordingly (rate-adaptive slots, Wang et al. arXiv:1606.00952).
    /// With every channel Good this is [`PolicyKind::DynamicFixed`] exactly.
    ChannelAware {
        /// The burst interval.
        interval: SimDuration,
    },
    /// Buffer-aware dynamic schedule: burst length shaped by reported
    /// client playout-buffer occupancy (EStreamer-style, Hoque et al.
    /// arXiv:1403.3710). Clients below the target buffer get their share
    /// inflated by the deficit so the burst refills them; clients holding
    /// at least twice the target get trimmed to a trickle, buying sleep
    /// time. Clients that have not reported (legacy 24-byte reports) fall
    /// back to plain proportional shares.
    BufferAware {
        /// The burst interval.
        interval: SimDuration,
        /// Desired playout-buffer occupancy, bytes.
        target_buffer: u64,
    },
}

impl PolicyKind {
    /// Stable identifier for CLI flags, experiment rows, and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::DynamicFixed { .. } => "fixed",
            PolicyKind::DynamicVariable { .. } => "variable",
            PolicyKind::ChannelAware { .. } => "channel",
            PolicyKind::BufferAware { .. } => "buffer",
            PolicyKind::StaticEqual { .. } => "static",
            PolicyKind::SlottedStatic { .. } => "slotted",
            PolicyKind::PsmBeacon { .. } => "psm",
        }
    }

    /// Build the schedule for the next burst interval into `out`.
    ///
    /// `demands` lists **all** known clients in a stable order; clients
    /// with zero demand get no slot under the dynamic policies but always
    /// get one under the static ones. `out` is fully overwritten (callers
    /// need not reset it); `scratch` contents are unspecified on entry and
    /// exit.
    pub fn build_into(
        self,
        cfg: &BuilderConfig,
        demands: &[ClientDemand],
        seq: u64,
        scratch: &mut PolicyScratch,
        out: &mut Schedule,
    ) {
        match self {
            PolicyKind::DynamicFixed { interval } => build_weighted_fixed_into(
                interval,
                cfg,
                demands,
                seq,
                ClientDemand::total,
                scratch,
                out,
            ),
            PolicyKind::DynamicVariable { min, max } => {
                build_variable_into(min, max, cfg, demands, seq, scratch, out)
            }
            PolicyKind::ChannelAware { interval } => build_weighted_fixed_into(
                interval,
                cfg,
                demands,
                seq,
                |d| d.total().saturating_mul(100) / d.channel.rate_pct(),
                scratch,
                out,
            ),
            PolicyKind::BufferAware { interval, target_buffer } => {
                let target = target_buffer.max(1);
                build_weighted_fixed_into(
                    interval,
                    cfg,
                    demands,
                    seq,
                    move |d| match d.buffer_bytes {
                        None => d.total(),
                        Some(buf) if buf >= target.saturating_mul(2) => (d.total() / 2).max(1),
                        Some(buf) => d.total().saturating_add(target - buf.min(target)),
                    },
                    scratch,
                    out,
                )
            }
            PolicyKind::StaticEqual { interval } => {
                build_static_into(interval, cfg, demands, seq, scratch, out)
            }
            PolicyKind::SlottedStatic { interval, tcp_weight } => {
                build_slotted_into(interval, tcp_weight, cfg, demands, seq, scratch, out)
            }
            PolicyKind::PsmBeacon { interval } => {
                build_psm_into(interval, cfg, demands, seq, scratch, out)
            }
        }
    }

    /// Convenience wrapper allocating fresh buffers.
    pub fn build(self, cfg: &BuilderConfig, demands: &[ClientDemand], seq: u64) -> Schedule {
        let mut scratch = PolicyScratch::default();
        let mut out = Schedule::default();
        self.build_into(cfg, demands, seq, &mut scratch, &mut out);
        out
    }
}

/// Every policy at its canonical parameters, fixed first, for the shared
/// policy-contract property harness (`crates/core/tests/policy_props.rs`).
pub fn registry() -> Vec<PolicyKind> {
    let ms = SimDuration::from_ms;
    vec![
        PolicyKind::DynamicFixed { interval: ms(100) },
        PolicyKind::DynamicVariable { min: ms(100), max: ms(500) },
        PolicyKind::ChannelAware { interval: ms(100) },
        PolicyKind::BufferAware { interval: ms(100), target_buffer: DEFAULT_TARGET_BUFFER },
        PolicyKind::StaticEqual { interval: ms(100) },
        PolicyKind::SlottedStatic { interval: ms(500), tcp_weight: 0.33 },
        PolicyKind::PsmBeacon { interval: ms(100) },
    ]
}

/// [`PolicyKind::DynamicVariable`]: each active client's slot is its
/// drain time, and the interval is their sum clamped to `[min, max]`.
fn build_variable_into(
    min: SimDuration,
    max: SimDuration,
    cfg: &BuilderConfig,
    demands: &[ClientDemand],
    seq: u64,
    scratch: &mut PolicyScratch,
    out: &mut Schedule,
) {
    scratch.slots.clear();
    for d in demands {
        if d.total() > 0 {
            let t = drain_time(cfg, d.total(), d.avg_pkt).max(cfg.min_slot);
            scratch.slots.push((d.client, t));
        }
    }
    if scratch.slots.is_empty() {
        reset(out, seq, min);
        return;
    }
    let overhead = cfg.schedule_airtime + cfg.guard * (scratch.slots.len() as u64 + 1);
    let needed: SimDuration = scratch.slots.iter().fold(overhead, |acc, (_, d)| acc + *d);
    let interval = needed.max(min).min(max);
    if needed > interval {
        // Demand exceeds the cap: shrink slots proportionally ("each
        // client can empty its packet queue" no longer holds —
        // overload). The same fit guarantee as the fixed policy
        // applies: min_slot padding must never push a trailing client
        // past the clamp.
        let budget = interval.saturating_sub(overhead);
        scratch.weights.clear();
        scratch.weights.extend(scratch.slots.iter().map(|(_, d)| d.as_us()));
        if fit_shares_into(budget, cfg.min_slot, &scratch.weights, &mut scratch.shares) {
            for ((_, d), share) in scratch.slots.iter_mut().zip(&scratch.shares) {
                *d = *share;
            }
        } else {
            saturated_round_robin_into(interval, cfg, demands, seq, false, scratch, out);
            return;
        }
    }
    lay_out_into(cfg, interval, seq, scratch, out);
    clamp_to_interval(out, interval, cfg.guard);
}

/// [`PolicyKind::StaticEqual`]: one equal share of the interval per
/// known client, active or not.
fn build_static_into(
    interval: SimDuration,
    cfg: &BuilderConfig,
    demands: &[ClientDemand],
    seq: u64,
    scratch: &mut PolicyScratch,
    out: &mut Schedule,
) {
    if demands.is_empty() {
        reset(out, seq, interval);
        return;
    }
    let n = demands.len() as u64;
    let overhead = cfg.schedule_airtime + cfg.guard * (n + 1);
    let share = interval.saturating_sub(overhead) / n;
    if share < cfg.min_slot {
        // Overhead has eaten the interval: equal division would emit
        // zero-length (or sub-minimum) slots for everyone.
        saturated_round_robin_into(interval, cfg, demands, seq, false, scratch, out);
        return;
    }
    scratch.slots.clear();
    scratch.slots.extend(demands.iter().map(|d| (d.client, share)));
    lay_out_into(cfg, interval, seq, scratch, out);
    out.fixed_slots = true;
}

/// [`PolicyKind::SlottedStatic`]: a broadcast TCP slot first, then equal
/// UDP slots for every known client.
fn build_slotted_into(
    interval: SimDuration,
    tcp_weight: f64,
    cfg: &BuilderConfig,
    demands: &[ClientDemand],
    seq: u64,
    scratch: &mut PolicyScratch,
    out: &mut Schedule,
) {
    assert!((0.0..1.0).contains(&tcp_weight), "tcp_weight must be in [0,1)");
    if demands.is_empty() {
        reset(out, seq, interval);
        return;
    }
    let n = demands.len() as u64;
    let overhead = cfg.schedule_airtime + cfg.guard * (n + 2);
    let usable = interval.saturating_sub(overhead);
    let tcp_slot = SimDuration::from_us((usable.as_us() as f64 * tcp_weight) as u64);
    let udp_share = usable.saturating_sub(tcp_slot) / n;
    if udp_share < cfg.min_slot {
        // Same degradation as the static policy, but keep a broadcast
        // TCP slot so spliced streams aren't starved entirely.
        saturated_round_robin_into(interval, cfg, demands, seq, true, scratch, out);
        return;
    }
    scratch.slots.clear();
    scratch.slots.push((HostAddr::BROADCAST, tcp_slot));
    for d in demands {
        scratch.slots.push((d.client, udp_share));
    }
    lay_out_into(cfg, interval, seq, scratch, out);
    out.fixed_slots = true;
}

/// [`PolicyKind::PsmBeacon`]: one broadcast window long enough to drain
/// every queue, capped by the beacon interval.
fn build_psm_into(
    interval: SimDuration,
    cfg: &BuilderConfig,
    demands: &[ClientDemand],
    seq: u64,
    scratch: &mut PolicyScratch,
    out: &mut Schedule,
) {
    let total: u64 = demands.iter().map(|d| d.total()).sum();
    if total == 0 {
        reset(out, seq, interval);
        out.fixed_slots = true;
        return;
    }
    let avg = weighted_avg_pkt(demands);
    let overhead = cfg.schedule_airtime + cfg.guard * 2;
    let window =
        drain_time(cfg, total, avg).max(cfg.min_slot).min(interval.saturating_sub(overhead));
    scratch.slots.clear();
    scratch.slots.push((HostAddr::BROADCAST, window));
    lay_out_into(cfg, interval, seq, scratch, out);
    out.fixed_slots = true;
}

/// Reset `out` to an empty schedule with the given sequence and interval.
fn reset(out: &mut Schedule, seq: u64, next_srp: SimDuration) {
    out.seq = seq;
    out.entries.clear();
    out.next_srp = next_srp;
    out.unchanged = false;
    out.fixed_slots = false;
    out.saturated = false;
}

/// The shared core of the fixed-interval dynamic policies: filter active
/// clients, weigh them with `weight`, fit shares, lay out, clamp.
///
/// With `weight = ClientDemand::total` this is exactly the paper's
/// `build_fixed`; the channel- and buffer-aware policies only change the
/// weighting function.
fn build_weighted_fixed_into(
    interval: SimDuration,
    cfg: &BuilderConfig,
    demands: &[ClientDemand],
    seq: u64,
    weight: impl Fn(&ClientDemand) -> u64,
    scratch: &mut PolicyScratch,
    out: &mut Schedule,
) {
    scratch.slots.clear();
    scratch.weights.clear();
    let mut total_bytes: u64 = 0;
    for d in demands {
        if d.total() > 0 {
            total_bytes += d.total();
            scratch.slots.push((d.client, SimDuration::ZERO));
            scratch.weights.push(weight(d));
        }
    }
    if scratch.slots.is_empty() || total_bytes == 0 {
        reset(out, seq, interval);
        return;
    }
    let overhead = cfg.schedule_airtime + cfg.guard * (scratch.slots.len() as u64 + 1);
    let usable = interval.saturating_sub(overhead);
    if !fit_shares_into(usable, cfg.min_slot, &scratch.weights, &mut scratch.shares) {
        // Even min_slot floors do not fit: serve a rotating subset rather
        // than letting the clamp starve whoever happens to be laid out last.
        saturated_round_robin_into(interval, cfg, demands, seq, false, scratch, out);
        return;
    }
    for ((_, d), share) in scratch.slots.iter_mut().zip(&scratch.shares) {
        *d = *share;
    }
    lay_out_into(cfg, interval, seq, scratch, out);
    // Shares fit by construction; the clamp only trims sub-guard rounding
    // at the tail and can no longer drop an active client's slot.
    clamp_to_interval(out, interval, cfg.guard);
}

/// Demand-weighted mean packet size across all queues, for estimating the
/// shared PSM window. Each demand's `avg_pkt` is weighted by its queued
/// bytes, so the per-message overhead term in [`drain_time`] reflects the
/// actual message mix. (Taking the *max* here, as the code once did,
/// under-counts messages for small-packet streams and mis-reserves the
/// window whenever fidelities are mixed.)
pub(crate) fn weighted_avg_pkt(demands: &[ClientDemand]) -> usize {
    let mut bytes: u128 = 0;
    let mut weighted: u128 = 0;
    for d in demands {
        let b = d.total() as u128;
        bytes += b;
        weighted += b * d.avg_pkt as u128;
    }
    match weighted.checked_div(bytes) {
        Some(avg) => avg as usize,
        None => 1_000,
    }
}

/// Time to drain `bytes` of messages averaging `avg_pkt`, per the model.
pub(crate) fn drain_time(cfg: &BuilderConfig, bytes: u64, avg_pkt: usize) -> SimDuration {
    if bytes == 0 {
        return SimDuration::ZERO;
    }
    let avg = avg_pkt.max(64);
    let msgs = bytes.div_ceil(avg as u64);
    SimDuration::from_us(msgs * cfg.bw.send_time(avg).as_us())
}

/// Lay `scratch.slots` out in rendezvous order into `out`.
fn lay_out_into(
    cfg: &BuilderConfig,
    next_srp: SimDuration,
    seq: u64,
    scratch: &PolicyScratch,
    out: &mut Schedule,
) {
    reset(out, seq, next_srp);
    out.entries.reserve(scratch.slots.len());
    let mut cursor = cfg.schedule_airtime + cfg.guard;
    for &(client, dur) in &scratch.slots {
        out.entries.push(ScheduleEntry { client, rp_offset: cursor, duration: dur });
        cursor += dur + cfg.guard;
    }
}

/// Degraded layout for saturated schedules: per-slot overhead has eaten
/// the whole interval, so proportional division would hand every client a
/// zero-length slot (while still emitting entries). Instead, serve as many
/// clients as fit at [`BuilderConfig::min_slot`] each, rotating the
/// starting client with `seq` so every client is eventually served, and
/// flag the schedule as saturated so clients and audits can see the
/// degradation. `tcp_slot` prepends a broadcast slot (the slotted policy's
/// TCP window) so spliced traffic keeps trickling even when saturated.
fn saturated_round_robin_into(
    interval: SimDuration,
    cfg: &BuilderConfig,
    demands: &[ClientDemand],
    seq: u64,
    tcp_slot: bool,
    scratch: &mut PolicyScratch,
    out: &mut Schedule,
) {
    let n = demands.len();
    debug_assert!(n > 0, "saturated fallback needs at least one client");
    let per_slot = (cfg.min_slot + cfg.guard).as_us().max(1);
    let lead = cfg.schedule_airtime + cfg.guard;
    let mut avail = interval.saturating_sub(lead + cfg.guard).as_us();
    scratch.slots.clear();
    if tcp_slot && avail >= per_slot {
        scratch.slots.push((HostAddr::BROADCAST, cfg.min_slot));
        avail -= per_slot;
    }
    // Always serve at least one party per interval, even if the layout
    // must then be clamped at the interval boundary.
    let fit = ((avail / per_slot) as usize).min(n).max(usize::from(scratch.slots.is_empty()));
    let start = (seq as usize) % n;
    for j in 0..fit {
        scratch.slots.push((demands[(start + j) % n].client, cfg.min_slot));
    }
    lay_out_into(cfg, interval, seq, scratch, out);
    clamp_to_interval(out, interval, cfg.guard);
    out.fixed_slots = true;
    out.saturated = true;
}

/// Per-client shares over `usable`, proportional to `weights`, floored at
/// `min_slot`, and guaranteed to sum to at most `usable`, written into
/// `shares`.
///
/// Plain proportional-with-floor can overflow `usable` when one weight
/// dominates and many tiny weights each get padded up to the floor; the
/// layout clamp would then silently drop the trailing clients' slots — the
/// bug behind the mixed-fidelity `missing-client` violations. When the
/// padded shares do not fit, the floor is granted to everyone first and
/// only the *remaining* space is divided proportionally, so every client
/// keeps a slot. Returns `false` when even the floors alone exceed
/// `usable` (the caller degrades to the saturated round-robin layout).
///
/// ## Integer-division dust
///
/// Both branches truncate each share to whole microseconds, losing
/// strictly less than 1 µs per client; neither re-distributes the
/// remainder (doing so would perturb the golden layouts frozen by
/// `tests/policy_diff.rs`). The shares therefore always sum to within
/// `weights.len()` µs of `usable` when demand saturates it — at the 100–
/// 1 000 clients/cell of a city-scale run that is ≤ 1 ms of idle air per
/// interval, bounded and audited by `fit_shares_dust_is_bounded_at_city_
/// scale` in `crates/core/tests/policy_props.rs`.
fn fit_shares_into(
    usable: SimDuration,
    min_slot: SimDuration,
    weights: &[u64],
    shares: &mut Vec<SimDuration>,
) -> bool {
    shares.clear();
    let n = weights.len() as u64;
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    let total = total.max(1);
    shares.extend(weights.iter().map(|&w| {
        SimDuration::from_us((usable.as_us() as u128 * w as u128 / total) as u64).max(min_slot)
    }));
    let padded: u64 = shares.iter().map(|d| d.as_us()).sum();
    if padded <= usable.as_us() {
        return true;
    }
    let Some(floors) = min_slot.as_us().checked_mul(n) else {
        return false;
    };
    if floors > usable.as_us() {
        return false;
    }
    let extra = (usable.as_us() - floors) as u128;
    shares.clear();
    shares.extend(
        weights
            .iter()
            .map(|&w| SimDuration::from_us(min_slot.as_us() + (extra * w as u128 / total) as u64)),
    );
    true
}

/// Trim slots that would run past the interval boundary.
fn clamp_to_interval(s: &mut Schedule, interval: SimDuration, guard: SimDuration) {
    let limit = interval.saturating_sub(guard);
    s.entries.retain(|e| e.rp_offset < limit);
    for e in &mut s.entries {
        let end = e.rp_offset + e.duration;
        if end > limit {
            e.duration = limit.saturating_sub(e.rp_offset);
        }
    }
    s.entries.retain(|e| !e.duration.is_zero());
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerburst_net::ChannelQuality;

    fn demand(host: u32, udp: u64) -> ClientDemand {
        ClientDemand::new(HostAddr(host), udp, 0, 1_000)
    }

    /// Degenerate-channel check: with every link Good, the channel-aware
    /// weighting is the identity, so the two policies must agree exactly.
    #[test]
    fn channel_aware_with_all_good_equals_fixed() {
        let cfg = BuilderConfig::default();
        let demands: Vec<ClientDemand> =
            (0..8).map(|i| demand(i, 1_000 * (i as u64 + 1))).collect();
        let interval = SimDuration::from_ms(100);
        let a = PolicyKind::DynamicFixed { interval }.build(&cfg, &demands, 7);
        let b = PolicyKind::ChannelAware { interval }.build(&cfg, &demands, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn channel_aware_inflates_degraded_share() {
        let cfg = BuilderConfig::default();
        let mut demands = vec![demand(1, 10_000), demand(2, 10_000)];
        demands[1].channel = ChannelQuality::Bad;
        let interval = SimDuration::from_ms(100);
        let s = PolicyKind::ChannelAware { interval }.build(&cfg, &demands, 0);
        assert_eq!(s.entries.len(), 2);
        let good = s.entries[0].duration.as_us();
        let bad = s.entries[1].duration.as_us();
        // Equal bytes, quarter rate: the Bad client needs ~4× the airtime.
        assert!(bad > 3 * good, "bad {bad} vs good {good}");
    }

    #[test]
    fn buffer_aware_shapes_bursts_by_occupancy() {
        let cfg = BuilderConfig::default();
        let target = DEFAULT_TARGET_BUFFER;
        let mut demands = vec![demand(1, 10_000), demand(2, 10_000), demand(3, 10_000)];
        demands[0].buffer_bytes = Some(0); // starving → inflated
        demands[1].buffer_bytes = Some(target); // on target → plain share
        demands[2].buffer_bytes = Some(3 * target); // overfull → trimmed
        let interval = SimDuration::from_ms(200);
        let s =
            PolicyKind::BufferAware { interval, target_buffer: target }.build(&cfg, &demands, 0);
        assert_eq!(s.entries.len(), 3);
        let starving = s.entries[0].duration.as_us();
        let on_target = s.entries[1].duration.as_us();
        let overfull = s.entries[2].duration.as_us();
        assert!(starving > on_target, "starving {starving} vs on-target {on_target}");
        assert!(on_target > overfull, "on-target {on_target} vs overfull {overfull}");
    }

    #[test]
    fn buffer_aware_without_reports_equals_fixed() {
        let cfg = BuilderConfig::default();
        let demands: Vec<ClientDemand> =
            (0..5).map(|i| demand(i, 5_000 + 777 * i as u64)).collect();
        let interval = SimDuration::from_ms(100);
        let a = PolicyKind::DynamicFixed { interval }.build(&cfg, &demands, 3);
        let b = PolicyKind::BufferAware { interval, target_buffer: DEFAULT_TARGET_BUFFER }
            .build(&cfg, &demands, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn build_into_reuses_buffers() {
        let cfg = BuilderConfig::default();
        let demands: Vec<ClientDemand> = (0..6).map(|i| demand(i, 2_000)).collect();
        let mut scratch = PolicyScratch::default();
        let mut out = Schedule::default();
        let p = PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) };
        p.build_into(&cfg, &demands, 0, &mut scratch, &mut out);
        let first = out.clone();
        // A second build with dirty buffers must produce the same result.
        p.build_into(&cfg, &demands, 0, &mut scratch, &mut out);
        assert_eq!(out, first);
    }

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<&str> = registry().iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len(), "duplicate policy names: {names:?}");
    }

    /// The match is exhaustive, so a new variant stops this test compiling
    /// until it gets an index here; the count then fails until
    /// `registry()` lists it.
    #[test]
    fn registry_lists_every_kind_exactly_once() {
        let mut listed = [0u32; 7];
        for p in registry() {
            listed[match p {
                PolicyKind::DynamicFixed { .. } => 0,
                PolicyKind::DynamicVariable { .. } => 1,
                PolicyKind::ChannelAware { .. } => 2,
                PolicyKind::BufferAware { .. } => 3,
                PolicyKind::StaticEqual { .. } => 4,
                PolicyKind::SlottedStatic { .. } => 5,
                PolicyKind::PsmBeacon { .. } => 6,
            }] += 1;
        }
        assert_eq!(listed, [1; 7], "registry() must list each PolicyKind once");
        assert!(matches!(registry()[0], PolicyKind::DynamicFixed { .. }), "fixed comes first");
    }
}
