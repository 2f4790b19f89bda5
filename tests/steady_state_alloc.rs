//! Whole-sim steady-state allocation budget.
//!
//! The benchmark shows allocation regressions as throughput loss, but
//! only when someone reads the numbers. This test makes the allocation
//! discipline a tier-1 gate: run the mixed video+web scenario (Figure 5's
//! blend) past warm-up, then count every global-allocator call over a
//! steady-state window and assert allocations-per-event stays under budget.
//!
//! Warm-up matters: the first simulated seconds fill the payload-pattern
//! templates, the `bytes` buffer pool, per-struct scratch vectors, TCP
//! windows and the event queue's slot tables. Steady state afterwards
//! should be nearly allocation-free — what remains is bounded
//! per-interval work (schedule build/encode per SRP, postmortem trace
//! records) plus rare capacity doublings.
//!
//! The budget starts generous (see `BUDGET_ALLOCS_PER_EVENT`); ratchet it
//! down as pooling coverage grows. The file deliberately contains a single
//! `#[test]` so no concurrent test perturbs the counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use powerburst::prelude::*;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Steady-state ceiling, in global-allocator calls per dispatched event.
/// Measured ~0.03 after the schedule builder gained `PolicyScratch` reuse
/// and the proxy started double-buffering the previous/spare `Schedule`
/// (bounded O(clients) work per interval now runs entirely in retained
/// buffers; see DESIGN.md §13 for what may allocate where). The margin
/// absorbs platform variation in growth points without letting a
/// per-interval allocation — let alone a per-packet one (≥ ~0.5/event at
/// this scenario's events-per-packet ratio) — sneak back in.
const BUDGET_ALLOCS_PER_EVENT: f64 = 0.10;

#[test]
fn steady_state_mix_scenario_stays_under_allocation_budget() {
    // Figure 5's blend: seven video clients at 56kbps plus
    // three web clients, dynamic scheduling at a 100ms interval.
    let policy = PolicyKind::DynamicFixed { interval: SimDuration::from_ms(100) };
    let mut clients: Vec<ClientSpec> = VideoPattern::All56
        .fidelities(7)
        .into_iter()
        .map(|f| ClientSpec::new(ClientKind::Video { fidelity: f }))
        .collect();
    for _ in 0..3 {
        clients.push(ClientSpec::new(ClientKind::Web { script: WebScriptConfig::default() }));
    }
    let cfg = ScenarioConfig::new(42, policy, clients).with_duration(SimDuration::from_secs(60));

    let mut a = assemble(&cfg);

    // Warm-up: streams stagger in over the first seconds; give pools,
    // scratch and growth-points time to reach their high-water marks.
    a.world.run_until(SimTime::ZERO + SimDuration::from_secs(20));

    let events_before = a.world.events_processed();
    let allocs_before = ALLOCS.load(Ordering::SeqCst);

    // Steady-state measurement window.
    a.world.run_until(SimTime::ZERO + SimDuration::from_secs(50));

    let events = a.world.events_processed() - events_before;
    let allocs = ALLOCS.load(Ordering::SeqCst) - allocs_before;

    assert!(events > 10_000, "window too small to be meaningful: {events} events");
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= BUDGET_ALLOCS_PER_EVENT,
        "steady-state allocation budget exceeded: {allocs} allocs / {events} events \
         = {per_event:.4} per event (budget {BUDGET_ALLOCS_PER_EVENT})"
    );
}
