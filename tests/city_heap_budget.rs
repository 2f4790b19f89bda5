//! Heap budget of a city world.
//!
//! `city-live` is where the benchmark measures 10k-node assembly and
//! memory, but peak RSS there is a whole-process figure. This test pins
//! the world's own footprint: a counting global allocator tracks live
//! heap bytes and their peak while a 2 048-client city (32 cells of 64
//! live-radio clients) is assembled and run. Two budgets, per client:
//! the bytes `assemble` leaves live, and the peak over the run. A table
//! sized from a node count or a constant rather than from use shows up
//! in both.
//!
//! The file deliberately contains a single `#[test]` so no concurrent test
//! perturbs the counters mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use powerburst::prelude::*;
use powerburst::scenario::experiments::city_cfg;

struct CountingAlloc;

/// Heap bytes live right now.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has read since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(now, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => _ = LIVE.fetch_sub(layout.size() - new_size, Ordering::SeqCst),
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CLIENTS: usize = 2_048;

/// Live heap bytes per client once `assemble` returns. Measured 1 198
/// (debug and release alike): the daemon and its app, the proxy's
/// per-client state, the node slot with its live card, and the routing
/// tables. The margin is a quarter. A world that sized its event queues
/// and captures ahead of use held 15 839.
const BUDGET_ASSEMBLED_B_PER_CLIENT: usize = 1_500;

/// Peak live heap bytes per client over the 1.5 s run. Measured 9 690:
/// the assembled world plus the queues, captures and packets of cells in
/// full swing. The margin is a quarter; that world peaked at 23 066.
const BUDGET_PEAK_B_PER_CLIENT: usize = 12_100;

#[test]
fn a_city_world_stays_under_its_heap_budget() {
    let mut cfg = city_cfg(42, CLIENTS, SimDuration::from_ms(1_500));
    cfg.radio = RadioMode::Live;

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let mut a = assemble(&cfg);
    let assembled = LIVE.load(Ordering::SeqCst) - base;
    a.world.run_until(SimTime::ZERO + cfg.duration);
    let peak = PEAK.load(Ordering::SeqCst) - base;

    assert_eq!(a.world.cell_count(), 32, "64 clients a cell");
    assert!(a.world.events_processed() > 100_000, "the city ran");
    let (assembled, peak) = (assembled / CLIENTS, peak / CLIENTS);
    assert!(
        assembled <= BUDGET_ASSEMBLED_B_PER_CLIENT,
        "assembled world holds {assembled} B per client (budget {BUDGET_ASSEMBLED_B_PER_CLIENT})"
    );
    assert!(
        peak <= BUDGET_PEAK_B_PER_CLIENT,
        "heap peaked at {peak} B per client (budget {BUDGET_PEAK_B_PER_CLIENT})"
    );
}
