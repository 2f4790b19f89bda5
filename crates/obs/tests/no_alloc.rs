//! The zero-overhead contract: recording through a disabled recorder must
//! not touch the heap, and the enabled counter/gauge/histogram path (plus
//! the pre-allocated event channel under its cap) must not either.
//!
//! A counting global allocator tracks every allocation in this test
//! binary. The file deliberately contains a single `#[test]` so no
//! concurrently running test can perturb the counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use powerburst_obs::{Counter, EventKind, Gauge, Hist, Recorder, RecorderConfig};

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

fn hammer(r: &Recorder) {
    for i in 0..10_000u64 {
        r.incr(Counter::BurstsStarted);
        r.add(Counter::UdpBytesSent, i);
        r.gauge_add(Gauge::BacklogBytes, 1);
        r.gauge_set(Gauge::LastScheduleEntries, 5);
        r.observe(Hist::WakeLeadUs, i);
        r.observe(Hist::QueueDepthBytes, i * 3);
        r.event(i, EventKind::BurstEnd { client: 7, spent_us: i, margin_us: -(i as i64) });
    }
}

#[test]
fn recording_hot_paths_do_not_allocate() {
    // Disabled recorder: the whole instrumented surface must be free.
    let disabled = Recorder::disabled();
    let before = ALLOCS.load(Ordering::SeqCst);
    hammer(&disabled);
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "disabled recorder allocated on the hot path");

    // Enabled recorder: construction allocates (fixed arrays + the event
    // buffer pre-sized to its cap), but recording afterwards must not —
    // including events, as long as the channel stays under the cap.
    let enabled = Recorder::new(RecorderConfig { events: true, lanes: 1 });
    let before = ALLOCS.load(Ordering::SeqCst);
    hammer(&enabled);
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "enabled recorder allocated on the hot path");

    // Sanity: the work above was actually recorded.
    let rep = enabled.export().expect("enabled recorder exports");
    assert_eq!(rep.counter(Counter::BurstsStarted), 10_000);
    assert_eq!(rep.events.len(), 10_000);
}
