//! Host-speed calibration of the end-to-end times.
//!
//! The benchmark's host is a share of a larger machine, and its speed
//! drifts: the same work can take half again or twice as long for tens of
//! seconds at a time, longer than a whole measurement. A median inside one
//! run cannot remove an episode that covers the run, so every end-to-end
//! time is calibrated instead. A fixed reference kernel, code of the
//! benchmark's own that no program change can speed up, is timed right
//! before and right after each scenario run, and the run's host seconds
//! are scaled by `REFERENCE_S` over the mean of those two samples. The
//! result reads in seconds on a host on which one reference sample takes
//! `REFERENCE_S`; the raw wall-clock figures are kept in the report.
//!
//! The kernel is shaped like the simulator's hot loop (a priority queue of
//! timed events, each touching a table larger than the L1 cache), so host
//! episodes slow it about as much as they slow a scenario run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds of one reference sample on the host the first readings
/// came from (a 2.1 GHz Xeon vCPU at its fast, uncontended speed): the
/// unit calibrated times are expressed in.
pub const REFERENCE_S: f64 = 0.001;

/// Pending events in the kernel's queue.
const PENDING: u32 = 1024;
/// Events popped and re-pushed per kernel pass.
const EVENTS: u32 = 12_000;
/// Words of the table each event reads and writes (256 KiB).
const TABLE: usize = 1 << 15;
/// Kernel passes per sample; the sample is their median, so one pass cut
/// short by an interrupt does not move it.
const PASSES: usize = 3;

/// The reference kernel and its state, reused across samples.
pub struct Reference {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    table: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// A kernel with its table filled, warmed by one sample.
    pub fn new() -> Reference {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let table = (0..TABLE).map(|_| xorshift(&mut x)).collect();
        let mut r = Reference { heap: BinaryHeap::with_capacity(PENDING as usize), table };
        r.sample_s();
        r
    }

    /// Host seconds of one pass: the median of `PASSES` timed passes.
    pub fn sample_s(&mut self) -> f64 {
        let mut t = [0.0; PASSES];
        for s in &mut t {
            let start = Instant::now();
            black_box(self.pass());
            *s = start.elapsed().as_secs_f64();
        }
        t.sort_by(f64::total_cmp);
        t[PASSES / 2]
    }

    /// `EVENTS` pops of the earliest event, each reading and updating one
    /// table word and re-pushing the event later in time.
    fn pass(&mut self) -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        self.heap.clear();
        for id in 0..PENDING {
            self.heap.push(Reverse((xorshift(&mut x) & 0xffff, id)));
        }
        let mut acc = 0u64;
        for _ in 0..EVENTS {
            let Reverse((t, id)) = self.heap.pop().expect("the queue is never empty");
            let r = xorshift(&mut x);
            let slot = (r as usize ^ id as usize) & (TABLE - 1);
            let v = self.table[slot];
            self.table[slot] = v.rotate_left(7) ^ t;
            acc = acc.wrapping_add(v);
            let gap = if v & 1 == 0 { 1 + (r >> 52) } else { 1 + (r >> 56) };
            self.heap.push(Reverse((t + gap, id)));
        }
        acc
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}
