//! Differential fuzz test for the indexed event queue.
//!
//! Seeded random streams of `push`/`pop`/`cancel`/`time_of`/`clear`
//! operations run against both the indexed 4-ary heap (a dense slot table
//! behind generation-checked handles, one packed `(time, seq)` key) and a
//! naive sorted-`Vec` reference model. After every single operation the
//! two must agree on `len()`, `peek_time()`, and — for pops, cancels and
//! `time_of` lookups — the exact result, so any divergence pinpoints the
//! first operation where the indexed structure misbehaves. One run draws
//! its times from both ends of the clock (0 and `SimTime::MAX` and their
//! neighbours), where a packed key would first lose its order.

use powerburst_sim::{derive_rng, EventId, EventQueue, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

/// Reference model: a flat vec kept in `(time, seq)` order on demand.
/// Everything is O(n) and obviously correct.
struct NaiveQueue {
    /// Live events: `(time, seq, model_handle, value)`.
    live: Vec<(SimTime, u64, usize, u32)>,
    next_seq: u64,
    next_handle: usize,
}

impl NaiveQueue {
    fn new() -> Self {
        NaiveQueue { live: Vec::new(), next_seq: 0, next_handle: 0 }
    }

    fn push(&mut self, time: SimTime, value: u32) -> usize {
        let handle = self.next_handle;
        self.next_handle += 1;
        self.live.push((time, self.next_seq, handle, value));
        self.next_seq += 1;
        handle
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let min = self
            .live
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, seq, _, _))| (t, seq))
            .map(|(i, _)| i)?;
        let (t, _, _, v) = self.live.remove(min);
        Some((t, v))
    }

    fn cancel(&mut self, handle: usize) -> bool {
        match self.live.iter().position(|&(_, _, h, _)| h == handle) {
            Some(i) => {
                self.live.remove(i);
                true
            }
            None => false,
        }
    }

    fn time_of(&self, handle: usize) -> Option<SimTime> {
        self.live.iter().find(|&&(_, _, h, _)| h == handle).map(|&(t, _, _, _)| t)
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.live.iter().map(|&(t, seq, _, _)| (t, seq)).min().map(|(t, _)| t)
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    fn clear(&mut self) {
        self.live.clear();
    }
}

/// Times spread over 5 ms, so equal times (sequence tie-breaks) are common.
fn spread(rng: &mut StdRng) -> SimTime {
    SimTime::from_us(rng.random_range(0..5_000))
}

/// Times at both ends of the clock, and anywhere in between.
fn extremes(rng: &mut StdRng) -> SimTime {
    let max = SimTime::MAX.as_us();
    SimTime::from_us(match rng.random_range(0..4u32) {
        0 => rng.random_range(0..3),
        1 => rng.random_range(max - 2..=max),
        _ => rng.random(),
    })
}

/// Run one seeded operation stream against both queues, drawing each
/// pushed event's time from `time`.
fn differential_run(seed: u64, ops: usize, time: fn(&mut StdRng) -> SimTime) {
    let mut rng = derive_rng(seed, 0xF0220);
    let mut dut: EventQueue<u32> = EventQueue::new();
    let mut model = NaiveQueue::new();
    // Handles issued so far: `(dut_id, model_handle)`. Never pruned, so
    // cancel() also gets exercised with stale (popped/cancelled/cleared)
    // handles, which both sides must reject identically.
    let mut handles: Vec<(EventId, usize)> = Vec::new();
    let mut value = 0u32;

    for step in 0..ops {
        match rng.random_range(0..100u32) {
            // Weighted toward push/pop so the queues stay populated.
            0..=44 => {
                let t = time(&mut rng);
                value += 1;
                let id = dut.push(t, value);
                let h = model.push(t, value);
                handles.push((id, h));
            }
            45..=64 => {
                let got = dut.pop();
                let want = model.pop();
                assert_eq!(got, want, "seed {seed} step {step}: pop mismatch");
            }
            65..=74 => {
                // Any issued handle, pending or not: `time_of` is
                // `Ctx::rearm_timer_at`'s fast path.
                if !handles.is_empty() {
                    let (id, h) = handles[rng.random_range(0..handles.len())];
                    let (got, want) = (dut.time_of(id), model.time_of(h));
                    assert_eq!(got, want, "seed {seed} step {step}: time_of mismatch");
                }
            }
            75..=97 => {
                if !handles.is_empty() {
                    let i = rng.random_range(0..handles.len());
                    let (id, h) = handles[i];
                    let got = dut.cancel(id);
                    let want = model.cancel(h);
                    assert_eq!(got, want, "seed {seed} step {step}: cancel mismatch");
                }
            }
            _ => {
                dut.clear();
                model.clear();
            }
        }
        assert_eq!(dut.len(), model.len(), "seed {seed} step {step}: len mismatch");
        assert_eq!(dut.is_empty(), model.is_empty(), "seed {seed} step {step}");
        assert_eq!(
            dut.peek_time(),
            model.peek_time(),
            "seed {seed} step {step}: peek_time mismatch"
        );
    }

    // Drain both: the full remaining pop sequences must agree.
    loop {
        let got = dut.pop();
        let want = model.pop();
        assert_eq!(got, want, "seed {seed} drain: pop mismatch");
        if got.is_none() {
            break;
        }
    }
}

#[test]
fn indexed_queue_matches_naive_model() {
    for seed in [1, 2, 3, 7, 42, 0xDEAD_BEEF] {
        differential_run(seed, 4_000, spread);
    }
}

#[test]
fn indexed_queue_matches_naive_model_at_the_ends_of_time() {
    for seed in [5, 8, 0xC0FFEE] {
        differential_run(seed, 4_000, extremes);
    }
}

#[test]
fn indexed_queue_matches_naive_model_under_heavy_cancellation() {
    // A second weighting: mostly cancels, so slot reuse and interior
    // removals dominate.
    for seed in [11, 13, 17] {
        let mut rng = derive_rng(seed, 0xF0221);
        let mut dut: EventQueue<u32> = EventQueue::new();
        let mut model = NaiveQueue::new();
        let mut handles: Vec<(EventId, usize)> = Vec::new();
        for step in 0..2_000u32 {
            if rng.random_range(0..3u32) == 0 {
                let t = SimTime::from_us(rng.random_range(0..500));
                let id = dut.push(t, step);
                let h = model.push(t, step);
                handles.push((id, h));
            } else if !handles.is_empty() {
                let i = rng.random_range(0..handles.len());
                let (id, h) = handles.swap_remove(i);
                assert_eq!(dut.cancel(id), model.cancel(h), "seed {seed} step {step}");
            }
            assert_eq!(dut.len(), model.len());
            assert_eq!(dut.peek_time(), model.peek_time());
        }
        loop {
            let got = dut.pop();
            assert_eq!(got, model.pop(), "seed {seed} drain");
            if got.is_none() {
                break;
            }
        }
    }
}
