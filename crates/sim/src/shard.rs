//! Conservative-lookahead shard executor.
//!
//! A sharded world splits its state into disjoint `ShardState`-like
//! pieces, each with its own event queue, and runs them in *epochs*: every
//! epoch processes the half-open window `[M, min(M + L, target + 1))`
//! where `M` is the global minimum pending-event time across shards and
//! `L` is the **lookahead** — the minimum latency of any cross-shard
//! link. Any message a shard emits at time `s ≥ M` arrives at
//! `s + L ≥ M + L`, i.e. at or after the window end, so shards can
//! process their windows independently and exchange the produced
//! messages at the barrier without ever violating causality.
//!
//! Messages travel through a [`MailGrid`]: an `n × n` matrix of
//! mailboxes where box `(i, j)` is written only by shard `i` during the
//! *compute* phase and drained only by shard `j` during the *drain*
//! phase. The two phases are separated by a barrier, so every box has a
//! single writer and a single reader at any instant — the same
//! single-writer-slot discipline `sweep` uses for result collection.
//!
//! Determinism: a shard's window execution depends only on its own state
//! plus mail applied at previous barriers, and mail is drained in sender
//! rank order. Neither depends on which OS thread claimed the shard, so
//! `threads = 1` and `threads = N` produce identical results — the
//! single-thread path literally runs the same phases inline with no
//! atomics at all.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

use crate::time::{SimDuration, SimTime};

/// A relaxed atomic job cursor: hands out `0, 1, 2, …` to whoever calls
/// [`Cursor::next`], exactly once each. This is the one atomic primitive
/// the workspace's parallel paths share (sweep job dispatch, shard
/// claiming); no simulated result ever flows through it — it only decides
/// *which thread* does a unit of work, never *what* the work computes.
#[derive(Debug, Default)]
pub struct Cursor(AtomicUsize);

impl Cursor {
    /// A cursor starting at index 0.
    pub const fn new() -> Cursor {
        Cursor(AtomicUsize::new(0))
    }

    /// Claim the next index.
    pub fn next(&self) -> usize {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Rewind to 0. Only sound while no other thread is claiming; the
    /// epoch loop calls this between barriers while workers are parked.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// An `n × n` matrix of single-writer / single-reader mailboxes for
/// cross-shard messages. Box `(from, to)` lives at `from * n + to`.
///
/// Phase discipline (enforced by the executor's barriers, encoded here by
/// the narrow [`MailSender`] / [`MailDrain`] windows handed out):
/// * compute phase — shard `i`'s owner writes row `i` only;
/// * drain phase — shard `j`'s owner drains column `j` only.
#[derive(Debug)]
pub struct MailGrid<M> {
    n: usize,
    boxes: Vec<UnsafeCell<Vec<M>>>,
}

// Shared references to the grid only ever reach code holding a
// `MailSender` (exclusive over one row) or `MailDrain` (exclusive over one
// column, in a barrier-separated phase where no senders exist). Those
// wrappers are only constructed by the executor below or through `&mut
// self` methods, so no box is ever aliased mutably.
// SAFETY: per-box exclusivity per phase, as argued above; `M: Send`
// because messages cross threads.
unsafe impl<M: Send> Sync for MailGrid<M> {}

impl<M> MailGrid<M> {
    /// An empty grid for `n` shards.
    pub fn new(n: usize) -> MailGrid<M> {
        MailGrid { n, boxes: (0..n * n).map(|_| UnsafeCell::new(Vec::new())).collect() }
    }

    /// Number of shards this grid serves.
    pub fn shard_count(&self) -> usize {
        self.n
    }

    /// Exclusive sender for row `from` — safe: `&mut self` guarantees no
    /// other row handle exists. Used by sequential paths.
    pub fn sender(&mut self, from: usize) -> MailSender<'_, M> {
        assert!(from < self.n);
        MailSender { grid: self, from }
    }

    /// Sender for row `from` through a shared grid reference.
    ///
    /// # Safety
    /// The caller must guarantee that for the sender's lifetime no other
    /// `MailSender` for the same `from` row and no `MailDrain` exists —
    /// the executor guarantees it by handing row `i` only to the thread
    /// that claimed shard `i`, with drains in a barrier-separated phase.
    // SAFETY: contract above; the `unsafe fn` pushes the proof obligation
    // to the executor's phase discipline.
    unsafe fn sender_shared(&self, from: usize) -> MailSender<'_, M> {
        debug_assert!(from < self.n);
        MailSender { grid: self, from }
    }

    /// Drain handle for column `to` through a shared grid reference.
    ///
    /// # Safety
    /// Same contract as [`Self::sender_shared`], for column `to`: no other
    /// handle may touch the column while this drain lives, and all senders
    /// must have finished (barrier) so their writes are visible.
    // SAFETY: contract above, discharged by the executor's barriers.
    unsafe fn drain_shared(&self, to: usize) -> MailDrain<'_, M> {
        debug_assert!(to < self.n);
        MailDrain { grid: self, to }
    }

    /// Drain every mailbox in `(to, from)` order — safe: `&mut self`.
    pub fn drain_all(&mut self, mut f: impl FnMut(usize, M)) {
        for to in 0..self.n {
            for from in 0..self.n {
                // SAFETY: `&mut self` — no other handle can exist.
                let v = unsafe { &mut *self.boxes[from * self.n + to].get() };
                for m in v.drain(..) {
                    f(to, m);
                }
            }
        }
    }

    /// Drain only the mailboxes written by shard `from`, in destination
    /// order — safe: `&mut self`. Used after out-of-band `with_node`
    /// injections, where only one shard can have produced mail.
    pub fn drain_row(&mut self, from: usize, mut f: impl FnMut(usize, M)) {
        for to in 0..self.n {
            // SAFETY: `&mut self` — no other handle can exist.
            let v = unsafe { &mut *self.boxes[from * self.n + to].get() };
            for m in v.drain(..) {
                f(to, m);
            }
        }
    }
}

/// Write window over one row of a [`MailGrid`] (one sending shard).
#[derive(Debug)]
pub struct MailSender<'a, M> {
    grid: &'a MailGrid<M>,
    from: usize,
}

impl<M> MailSender<'_, M> {
    /// Queue `m` for shard `to`; it is applied at the next drain phase.
    /// The backing `Vec` keeps its capacity across epochs, so steady-state
    /// mail traffic does not allocate.
    pub fn send(&mut self, to: usize, m: M) {
        debug_assert!(to < self.grid.n);
        // SAFETY: this sender is the unique handle for row `from` (see
        // constructor contracts), so the box has exactly one writer.
        unsafe { (*self.grid.boxes[self.from * self.grid.n + to].get()).push(m) };
    }
}

/// Drain window over one column of a [`MailGrid`] (one receiving shard).
#[derive(Debug)]
pub struct MailDrain<'a, M> {
    grid: &'a MailGrid<M>,
    to: usize,
}

impl<M> MailDrain<'_, M> {
    /// Drain all mail addressed to this shard, in sender rank order —
    /// the fixed order is part of the determinism argument.
    pub fn drain(&mut self, mut f: impl FnMut(usize, M)) {
        for from in 0..self.grid.n {
            // SAFETY: this drain is the unique handle for column `to` and
            // the compute phase ended at a barrier, so each box has no
            // writer and exactly one reader.
            let v = unsafe { &mut *self.grid.boxes[from * self.grid.n + self.to].get() };
            for m in v.drain(..) {
                f(from, m);
            }
        }
    }
}

/// Shared view of the shard slice for the scoped workers. Each shard index
/// is claimed by exactly one thread per phase via a [`Cursor`], so every
/// `&mut` handed out is unique.
struct SharedShards<'a, S> {
    ptr: *mut S,
    len: usize,
    _life: PhantomData<&'a mut [S]>,
}

// Access is partitioned by the claim cursor: index `i` is handed to
// exactly one thread per phase, and the main thread only touches shards
// between barriers while workers are parked.
// SAFETY: per-index exclusivity as argued above; `S: Send` because shards
// are mutated from whichever thread claims them.
unsafe impl<S: Send> Sync for SharedShards<'_, S> {}

impl<'a, S> SharedShards<'a, S> {
    fn new(shards: &'a mut [S]) -> SharedShards<'a, S> {
        SharedShards { ptr: shards.as_mut_ptr(), len: shards.len(), _life: PhantomData }
    }

    /// # Safety
    /// Caller must hold an exclusive claim on index `i` (cursor claim, or
    /// main thread between barriers).
    #[allow(clippy::mut_from_ref)]
    // SAFETY: exclusivity is the caller's obligation, stated above.
    unsafe fn claim(&self, i: usize) -> &mut S {
        debug_assert!(i < self.len);
        &mut *self.ptr.add(i)
    }
}

/// Epoch parameters for [`run_epochs`].
#[derive(Debug, Clone, Copy)]
pub struct EpochPlan {
    /// Worker threads to use (clamped to `[1, shards]`).
    pub threads: usize,
    /// Run all events with `time <= target` (inclusive, like `run_until`).
    pub target: SimTime,
    /// Conservative lookahead: minimum cross-shard message latency. Must
    /// be non-zero when more than one shard exchanges messages.
    pub lookahead: SimDuration,
}

fn window_end(m: SimTime, plan: &EpochPlan) -> SimTime {
    let cap = plan.target.saturating_add(SimDuration::from_us(1));
    m.saturating_add(plan.lookahead).min(cap)
}

/// Run shards to `plan.target` in conservative-lookahead epochs.
///
/// Hooks:
/// * `next_time(&shard)` — earliest pending event, if any;
/// * `step(rank, &mut shard, window_end, sender)` — process every event
///   strictly before `window_end`, emitting cross-shard messages through
///   `sender`;
/// * `drain(rank, &mut shard, drain)` — apply inbound messages.
///
/// The loop ends when no shard has an event at or before `plan.target`;
/// since every epoch fully drains the grid, no mail is pending at exit.
/// The number of executed epochs is returned (observability + tests).
pub fn run_epochs<S, M, FNext, FStep, FDrain>(
    shards: &mut [S],
    grid: &mut MailGrid<M>,
    plan: EpochPlan,
    next_time: FNext,
    step: FStep,
    drain: FDrain,
) -> u64
where
    S: Send,
    M: Send,
    FNext: Fn(&S) -> Option<SimTime> + Sync,
    FStep: Fn(usize, &mut S, SimTime, MailSender<'_, M>) + Sync,
    FDrain: Fn(usize, &mut S, MailDrain<'_, M>) + Sync,
{
    assert_eq!(grid.shard_count(), shards.len(), "mail grid sized for a different shard count");
    let n = shards.len();
    let threads = plan.threads.clamp(1, n.max(1));
    if n > 1 {
        assert!(!plan.lookahead.is_zero(), "multi-shard worlds need non-zero lookahead");
    }
    let mut epochs = 0u64;

    if threads == 1 {
        // Inline path: same phases, no atomics, no barriers. Results are
        // identical to the threaded path because phase order — all steps,
        // then all drains in rank order — is preserved exactly.
        while let Some(m) = shards.iter().filter_map(&next_time).min() {
            if m > plan.target {
                break;
            }
            let wend = window_end(m, &plan);
            for (r, s) in shards.iter_mut().enumerate() {
                step(r, s, wend, grid.sender(r));
            }
            for (r, s) in shards.iter_mut().enumerate() {
                // SAFETY: sequential — no senders or other drains exist.
                drain(r, s, unsafe { grid.drain_shared(r) });
            }
            epochs += 1;
        }
        return epochs;
    }

    let slots = SharedShards::new(shards);
    let grid = &*grid;
    let step_cursor = Cursor::new();
    let drain_cursor = Cursor::new();
    // The window end travels to workers as raw microseconds; `done` tells
    // them to exit. Both are published before a barrier release, which is
    // the happens-before edge (orderings can stay relaxed).
    let window_us = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let start_gate = Barrier::new(threads);
    let mid_gate = Barrier::new(threads);
    let end_gate = Barrier::new(threads);

    let run_phases = |wend: SimTime| {
        loop {
            let i = step_cursor.next();
            if i >= n {
                break;
            }
            // SAFETY: the cursor hands `i` to exactly one thread; the
            // matching sender row is owned by the same claim.
            unsafe { step(i, slots.claim(i), wend, grid.sender_shared(i)) };
        }
        mid_gate.wait();
        loop {
            let i = drain_cursor.next();
            if i >= n {
                break;
            }
            // SAFETY: same unique-claim argument, drain phase — all
            // senders finished at `mid_gate`.
            unsafe { drain(i, slots.claim(i), grid.drain_shared(i)) };
        }
        end_gate.wait();
    };

    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| loop {
                start_gate.wait();
                if done.load(Ordering::Relaxed) {
                    break;
                }
                run_phases(SimTime::from_us(window_us.load(Ordering::Relaxed)));
            });
        }
        loop {
            // Workers are parked at `start_gate` (or not yet past it), so
            // the main thread has exclusive access to every shard here.
            // SAFETY: exclusive between barriers, shared reads only.
            let m = (0..n).filter_map(|i| next_time(unsafe { &*slots.claim(i) })).min();
            match m {
                Some(m) if m <= plan.target => {
                    let wend = window_end(m, &plan);
                    window_us.store(wend.as_us(), Ordering::Relaxed);
                    step_cursor.reset();
                    drain_cursor.reset();
                    start_gate.wait();
                    run_phases(wend);
                    epochs += 1;
                }
                _ => {
                    done.store(true, Ordering::Relaxed);
                    start_gate.wait();
                    break;
                }
            }
        }
    });
    epochs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy shard: a sorted pending list of `(time, hops)` tokens. Each
    /// token is logged when processed; a token with hops left is forwarded
    /// to the next shard, arriving one lookahead later.
    #[derive(Debug, Default)]
    struct Toy {
        pending: Vec<(u64, u32)>,
        log: Vec<(u64, u32)>,
    }

    impl Toy {
        fn push(&mut self, t: u64, hops: u32) {
            self.pending.push((t, hops));
            self.pending.sort_unstable();
        }
    }

    const L: u64 = 7;

    fn run_toy(n: usize, threads: usize) -> (Vec<Vec<(u64, u32)>>, u64) {
        let mut shards: Vec<Toy> = (0..n).map(|_| Toy::default()).collect();
        for (i, s) in shards.iter_mut().enumerate() {
            s.push(i as u64 * 3, 20 + i as u32);
        }
        let mut grid: MailGrid<(u64, u32)> = MailGrid::new(n);
        let plan = EpochPlan {
            threads,
            target: SimTime::from_us(10_000),
            lookahead: SimDuration::from_us(L),
        };
        let epochs = run_epochs(
            &mut shards,
            &mut grid,
            plan,
            |s: &Toy| s.pending.first().map(|&(t, _)| SimTime::from_us(t)),
            |r, s, wend, mut tx| {
                while let Some(&(t, hops)) = s.pending.first() {
                    if t >= wend.as_us() {
                        break;
                    }
                    s.pending.remove(0);
                    s.log.push((t, hops));
                    if hops > 0 {
                        tx.send((r + 1) % n, (t + L, hops - 1));
                    }
                }
            },
            |_r, s, mut rx| {
                rx.drain(|_from, (t, hops)| s.push(t, hops));
            },
        );
        (shards.into_iter().map(|s| s.log).collect(), epochs)
    }

    #[test]
    fn epochs_are_deterministic_across_thread_counts() {
        let (base, base_epochs) = run_toy(5, 1);
        // Every token chain ran to exhaustion: total logged events =
        // 5 seeds + sum of hops forwarded.
        let total: usize = base.iter().map(Vec::len).sum();
        assert_eq!(total, 5 + (20..25).sum::<u32>() as usize);
        assert!(base_epochs > 0);
        for threads in [2, 3, 5, 8] {
            let (got, epochs) = run_toy(5, threads);
            assert_eq!(got, base, "threads={threads} diverged");
            assert_eq!(epochs, base_epochs, "threads={threads} epoch count diverged");
        }
        // Single shard degenerates to one pass over its own queue.
        let (solo, _) = run_toy(1, 4);
        assert_eq!(solo[0].len(), 1 + 20);
    }

    #[test]
    fn cursor_hands_out_each_index_once_and_resets() {
        let c = Cursor::new();
        assert_eq!((c.next(), c.next(), c.next()), (0, 1, 2));
        c.reset();
        assert_eq!(c.next(), 0);
    }

    #[test]
    fn drain_all_and_drain_row_cover_sequential_paths() {
        let mut g: MailGrid<u32> = MailGrid::new(3);
        g.sender(1).send(0, 10);
        g.sender(1).send(2, 12);
        g.sender(0).send(2, 2);
        let mut seen = Vec::new();
        g.drain_row(1, |to, m| seen.push((to, m)));
        assert_eq!(seen, vec![(0, 10), (2, 12)]);
        let mut rest = Vec::new();
        g.drain_all(|to, m| rest.push((to, m)));
        assert_eq!(rest, vec![(2, 2)]);
    }
}
