//! Conservative-lookahead shard executor.
//!
//! A sharded world splits its state into disjoint per-shard pieces, each
//! with its own event queue, and runs them in *epochs*: every epoch
//! processes the half-open window `[M, min(M + L, target + 1))` where `M`
//! is the global minimum pending-event time across shards and `L` is the
//! **lookahead** — the minimum latency of any cross-shard link. Any
//! message a shard emits at time `s ≥ M` arrives at `s + L ≥ M + L`, i.e.
//! at or after the window end, so shards can process their windows
//! independently and exchange the produced messages at the barrier
//! without ever violating causality.
//!
//! Messages travel through [`Outboxes`]: one `Vec<(to, M)>` per sending
//! shard, appended to only by the thread stepping that shard. After the
//! step barrier the coordinating thread drains the outboxes in sender
//! rank order and applies each message to its receiver, so an epoch costs
//! O(shards + messages) and needs two barriers: one that starts the steps
//! and one that ends them.
//!
//! Determinism: a shard's window execution depends only on its own state
//! plus mail applied at previous barriers, and every receiver sees its
//! mail in (sender rank, send order). Neither depends on which OS thread
//! stepped a shard, so `threads = 1` and `threads = N` produce identical
//! results. One loop serves every thread count: with `threads = 1` it
//! spawns no worker, and the caller's thread claims every shard in rank
//! order, steps it and delivers the mail.
//!
//! A panic in a step is caught on its thread, which still meets the
//! barrier; the loop then stops and the lowest-rank panicking shard's
//! payload is re-raised on the caller — the panic a `threads = 1` run
//! raises.

use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
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

/// Cross-shard mail: one outbox per sending shard, each a `(to, message)`
/// list in send order. The backing `Vec`s keep their capacity across
/// epochs, so steady-state mail traffic does not allocate.
#[derive(Debug)]
pub struct Outboxes<M> {
    boxes: Vec<Vec<(usize, M)>>,
}

impl<M> Outboxes<M> {
    /// Empty outboxes for `n` shards.
    pub fn new(n: usize) -> Outboxes<M> {
        Outboxes { boxes: (0..n).map(|_| Vec::new()).collect() }
    }

    /// Sender for shard `from`'s outbox. Used by sequential paths.
    pub fn sender(&mut self, from: usize) -> MailSender<'_, M> {
        MailSender(&mut self.boxes[from])
    }

    /// Drain shard `from`'s outbox in send order. Used after out-of-band
    /// injections, where only one shard can have produced mail.
    pub fn drain_row(&mut self, from: usize, mut f: impl FnMut(usize, M)) {
        for (to, m) in self.boxes[from].drain(..) {
            f(to, m);
        }
    }
}

/// Write window over one sending shard's outbox.
#[derive(Debug)]
pub struct MailSender<'a, M>(&'a mut Vec<(usize, M)>);

impl<M> MailSender<'_, M> {
    /// Queue `m` for shard `to`; it is applied when the epoch ends.
    pub fn send(&mut self, to: usize, m: M) {
        self.0.push((to, m));
    }
}

/// Apply every queued message to its receiver: senders in rank order,
/// each sender's mail in send order, so each receiver sees its mail in
/// (sender rank, send order). Every epoch ends here, on the coordinating
/// thread, and the order is part of the determinism argument.
fn deliver<S, M>(shards: &mut [S], outboxes: &mut [Vec<(usize, M)>], drain: &impl Fn(&mut S, M)) {
    for out in outboxes {
        for (to, m) in out.drain(..) {
            drain(&mut shards[to], m);
        }
    }
}

/// Shared view of a slice for the scoped workers. Index `i` is claimed by
/// exactly one thread per epoch via a [`Cursor`], and the coordinating
/// thread takes the whole slice only while every worker is parked at a
/// barrier, so every `&mut` handed out is unique.
struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _life: PhantomData<&'a mut [T]>,
}

// SAFETY: access is partitioned by the claim cursor and the barriers, as
// argued above; `T: Send` because items are mutated from whichever thread
// claims them.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    fn new(items: &'a mut [T]) -> SharedSlice<'a, T> {
        SharedSlice { ptr: items.as_mut_ptr(), len: items.len(), _life: PhantomData }
    }

    /// # Safety
    /// Caller must hold the exclusive cursor claim on index `i`.
    #[allow(clippy::mut_from_ref)]
    // SAFETY: exclusivity is the caller's obligation, stated above.
    unsafe fn claim(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        &mut *self.ptr.add(i)
    }

    /// # Safety
    /// Caller must be the coordinating thread, with every worker parked at
    /// a barrier and no claimed reference alive.
    #[allow(clippy::mut_from_ref)]
    // SAFETY: exclusivity is the caller's obligation, stated above.
    unsafe fn all(&self) -> &mut [T] {
        std::slice::from_raw_parts_mut(self.ptr, self.len)
    }
}

/// A caught step panic and the rank of the shard that raised it.
type Caught = (usize, Box<dyn Any + Send>);

/// Keep the lowest-rank shard's panic, so the payload re-raised on the
/// caller does not depend on which thread stepped which shard.
fn keep_lowest(slot: &mut Option<Caught>, c: Caught) {
    if slot.as_ref().is_none_or(|(rank, _)| c.0 < *rank) {
        *slot = Some(c);
    }
}

/// Dismisses the parked workers when the coordinating thread leaves the
/// epoch loop — at the end of the run, after a step panic, or while
/// unwinding from a panic in `next_time` or `drain` — so the scope never
/// joins a worker that is still waiting at a barrier.
struct Dismiss<'a> {
    done: &'a AtomicBool,
    start_gate: &'a Barrier,
}

impl Drop for Dismiss<'_> {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
        self.start_gate.wait();
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

/// The next epoch's window end, or `None` once no shard has an event at
/// or before the target.
fn next_window<S>(
    shards: &[S],
    next_time: &impl Fn(&S) -> Option<SimTime>,
    plan: &EpochPlan,
) -> Option<SimTime> {
    let m = shards.iter().filter_map(next_time).min().filter(|&m| m <= plan.target)?;
    let cap = plan.target.saturating_add(SimDuration::from_us(1));
    Some(m.saturating_add(plan.lookahead).min(cap))
}

/// Run shards to `plan.target` in conservative-lookahead epochs.
///
/// Hooks:
/// * `next_time(&shard)` — earliest pending event, if any;
/// * `step(rank, &mut shard, window_end, sender)` — process every event
///   strictly before `window_end`, emitting cross-shard messages through
///   `sender`;
/// * `drain(&mut receiver, message)` — apply one inbound message; called
///   on the caller's thread, in (sender rank, send order).
///
/// The loop ends when no shard has an event at or before `plan.target`;
/// since every epoch delivers all mail, none is pending at exit. The
/// number of executed epochs is returned (observability + tests). A
/// panicking step stops the loop and is re-raised here (see the module
/// docs).
pub fn run_epochs<S, M, FNext, FStep, FDrain>(
    shards: &mut [S],
    mail: &mut Outboxes<M>,
    plan: EpochPlan,
    next_time: FNext,
    step: FStep,
    drain: FDrain,
) -> u64
where
    S: Send,
    M: Send,
    FNext: Fn(&S) -> Option<SimTime>,
    FStep: Fn(usize, &mut S, SimTime, MailSender<'_, M>) + Sync,
    FDrain: Fn(&mut S, M),
{
    assert_eq!(mail.boxes.len(), shards.len(), "outboxes sized for a different shard count");
    let n = shards.len();
    let threads = plan.threads.clamp(1, n.max(1));
    if n > 1 {
        assert!(!plan.lookahead.is_zero(), "multi-shard worlds need non-zero lookahead");
    }
    let mut epochs = 0u64;

    let slots = SharedSlice::new(shards);
    let outs = SharedSlice::new(&mut mail.boxes);
    let cursor = Cursor::new();
    // The window end travels to workers as raw microseconds; `done` tells
    // them to exit and `failed` tells the coordinator a step panicked.
    // All are published before a barrier release, which is the
    // happens-before edge (orderings can stay relaxed).
    let window_us = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let failed = AtomicBool::new(false);
    let start_gate = Barrier::new(threads);
    let end_gate = Barrier::new(threads);

    let step_claimed = |wend: SimTime, caught: &mut Option<Caught>| {
        let mut rank = n;
        let stepped = catch_unwind(AssertUnwindSafe(|| loop {
            rank = cursor.next();
            if rank >= n {
                break;
            }
            // SAFETY: the cursor hands `rank` to exactly one thread per
            // epoch, and shard `rank`'s outbox goes with its claim.
            unsafe { step(rank, slots.claim(rank), wend, MailSender(outs.claim(rank))) };
        }));
        if let Err(payload) = stepped {
            failed.store(true, Ordering::Relaxed);
            keep_lowest(caught, (rank, payload));
        }
        end_gate.wait();
    };

    let mut caught = None;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut caught = None;
                    loop {
                        start_gate.wait();
                        if done.load(Ordering::Relaxed) {
                            return caught;
                        }
                        step_claimed(
                            SimTime::from_us(window_us.load(Ordering::Relaxed)),
                            &mut caught,
                        );
                    }
                })
            })
            .collect();
        {
            let _dismiss = Dismiss { done: &done, start_gate: &start_gate };
            // Outside `step_claimed` every worker is parked at
            // `start_gate`, so the coordinating thread has every shard and
            // outbox to itself.
            // SAFETY: exclusive access while the workers are parked.
            while let Some(wend) = next_window(unsafe { slots.all() }, &next_time, &plan) {
                window_us.store(wend.as_us(), Ordering::Relaxed);
                cursor.reset();
                start_gate.wait();
                step_claimed(wend, &mut caught);
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                // SAFETY: every worker has passed `end_gate` and claims
                // nothing until the next `start_gate`.
                unsafe { deliver(slots.all(), outs.all(), &drain) };
                epochs += 1;
            }
        }
        for w in workers {
            if let Some(c) = w.join().unwrap_or_else(|p| resume_unwind(p)) {
                keep_lowest(&mut caught, c);
            }
        }
    });
    if let Some((_, payload)) = caught {
        resume_unwind(payload);
    }
    epochs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

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

        fn next_time(&self) -> Option<SimTime> {
            self.pending.first().map(|&(t, _)| SimTime::from_us(t))
        }

        /// Pop and log every token strictly before `wend`.
        fn pop_before(&mut self, wend: SimTime, mut on: impl FnMut(u64, u32)) {
            while let Some(&(t, hops)) = self.pending.first() {
                if t >= wend.as_us() {
                    break;
                }
                self.pending.remove(0);
                self.log.push((t, hops));
                on(t, hops);
            }
        }
    }

    const L: u64 = 7;

    fn plan(threads: usize) -> EpochPlan {
        EpochPlan { threads, target: SimTime::from_us(10_000), lookahead: SimDuration::from_us(L) }
    }

    fn run_toy(n: usize, threads: usize) -> (Vec<Vec<(u64, u32)>>, u64) {
        let mut shards: Vec<Toy> = (0..n).map(|_| Toy::default()).collect();
        for (i, s) in shards.iter_mut().enumerate() {
            s.push(i as u64 * 3, 20 + i as u32);
        }
        let epochs = run_epochs(
            &mut shards,
            &mut Outboxes::new(n),
            plan(threads),
            Toy::next_time,
            |r, s, wend, mut tx| {
                s.pop_before(wend, |t, hops| {
                    if hops > 0 {
                        tx.send((r + 1) % n, (t + L, hops - 1));
                    }
                });
            },
            |s, (t, hops)| s.push(t, hops),
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
    fn receivers_apply_mail_in_sender_rank_then_send_order() {
        // Every shard but 0 sends three same-time messages to shard 0 in
        // one epoch; shard 0 logs them as they are applied. The log must
        // not depend on which thread stepped which sender, or when.
        const N: usize = 8;
        let expected: Vec<(u64, u32)> =
            (1..N as u64).flat_map(|r| (0..3).map(move |k| (r, k))).collect();
        for threads in [1, 2, 4, 8] {
            let mut shards: Vec<Toy> = (0..N).map(|_| Toy::default()).collect();
            for s in &mut shards[1..] {
                s.push(0, 0);
            }
            run_epochs(
                &mut shards,
                &mut Outboxes::new(N),
                plan(threads),
                Toy::next_time,
                |r, s, wend, mut tx| {
                    s.pop_before(wend, |_, _| {
                        for k in 0..3 {
                            tx.send(0, (r as u64, k));
                        }
                    });
                },
                |s, m| s.log.push(m),
            );
            assert_eq!(shards[0].log, expected, "threads={threads}");
        }
    }

    /// Run `f` on a helper thread and fail, instead of hanging the suite,
    /// if it does not return within 30 s.
    fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(30)).expect("run_epochs hung")
    }

    /// The message of the panic `run_epochs` propagates when the shards in
    /// `panicking` panic in their second epoch's step or, with `in_drain`,
    /// when the first message is applied.
    fn panic_message(threads: usize, panicking: &'static [usize], in_drain: bool) -> String {
        within_watchdog(move || {
            let mut shards: Vec<Toy> = (0..4).map(|_| Toy::default()).collect();
            for s in &mut shards {
                s.push(0, 0);
                s.push(L, 0);
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_epochs(
                    &mut shards,
                    &mut Outboxes::new(4),
                    plan(threads),
                    Toy::next_time,
                    |r, s, wend, mut tx| {
                        s.pop_before(wend, |t, _| {
                            if t == L && panicking.contains(&r) {
                                panic!("shard {r} failed");
                            }
                            tx.send(0, r);
                        });
                    },
                    |_s, from| {
                        if in_drain {
                            panic!("mail from shard {from} failed");
                        }
                    },
                )
            }));
            let payload = result.expect_err("the panic must propagate");
            payload.downcast_ref::<String>().cloned().expect("panic!(fmt) payload is a String")
        })
    }

    #[test]
    fn panics_propagate_at_every_thread_count() {
        for t in [1, 2, 4] {
            assert_eq!(panic_message(t, &[3], false), "shard 3 failed", "threads={t}");
            assert_eq!(panic_message(t, &[3, 1], false), "shard 1 failed", "threads={t}");
            assert_eq!(panic_message(t, &[], true), "mail from shard 0 failed", "threads={t}");
        }
    }

    #[test]
    fn cursor_hands_out_each_index_once_and_resets() {
        let c = Cursor::new();
        assert_eq!((c.next(), c.next(), c.next()), (0, 1, 2));
        c.reset();
        assert_eq!(c.next(), 0);
    }

    #[test]
    fn drain_row_yields_one_senders_mail_in_send_order() {
        let mut mail: Outboxes<u32> = Outboxes::new(3);
        mail.sender(1).send(2, 12);
        mail.sender(1).send(0, 10);
        mail.sender(0).send(2, 2);
        let mut seen = Vec::new();
        mail.drain_row(1, |to, m| seen.push((to, m)));
        assert_eq!(seen, vec![(2, 12), (0, 10)]);
        let mut rest = Vec::new();
        mail.drain_row(1, |to, m| rest.push((to, m)));
        mail.drain_row(0, |to, m| rest.push((to, m)));
        assert_eq!(rest, vec![(2, 2)]);
    }
}
