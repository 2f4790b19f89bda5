//! Parallel parameter-sweep runner.
//!
//! Each simulation run is deterministic and single-threaded (a discrete-
//! event simulation must process events in global time order), so the
//! parallelism in this workspace is **across runs**: the experiment
//! harnesses fan configurations out over scoped worker threads that pull
//! jobs from a shared atomic cursor. Results come back in input order
//! regardless of completion order, so tables are reproducible.
//!
//! Result collection is lock-free: the atomic cursor hands each job index
//! to exactly one worker, so every result slot has a single writer and
//! workers never contend on a shared lock to publish results.

use std::cell::UnsafeCell;

use crate::shard::Cursor;

/// One result slot, written by exactly one worker.
///
/// The cursor's `fetch_add` hands each index to a single worker, so each
/// `UnsafeCell` has one writer for the lifetime of the scope; the main
/// thread only reads after `thread::scope` has joined every worker, which
/// provides the happens-before edge.
struct Slot<T>(UnsafeCell<Option<T>>);

// SAFETY: see the struct docs — per-index single writer, reads only after
// all workers have been joined.
unsafe impl<T: Send> Sync for Slot<T> {}

/// Run `f` over every config, using up to `threads` worker threads.
/// Results are returned in the same order as `configs`.
///
/// `threads == 0` or `1`, or a single config, runs inline on the caller
/// thread (useful under `cargo test` and for debugging).
pub fn parallel_sweep<C, R, F>(configs: Vec<C>, threads: usize, f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    let n = configs.len();
    let threads = threads.min(n);
    if threads <= 1 {
        return configs.iter().map(f).collect();
    }

    let cursor = Cursor::new();
    let slots: Vec<Slot<R>> = (0..n).map(|_| Slot(UnsafeCell::new(None))).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let cursor = &cursor;
            let slots = &slots;
            let f = &f;
            let configs = &configs;
            scope.spawn(move || loop {
                let idx = cursor.next();
                if idx >= n {
                    break;
                }
                let r = f(&configs[idx]);
                // SAFETY: `idx` came from the cursor's fetch_add, so this
                // worker is the only writer of `slots[idx]`; the main
                // thread reads only after the scope joins all workers.
                unsafe { *slots[idx].0.get() = Some(r) };
            });
        }
    });

    slots.into_iter().map(|s| s.0.into_inner().expect("every job produced a result")).collect()
}

/// Pick a default worker count: the available parallelism, capped so
/// sweeps don't oversubscribe small CI machines.
///
/// Thread count only changes how sweep jobs are scheduled onto workers,
/// never any simulated result (see the thread-count determinism tests).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_input_empty_output() {
        let out: Vec<u32> = parallel_sweep(Vec::<u32>::new(), 4, |c| *c);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_order() {
        let configs: Vec<u64> = (0..100).collect();
        let out = parallel_sweep(configs.clone(), 8, |c| c * 2);
        let expect: Vec<u64> = configs.iter().map(|c| c * 2).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn inline_path_matches_parallel_path() {
        let configs: Vec<u64> = (0..37).collect();
        let seq = parallel_sweep(configs.clone(), 1, |c| c * c + 1);
        let par = parallel_sweep(configs, 4, |c| c * c + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn all_jobs_execute_exactly_once() {
        let counter = AtomicUsize::new(0);
        let configs: Vec<usize> = (0..64).collect();
        let out = parallel_sweep(configs, 6, |c| {
            counter.fetch_add(1, Ordering::Relaxed);
            *c
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let out = parallel_sweep(vec![1, 2], 32, |c| c + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn results_survive_nontrivial_types() {
        // Heap-owning results exercise the slot handoff (drop correctness).
        let configs: Vec<usize> = (0..50).collect();
        let out = parallel_sweep(configs, 8, |c| vec![*c; 3]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v, &vec![i; 3]);
        }
    }
}
