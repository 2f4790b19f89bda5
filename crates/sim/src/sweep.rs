//! Parallel parameter-sweep runner.
//!
//! Parallelism **across runs**: the experiment harnesses fan
//! configurations out over scoped worker threads that pull jobs from a
//! shared atomic cursor. (Within one run, a multi-cell world may also
//! step its shards on several threads, see [`crate::shard`]; every run
//! is deterministic, so neither thread count changes a result.) Results
//! come back in input order regardless of completion order, so tables
//! are reproducible.
//!
//! Result collection takes no lock and no shared slot: each worker keeps
//! the `(index, result)` pairs of the jobs the cursor handed it and
//! returns them through its join handle, and the caller puts every result
//! at its index.

use crate::shard::Cursor;

/// Run `f` over every config, using up to `threads` worker threads.
/// Results are returned in the same order as `configs`.
///
/// `threads` is clamped to `1..=configs.len()` (at least one worker, and
/// never more workers than jobs), so every thread count takes the one
/// worker path. A panicking job re-raises its panic on the caller.
pub fn parallel_sweep<C, R, F>(configs: Vec<C>, threads: usize, f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    let n = configs.len();
    let threads = threads.clamp(1, n.max(1));
    let cursor = Cursor::new();
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let idx = cursor.next();
                        if idx >= n {
                            break done;
                        }
                        done.push((idx, f(&configs[idx])));
                    }
                })
            })
            .collect();
        for worker in workers {
            let done = worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (idx, r) in done {
                results[idx] = Some(r);
            }
        }
    });

    results.into_iter().map(|r| r.expect("every job produced a result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_input_empty_output() {
        for threads in [0, 4] {
            let out: Vec<u32> = parallel_sweep(Vec::<u32>::new(), threads, |c| *c);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn preserves_order() {
        let configs: Vec<u64> = (0..100).collect();
        let out = parallel_sweep(configs.clone(), 8, |c| c * 2);
        let expect: Vec<u64> = configs.iter().map(|c| c * 2).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn every_thread_count_returns_every_result_in_input_order() {
        let configs: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = configs.iter().map(|c| c * c + 1).collect();
        // 0 clamps up to one worker, 64 down to one per job.
        for threads in [0, 1, 4, 64] {
            assert_eq!(
                parallel_sweep(configs.clone(), threads, |c| c * c + 1),
                expect,
                "{threads}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "job 3 failed")]
    fn a_panicking_job_reraises_on_the_caller() {
        parallel_sweep((0..8).collect(), 1, |&c: &u32| {
            assert!(c != 3, "job {c} failed");
            c
        });
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
