//! Work-stealing worker pools over `std::thread::scope`.
//!
//! [`parallel_map`] runs a closure over a batch of items on up to N worker
//! threads pulling from a shared queue, and returns the results **in input
//! order**. Thread count and scheduling never affect the output, only the
//! wall clock — callers derive any randomness from per-item labels/indices
//! (see `simcore::rng::RngFactory`), never from shared mutable RNG state.
//! [`parallel_map_supervised`] adds bounded-restart supervision with
//! injected crashes for chaos runs.

use crate::fault::{injected_crash, FaultPlan};
use crate::supervise::{SuperviseStats, SupervisorConfig};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Resolve a requested worker count: `0` means "use the machine's
/// available parallelism" (falling back to 1 if that is unknown).
pub fn effective_jobs(requested: usize) -> usize {
    if requested == 0 {
        thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// Cut `0..len` into at most `jobs` contiguous shards of equal ceiling
/// size — the canonical batching the columnar join and sweep stages use.
/// Concatenating the ranges in order always reproduces `0..len`, so any
/// per-shard pass that appends its results in shard order is
/// byte-identical to the sequential pass. `jobs == 0` resolves to the
/// machine's parallelism; `len == 0` yields no shards.
pub fn shard_ranges(len: usize, jobs: usize) -> Vec<std::ops::Range<usize>> {
    let jobs = effective_jobs(jobs);
    if len == 0 {
        return Vec::new();
    }
    let shard_len = len.div_ceil(jobs);
    (0..len.div_ceil(shard_len)).map(|i| i * shard_len..((i + 1) * shard_len).min(len)).collect()
}

/// Apply `f` to every item on up to `jobs` worker threads and return the
/// results in input order.
///
/// Workers share a single queue (a locked enumerated iterator): a free
/// worker pops the next `(index, item)`, computes `f(index, item)`, and
/// tags the result with its index. After all workers finish the results
/// are sorted by index, so the returned `Vec` is byte-for-byte the same
/// whatever `jobs` is. `jobs <= 1` takes a plain sequential path with no
/// threads at all. A panic in `f` propagates to the caller once every
/// worker has stopped.
///
/// ```
/// use streamproc::pool::parallel_map;
///
/// let squares = parallel_map(4, (0u64..100).collect(), |_, x| x * x);
/// assert_eq!(squares, (0u64..100).map(|x| x * x).collect::<Vec<_>>());
/// ```
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let jobs = effective_jobs(jobs).min(items.len());
    // Out-of-band accounting (see the `obs` crate): everything here lives
    // in the `time.`/`sched.` namespaces excluded from determinism
    // comparisons — callers batch work differently per worker count (e.g.
    // per-`jobs` sharding), so even the task count is jobs-dependent.
    obs::counter("sched.pool.tasks").add(items.len() as u64);
    obs::gauge("sched.pool.jobs_max").record_max(jobs as u64);
    let task_ms = obs::histogram("time.pool.task_ms");
    if jobs <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let start = Instant::now();
                let r = f(i, t);
                task_ms.record(start.elapsed().as_millis() as u64);
                r
            })
            .collect();
    }
    let n = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    thread::scope(|scope| {
        for w in 0..jobs {
            let (queue, results, f) = (&queue, &results, &f);
            scope.spawn(move || {
                let mut busy = Duration::ZERO;
                loop {
                    // Pop under the lock, compute outside it.
                    let next = {
                        let mut q = queue.lock();
                        let depth = q.size_hint().0 as u64;
                        let next = q.next();
                        if next.is_some() {
                            obs::histogram("sched.pool.queue_depth").record(depth);
                            if w > 0 {
                                // Any pop by a non-primary worker is work
                                // that a single-threaded run would not
                                // have given away: count it as a steal.
                                obs::counter("sched.pool.steals").incr();
                            }
                        }
                        next
                    };
                    let Some((idx, item)) = next else { break };
                    let start = Instant::now();
                    let r = f(idx, item);
                    let elapsed = start.elapsed();
                    busy += elapsed;
                    task_ms.record(elapsed.as_millis() as u64);
                    results.lock().push((idx, r));
                }
                obs::histogram("time.pool.worker_busy_ms").record(busy.as_millis() as u64);
            });
        }
    });
    let mut tagged = results.into_inner();
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// [`parallel_map`] under supervision: each task runs in a bounded-restart
/// retry loop, with the plan's injected crashes (and any real panic in `f`)
/// caught, backed off exponentially, and retried. The task index — not the
/// worker thread — keys the crash schedule, so the set of injected faults
/// is independent of `jobs`, and because `f` is deterministic per item, the
/// returned `Vec` is byte-identical to `parallel_map`'s for any plan.
///
/// `f` borrows the item (unlike [`parallel_map`]) so a restarted attempt
/// can re-run it. The panic propagates once `cfg.max_restarts` is spent.
pub fn parallel_map_supervised<T, R, F>(
    jobs: usize,
    items: Vec<T>,
    plan: Option<&FaultPlan>,
    cfg: &SupervisorConfig,
    f: F,
) -> (Vec<R>, SuperviseStats)
where
    T: Send + Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let Some(&plan) = plan else {
        let out = parallel_map(jobs, items, |i, t| f(i, &t));
        return (out, SuperviseStats::default());
    };
    let restarts = AtomicU64::new(0);
    let backoff_ms = AtomicU64::new(0);
    let out = parallel_map(jobs, items, |i, t| {
        let planned = plan.planned_crashes(i as u64);
        let mut attempt: u32 = 0;
        loop {
            let r = catch_unwind(AssertUnwindSafe(|| {
                if attempt < planned {
                    obs::trace::emit(
                        obs::EventKind::FaultInjected,
                        "pool",
                        None,
                        None,
                        format!("crash task={i} attempt={attempt}"),
                        None,
                    );
                    injected_crash();
                }
                f(i, &t)
            }));
            match r {
                Ok(v) => return v,
                Err(e) => {
                    if attempt >= cfg.max_restarts {
                        std::panic::resume_unwind(e);
                    }
                    // The restart is the repair of an injected crash; a
                    // real panic being retried is a restart but not a
                    // repaired fault.
                    if e.downcast_ref::<crate::fault::InjectedCrash>().is_some() {
                        obs::counter("chaos.crashes_repaired").incr();
                        obs::counter("chaos.faults_repaired").incr();
                        obs::trace::emit(
                            obs::EventKind::FaultRepaired,
                            "pool",
                            None,
                            None,
                            format!("crash task={i} attempt={attempt}"),
                            None,
                        );
                    }
                    obs::counter("chaos.restarts").incr();
                    restarts.fetch_add(1, Ordering::Relaxed);
                    let backoff = (cfg.backoff_base_ms << attempt.min(16)).min(cfg.backoff_cap_ms);
                    obs::counter("chaos.backoff_ms").add(backoff);
                    backoff_ms.fetch_add(backoff, Ordering::Relaxed);
                    thread::sleep(Duration::from_millis(backoff));
                    attempt += 1;
                }
            }
        }
    });
    let stats = SuperviseStats {
        restarts: restarts.into_inner(),
        backoff_ms: backoff_ms.into_inner(),
        ..SuperviseStats::default()
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_tile_the_input() {
        for len in [0usize, 1, 2, 7, 100, 1001] {
            for jobs in [1usize, 2, 3, 8, 64] {
                let shards = shard_ranges(len, jobs);
                assert!(shards.len() <= jobs.max(1), "len={len} jobs={jobs}");
                let flat: Vec<usize> = shards.iter().cloned().flatten().collect();
                assert_eq!(flat, (0..len).collect::<Vec<_>>(), "len={len} jobs={jobs}");
                if let Some(first) = shards.first() {
                    // Equal ceiling-size shards except possibly the last.
                    for s in &shards[..shards.len() - 1] {
                        assert_eq!(s.len(), first.len());
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        for jobs in [0, 1, 2, 3, 8, 64] {
            let got = parallel_map(jobs, (0u64..500).collect(), |i, x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            let want: Vec<u64> = (0..500).map(|x| x * 3 + 1).collect();
            assert_eq!(got, want, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = parallel_map(8, Vec::<u32>::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map(8, vec![7u32], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_more_jobs_than_items() {
        let got = parallel_map(32, vec![1u32, 2, 3], |_, x| x * 10);
        assert_eq!(got, vec![10, 20, 30]);
    }

    #[test]
    fn parallel_map_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            parallel_map(4, (0u32..64).collect(), |_, x| {
                if x == 33 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        assert!(r.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn parallel_map_supervised_matches_plain_for_any_jobs() {
        use crate::fault::ChaosConfig;
        use simcore::rng::RngFactory;
        let plan = FaultPlan::new(&RngFactory::new(3), "pool-test", ChaosConfig::CALIBRATED);
        let cfg = SupervisorConfig { backoff_base_ms: 0, ..Default::default() };
        let want: Vec<u64> = (0..200u64).map(|x| x * 7 + 1).collect();
        let mut all_restarts = Vec::new();
        for jobs in [1, 2, 8] {
            let (got, stats) =
                parallel_map_supervised(jobs, (0..200u64).collect(), Some(&plan), &cfg, |_, x| {
                    x * 7 + 1
                });
            assert_eq!(got, want, "jobs={jobs}");
            all_restarts.push(stats.restarts);
        }
        assert!(all_restarts[0] > 0, "calibrated profile crashes some tasks");
        assert!(
            all_restarts.windows(2).all(|w| w[0] == w[1]),
            "injected crash schedule is independent of jobs: {all_restarts:?}"
        );
    }

    #[test]
    fn parallel_map_supervised_exhausted_budget_propagates() {
        use crate::fault::ChaosConfig;
        use simcore::rng::RngFactory;
        let plan = FaultPlan::new(&RngFactory::new(3), "pool-test", ChaosConfig::DISABLED);
        let cfg = SupervisorConfig { max_restarts: 1, backoff_base_ms: 0, ..Default::default() };
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_map_supervised(2, vec![1u32], Some(&plan), &cfg, |_, _| -> u32 {
                std::panic::resume_unwind(Box::new("real bug"))
            })
        }));
        assert!(r.is_err(), "real panics escape after the restart budget");
    }
}
