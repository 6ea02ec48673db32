//! A work-stealing-free worker pool for the outer axes of the experiment
//! grid.
//!
//! Every parallel surface in this crate — blocking trials, load sweeps,
//! faulted trials, replicated dynamic runs and sharded trials — shares the
//! same execution shape:
//!
//! * `tasks` independent units of work, each a **pure function of its
//!   index** (the `(seed, trial)` / `(seed, replica)` RNG-stream convention
//!   makes trial `i` independent of which worker runs it and of whatever ran
//!   before it on that worker);
//! * a fixed set of scoped worker threads pulling the next index from one
//!   shared atomic cursor (no stealing, no channels, no new dependencies);
//! * results written into an index-addressed slot table and handed back in
//!   task order, so the caller's sequential reduction — Welford merges,
//!   table rows — is bit-identical for any thread count.
//!
//! The atomic cursor makes the *assignment* of tasks to workers dynamic
//! (good load balance when task costs vary, as they do across arrival
//! rates), while the slot table makes the *output* order static. Determinism
//! therefore never depends on scheduling luck.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Run `tasks` index-addressed work items on up to `threads` scoped workers,
/// giving each worker its own state built by `make_state` (a scheduling
/// scratch, usually). Returns the results in task order.
///
/// `run` must be a pure function of `(state, index)` up to the state's
/// warm-cache contents — i.e. the returned value must not depend on which
/// worker ran it or what that worker ran before. All callers in this crate
/// guarantee that via the seeded-stream convention, and the thread-count
/// invariance tests pin it.
///
/// With `threads <= 1` (or fewer than two tasks) everything runs inline on
/// the caller's thread with a single state — byte-for-byte the serial loop.
pub fn run_indexed_with<S, T, FS, F>(tasks: usize, threads: usize, make_state: FS, run: F) -> Vec<T>
where
    T: Send + Sync,
    FS: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = threads.max(1).min(tasks.max(1));
    if workers <= 1 {
        let mut state = make_state();
        return (0..tasks).map(|i| run(&mut state, i)).collect();
    }
    let slots: Vec<OnceLock<T>> = (0..tasks).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = make_state();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks {
                        break;
                    }
                    let value = run(&mut state, i);
                    let set = slots[i].set(value);
                    debug_assert!(set.is_ok(), "cursor hands out each index once");
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every task ran"))
        .collect()
}

/// Whether the slot table for `tasks` results of type `T` can be
/// allocated. The probe allocation is released at once.
pub fn table_fits<T>(tasks: usize) -> bool {
    Vec::<OnceLock<T>>::new().try_reserve_exact(tasks).is_ok()
}

/// [`run_indexed_with`] for stateless tasks.
pub fn run_indexed<T, F>(tasks: usize, threads: usize, run: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(tasks, threads, || (), |_, i| run(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1, 2, 3, 8, 33] {
            let out = run_indexed(100, threads, |i| i * i);
            assert_eq!(out.len(), 100);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
        }
    }

    #[test]
    fn zero_and_single_task_edges() {
        assert!(run_indexed(0, 8, |i| i).is_empty());
        assert_eq!(run_indexed(1, 8, |i| i + 7), vec![7]);
    }

    #[test]
    fn per_worker_state_is_created_at_most_once_per_worker() {
        let created = AtomicUsize::new(0);
        let out = run_indexed_with(
            64,
            4,
            || {
                created.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |state, i| {
                *state += 1;
                i
            },
        );
        assert_eq!(out.len(), 64);
        // One state per spawned worker (4), or 1 on the serial path.
        let n = created.load(Ordering::Relaxed);
        assert!(n <= 4, "created {n} states for 4 workers");
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let hits = (0..257).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        run_indexed(257, 5, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
