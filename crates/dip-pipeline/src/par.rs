//! Deterministic fork-join helper shared by the parallel phases of the
//! planning stack, all one layer up in `dip-core`: the root-parallel
//! ordering search (one evaluation context per worker thread), the
//! per-rank memory-ILP solves and the session's batch-planning pool.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

/// Runs `f(state, 0) .. f(state, n - 1)` on up to `threads` scoped worker
/// threads and returns the results **in index order**. Each thread builds
/// one `state` with `init` and hands it to every task it runs, so a caller
/// keeps per-thread scratch (the ordering search's evaluation workspace)
/// across tasks; callers without any pass `|| ()`. The index → thread
/// assignment is work-stealing (an atomic queue) and deliberately
/// irrelevant to the output: callers pass pure functions of the index whose
/// results do not depend on what an earlier task left in the state, so the
/// returned vector is identical no matter which thread ran which task.
/// With one effective thread (or one task) everything runs inline on one
/// state, no threads spawned.
///
/// # Panics
///
/// Propagates a panic from `init` or `f` (the scope joins all workers
/// first).
pub fn parallel_map_indexed<S, T, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n <= 1 {
        let mut state = init();
        return (0..n).map(|index| f(&mut state, index)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| {
                let mut state = init();
                loop {
                    let index = next.fetch_add(1, AtomicOrdering::Relaxed);
                    if index >= n {
                        break;
                    }
                    *slots[index].lock() = Some(f(&mut state, index));
                }
            });
        }
    })
    .expect("parallel worker panicked");
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index reports a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order_at_any_thread_count() {
        let square = |_: &mut (), i: usize| i * i;
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [1usize, 2, 5, 64] {
            assert_eq!(parallel_map_indexed(37, threads, || (), square), expected);
        }
        assert_eq!(
            parallel_map_indexed(0, 4, || (), square),
            Vec::<usize>::new()
        );
        assert_eq!(parallel_map_indexed(1, 4, || (), square), vec![0]);
    }

    #[test]
    fn each_thread_builds_one_state_for_every_task_it_runs() {
        let inits = AtomicUsize::new(0);
        for threads in [1usize, 3] {
            inits.store(0, AtomicOrdering::Relaxed);
            // Each task returns how many tasks its state had seen before.
            let seen = parallel_map_indexed(
                20,
                threads,
                || {
                    inits.fetch_add(1, AtomicOrdering::Relaxed);
                    0usize
                },
                |state, _| {
                    *state += 1;
                    *state - 1
                },
            );
            let states = inits.load(AtomicOrdering::Relaxed);
            assert!((1..=threads).contains(&states), "{threads} threads");
            // Each state that ran a task saw zero tasks before its first.
            let used = seen.iter().filter(|&&s| s == 0).count();
            assert!((1..=states).contains(&used), "{threads} threads");
            if threads == 1 {
                assert_eq!(seen, (0..20).collect::<Vec<_>>());
            }
        }
    }
}
