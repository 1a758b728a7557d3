//! Deterministic fork-join helper shared by the parallel phases of the
//! planning stack: the stage-graph builder's block-parallel expansion (this
//! crate), and — one layer up, in `dip-core` — the root-parallel ordering
//! search, the per-rank memory-ILP solves and the session's batch-planning
//! pool.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

/// Runs `f(0) .. f(n - 1)` on up to `threads` scoped worker threads and
/// returns the results **in index order**. The index → thread assignment
/// is work-stealing (an atomic queue) and deliberately irrelevant to the
/// output: callers pass pure functions of the index, so the returned
/// vector is identical no matter which thread ran which task. With one
/// effective thread (or one task) everything runs inline, no threads
/// spawned.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn parallel_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let index = next.fetch_add(1, AtomicOrdering::Relaxed);
                if index >= n {
                    break;
                }
                *slots[index].lock() = Some(f(index));
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
        let square = |i: usize| i * i;
        let expected: Vec<usize> = (0..37).map(square).collect();
        for threads in [1usize, 2, 5, 64] {
            assert_eq!(parallel_map_indexed(37, threads, square), expected);
        }
        assert_eq!(parallel_map_indexed(0, 4, square), Vec::<usize>::new());
        assert_eq!(parallel_map_indexed(1, 4, square), vec![0]);
    }
}
