//! The workspace's one worker pool: an index-ordered, claim-by-counter
//! scoped pool.
//!
//! [`run_indexed`] runs `work(i, arena)` for every `i in 0..items`.
//! Workers claim the next unclaimed index from an atomic counter (cheap
//! load balancing when items vary in cost) and store each result in the
//! slot of its index, so the returned outputs are in index order whatever
//! the worker count or completion order. When `work` is a pure function
//! of its index, the output is therefore bit-identical for every worker
//! count.
//!
//! Both multi-threaded stages of the pipeline run on it: the dualization
//! kernel's work units ([`crate::Dualizer::build`]) and the multi-start
//! engine in `fhp_core::runner`, which adds per-start panic containment
//! and tracing on top.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Runs `work(i, arena)` for every `i in 0..items` across up to `workers`
/// scoped threads and returns the outputs **in index order**, plus every
/// arena the run created.
///
/// Each worker owns one arena `A`, built lazily by `make_arena` when it
/// claims its first index and handed by `&mut` to every item it runs
/// afterwards, so a worker that claims nothing builds no arena. With
/// `workers <= 1` (or at most one item) everything runs inline on the
/// caller's thread with a single arena. `workers` is clamped to
/// `1..=items`, so excess workers cost nothing.
///
/// The pool is poison-tolerant: a result store never fails because
/// another worker panicked while holding a lock. A panic inside `work`
/// itself is not contained — it propagates out of the scope; callers
/// that must survive one (the multi-start engine) catch it inside `work`.
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::pool::run_indexed;
///
/// let (squares, arenas) = run_indexed(8, 3, Vec::new, |i, seen: &mut Vec<usize>| {
///     seen.push(i);
///     i * i
/// });
/// assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36, 49]);
/// assert_eq!(arenas.iter().map(Vec::len).sum::<usize>(), 8);
/// ```
pub fn run_indexed<T, A, M, F>(
    items: usize,
    workers: usize,
    make_arena: M,
    work: F,
) -> (Vec<T>, Vec<A>)
where
    T: Send,
    A: Send,
    M: Fn() -> A + Sync,
    F: Fn(usize, &mut A) -> T + Sync,
{
    let workers = workers.clamp(1, items.max(1));
    if workers == 1 {
        let mut arena = None;
        let out = (0..items)
            .map(|i| work(i, arena.get_or_insert_with(&make_arena)))
            .collect();
        return (out, arena.into_iter().collect());
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..items).map(|_| None).collect());
    let arenas: Mutex<Vec<A>> = Mutex::new(Vec::with_capacity(workers));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut arena = None;
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed); // fhp-audit: allow(atomic-ordering) — claim-by-counter: fetch_add is the only use; claim order never reaches the index-ordered output
                    if index >= items {
                        break;
                    }
                    let out = work(index, arena.get_or_insert_with(&make_arena));
                    if let Some(slot) = lock(&slots).get_mut(index) {
                        *slot = Some(out);
                    }
                }
                if let Some(arena) = arena {
                    lock(&arenas).push(arena);
                }
            });
        }
    });
    let out = slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        // fhp-audit: allow(panic-site) — the claim loop covers 0..items exactly once; a hole is a pool bug worth a loud stop
        .map(|slot| slot.expect("every index was claimed exactly once"))
        .collect();
    let arenas = arenas.into_inner().unwrap_or_else(PoisonError::into_inner);
    (out, arenas)
}

/// Locks `m`, ignoring poison: a poisoned lock means another worker died
/// mid-store, and the values already stored are still good.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_arrive_in_index_order_for_any_worker_count() {
        for workers in [0, 1, 2, 3, 8, 64] {
            let (out, _) = run_indexed(23, workers, || (), |i, ()| 100 - i);
            let expect: Vec<usize> = (0..23).map(|i| 100 - i).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn zero_items_run_nothing_and_build_no_arena() {
        for workers in [1, 8] {
            let (out, arenas) = run_indexed(0, workers, Vec::<usize>::new, |i, _| i);
            assert!(out.is_empty());
            assert!(arenas.is_empty(), "workers={workers}");
        }
    }

    #[test]
    fn excess_workers_are_clamped_to_the_item_count() {
        let (out, arenas) = run_indexed(1, 8, Vec::new, |i, seen: &mut Vec<usize>| {
            seen.push(i);
            i + 1
        });
        assert_eq!(out, [1]);
        assert_eq!(arenas, [vec![0]]);
        let (out, arenas) = run_indexed(3, 64, || (), |i, ()| i);
        assert_eq!(out, [0, 1, 2]);
        assert!(arenas.len() <= 3);
    }

    #[test]
    fn one_arena_per_claiming_worker() {
        for workers in [1, 2, 4] {
            let (out, arenas) = run_indexed(16, workers, Vec::new, |i, seen: &mut Vec<usize>| {
                seen.push(i);
                i * 2
            });
            assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
            assert!(
                !arenas.is_empty() && arenas.len() <= workers,
                "{}",
                arenas.len()
            );
            // every arena was claimed into, and every item ran on exactly
            // one arena exactly once
            assert!(arenas.iter().all(|a| !a.is_empty()));
            let mut all: Vec<usize> = arenas.concat();
            all.sort_unstable();
            assert_eq!(all, (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn single_worker_runs_inline_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let (same, _) = run_indexed(4, 1, || (), |_, ()| std::thread::current().id() == caller);
        assert!(same.iter().all(|&s| s));
    }
}
