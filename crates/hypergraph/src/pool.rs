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
use std::sync::{Mutex, PoisonError};

/// Runs `work(i, arena)` for every `i in 0..items` and returns the
/// outputs **in index order**.
///
/// The caller owns the arenas: one worker runs per arena, up to `items`
/// of them, and hands its arena by `&mut` to every item it claims. A
/// caller that runs several passes over the same arenas therefore keeps
/// each worker's buffers warm across them, and every pass starts the same
/// `min(arenas.len(), items)` workers. With one worker (one arena, or at
/// most one item) everything runs inline on the caller's thread on the
/// first arena.
///
/// The pool is poison-tolerant: a result store never fails because
/// another worker panicked while holding the lock. A panic inside `work`
/// itself is not contained — it propagates out of the scope; callers
/// that must survive one (the multi-start engine) catch it inside `work`.
///
/// # Panics
///
/// Panics if `items > 0` and `arenas` is empty.
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::pool::run_indexed;
///
/// let mut arenas = vec![Vec::new(); 3];
/// let squares = run_indexed(8, &mut arenas, |i, seen: &mut Vec<usize>| {
///     seen.push(i);
///     i * i
/// });
/// assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36, 49]);
/// assert_eq!(arenas.iter().map(Vec::len).sum::<usize>(), 8);
/// ```
pub fn run_indexed<T, A, F>(items: usize, arenas: &mut [A], work: F) -> Vec<T>
where
    T: Send,
    A: Send,
    F: Fn(usize, &mut A) -> T + Sync,
{
    assert!(items == 0 || !arenas.is_empty(), "no arena to run on");
    let workers = arenas.len().min(items);
    if workers <= 1 {
        let Some(arena) = arenas.first_mut() else {
            return Vec::new();
        };
        return (0..items).map(|i| work(i, arena)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..items).map(|_| None).collect());
    let (next, slots_ref, work) = (&next, &slots, &work);
    std::thread::scope(|scope| {
        let handles: Vec<_> = arenas
            .iter_mut()
            .take(workers)
            .map(|arena| {
                scope.spawn(move || loop {
                    let index = next.fetch_add(1, Ordering::Relaxed); // fhp-audit: allow(atomic-ordering) — claim-by-counter: fetch_add is the only use; claim order never reaches the index-ordered output
                    if index >= items {
                        break;
                    }
                    let out = work(index, arena);
                    let mut slots = slots_ref.lock().unwrap_or_else(PoisonError::into_inner);
                    if let Some(slot) = slots.get_mut(index) {
                        *slot = Some(out);
                    }
                })
            })
            .collect();
        // Join every worker: the scope's own wait ends when the workers'
        // closures return, while their threads may still be exiting, and a
        // caller that runs passes back to back would then overlap one
        // pass's exiting threads with the next pass's new ones — which
        // makes the standard library's per-thread bookkeeping allocate by
        // timing.
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        // fhp-audit: allow(panic-site) — the claim loop covers 0..items exactly once; a hole is a pool bug worth a loud stop
        .map(|slot| slot.expect("every index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_arrive_in_index_order_for_any_worker_count() {
        for workers in [1, 2, 3, 8, 64] {
            let out = run_indexed(23, &mut vec![(); workers], |i, ()| 100 - i);
            let expect: Vec<usize> = (0..23).map(|i| 100 - i).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn zero_items_run_nothing() {
        for workers in [0, 1, 8] {
            let mut arenas = vec![Vec::<usize>::new(); workers];
            let out = run_indexed(0, &mut arenas, |i, _| i);
            assert!(out.is_empty());
            assert!(arenas.iter().all(Vec::is_empty), "workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "no arena")]
    fn items_without_an_arena_panic() {
        run_indexed(1, &mut Vec::<()>::new(), |i, ()| i);
    }

    #[test]
    fn excess_arenas_stay_idle() {
        let mut arenas = vec![Vec::new(); 8];
        let out = run_indexed(1, &mut arenas, |i, seen: &mut Vec<usize>| {
            seen.push(i);
            i + 1
        });
        assert_eq!(out, [1]);
        assert_eq!(arenas[0], [0]);
        assert!(arenas[1..].iter().all(Vec::is_empty));
    }

    #[test]
    fn every_item_runs_once_on_one_arena_and_arenas_stay_warm() {
        for workers in [1, 2, 4] {
            let mut arenas = vec![Vec::new(); workers];
            for pass in 1..=2 {
                let out = run_indexed(16, &mut arenas, |i, seen: &mut Vec<usize>| {
                    seen.push(i);
                    i * 2
                });
                assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
                // every item of every pass ran on exactly one arena, and
                // the arenas kept what the earlier pass left in them
                let mut all: Vec<usize> = arenas.concat();
                all.sort_unstable();
                let want: Vec<usize> = (0..16).flat_map(|i| vec![i; pass]).collect();
                assert_eq!(all, want, "workers={workers} pass={pass}");
            }
        }
    }

    #[test]
    fn single_worker_runs_inline_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let same = run_indexed(4, &mut [()], |_, ()| std::thread::current().id() == caller);
        assert!(same.iter().all(|&s| s));
    }
}
