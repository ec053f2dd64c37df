//! The deterministic parallel start engine behind [`Algorithm1`]'s
//! multi-start loop.
//!
//! [`Algorithm1`]: crate::Algorithm1
//!
//! The paper runs Algorithm I over 50 random longest BFS paths and keeps
//! the best cut. Those starts are independent — the intersection graph is
//! built once and only read — which makes the loop the natural place to
//! put every core the machine has. The engine here fans a `starts`-sized
//! index space over a scoped worker pool and guarantees the final answer
//! is **bit-identical for every worker count**, by construction:
//!
//! 1. **Counter-derived RNG streams.** Start `i` draws from its own
//!    [`SplitMix64`] seeded with `seed ⊕ i`, so what a start explores
//!    depends only on `(seed, i)` — never on which worker ran it, or on
//!    how many other starts ran before it. (The previous implementation
//!    threaded a single sequential RNG through the loop, which made start
//!    `i`'s draws depend on all earlier starts and would have ordered the
//!    whole loop.)
//! 2. **Dynamic claiming, ordered records.** Workers claim the next
//!    unclaimed start index from an atomic counter (cheap load balancing
//!    — starts vary in cost) and store each record in the slot of its
//!    index, so the records come back in index order whatever the worker
//!    count or completion order. Algorithm I ranks its candidates by a
//!    key that ends in the start index, so its winner does not depend on
//!    the schedule either.
//! 3. **Panic containment.** Each start runs under
//!    [`std::panic::catch_unwind`]; a poisoned start becomes a recorded
//!    error in its [`StartRecord`] instead of tearing down the run (or
//!    the process — a panic crossing a [`std::thread::scope`] join would
//!    otherwise propagate).
//!
//! One [`run_starts_arena`] call is one pass over the start indices, on
//! arenas the caller builds once per worker. Algorithm I runs three
//! passes over the same arenas — draw every `u`, then every `v`, then
//! sweep every distinct path — and reads each pass's records before the
//! next starts, so what one start learns of another is fixed by the
//! indices alone.
//!
//! The engine is generic over the per-start work so the containment and
//! determinism machinery can be tested in isolation from the partitioner.
//! It is the workspace's one worker pool: it spawns, feeds and joins its
//! own scoped threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
// fhp-audit: allow(wallclock-in-fingerprint) — wall time is diagnostic only (StartRecord.wall), never part of fingerprints or canonical traces
use std::time::{Duration, Instant};

use fhp_obs::{names, order, Collector, Scope, ScopeEvents};
use rand::RngCore;

/// SplitMix64 (Steele, Lea & Flood 2014): the engine's per-start
/// generator. One 64-bit add plus a three-stage finalizer per draw; any
/// two distinct seeds give independent-looking streams, which is exactly
/// what counter-derived seeding needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The stream for start `index` of a run seeded with `seed`.
    pub fn for_start(seed: u64, index: usize) -> Self {
        Self::new(seed ^ index as u64)
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What one start produced: its wall-clock cost on whichever worker ran
/// it, its value — or the panic message if it was contained — and
/// everything the start recorded into its tracing scope. A record's
/// start index is its position in the returned records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StartRecord<T> {
    /// Wall-clock time this start took.
    pub wall: Duration,
    /// The start's value, or the contained panic's message.
    pub outcome: Result<T, String>,
    /// The start's finished tracing scope (a `runner.start` root span
    /// plus whatever the work recorded). The caller decides whether to
    /// read it, hand it to a [`Collector`], or drop it.
    pub events: ScopeEvents,
}

/// The multi-start engine: runs `work` for every start in `0..starts` and
/// returns the records in index order. The caller builds the arenas: one
/// worker runs per arena, up to `starts` of them, and hands its arena by
/// `&mut` to every start it claims, so index-pure per-start work can
/// execute with **zero heap allocation once the arena is warm**. A caller
/// that runs several passes over the starts passes the same arenas to
/// each; every pass starts the same `min(arenas.len(), starts)` workers,
/// and each keeps its warm arena across them. With one worker (one
/// arena, or at most one start) every start runs inline on the caller's
/// thread, on the first arena.
///
/// Workers claim start indices from an atomic counter and store each
/// record in the slot of its index. The engine joins every worker it
/// spawned before it returns: the scope's own wait ends when the
/// workers' closures return, while their threads may still be exiting,
/// and a caller that runs passes back to back would then overlap one
/// pass's exiting threads with the next pass's new ones — which makes the
/// standard library's per-thread bookkeeping allocate by timing.
///
/// Tracing is opt-in per run: a [`Scope`] keyed by `order::start(index)`
/// is created (and the `runner.start` root span recorded) only when
/// `collector` [is enabled](Collector::is_enabled) — recording into a
/// scope buffer allocates, which would defeat the arena. With a disabled
/// collector the work closure sees `None` and the records carry empty
/// [`ScopeEvents`]. Scope timestamps share `collector`'s epoch, but
/// nothing is adopted into it here — the caller owns that decision
/// (typically after reading the buffer for its phase facade). Per-start
/// scopes (rather than per-*worker* scopes) are what keep the merged
/// trace identical across worker counts: the event sequence is a pure
/// function of `(starts, work)`, and only the volatile `thread` field
/// betrays which worker ran what.
///
/// The determinism contract: `work` must be a pure function of its index
/// *given an arena in any prior state*, i.e. it must reset whatever arena
/// state it reads at entry (every scratch type in this workspace does).
/// Each start runs under [`std::panic::catch_unwind`], so a panic becomes
/// the record's error; the poisoned worker's arena is handed to its next
/// start as-is, which the reset-at-entry rule makes safe.
///
/// # Panics
///
/// Panics if `starts > 0` and `arenas` is empty.
///
/// # Examples
///
/// ```
/// use fhp_core::runner::run_starts_arena;
/// use fhp_obs::Collector;
///
/// let mut arenas = vec![Vec::new(); 2];
/// let records = run_starts_arena(
///     8,
///     &mut arenas,
///     &Collector::disabled(),
///     |i, scratch: &mut Vec<usize>, _scope| {
///         scratch.clear(); // reset-at-entry: correctness can't depend on reuse
///         scratch.extend(0..i);
///         scratch.len()
///     },
/// );
/// assert_eq!(records[5].outcome, Ok(5));
/// ```
pub fn run_starts_arena<T, A, F>(
    starts: usize,
    arenas: &mut [A],
    collector: &Collector,
    work: F,
) -> Vec<StartRecord<T>>
where
    T: Send,
    A: Send,
    F: Fn(usize, &mut A, Option<&Scope>) -> T + Sync,
{
    assert!(starts == 0 || !arenas.is_empty(), "no arena to run on");
    let traced = collector.is_enabled();
    let run = |index: usize, arena: &mut A| {
        let scope = traced.then(|| collector.scope(order::start(index), Some(index as u32))); // fhp-audit: allow(as-cast-truncation) — start index bounded by the start count, well below u32::MAX
                                                                                              // fhp-audit: allow(wallclock-in-fingerprint) — times the volatile wall field only
        let started = Instant::now();
        let outcome = {
            let _root = scope.as_ref().map(|s| s.span(names::RUNNER_START));
            // A panic unwinds the work's open span guards before being
            // caught, so the scope's stack is consistent either way.
            catch_unwind(AssertUnwindSafe(|| work(index, arena, scope.as_ref())))
                .map_err(panic_message)
        };
        StartRecord {
            wall: started.elapsed(),
            outcome,
            events: scope.map(|s| s.finish()).unwrap_or_default(),
        }
    };
    let workers = arenas.len().min(starts);
    if workers <= 1 {
        let Some(arena) = arenas.first_mut() else {
            return Vec::new();
        };
        return (0..starts).map(|index| run(index, arena)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<StartRecord<T>>>> = Mutex::new((0..starts).map(|_| None).collect());
    let (next, slots_ref, run) = (&next, &slots, &run);
    std::thread::scope(|threads| {
        let handles: Vec<_> = arenas
            .iter_mut()
            .take(workers)
            .map(|arena| {
                threads.spawn(move || loop {
                    let index = next.fetch_add(1, Ordering::Relaxed); // fhp-audit: allow(atomic-ordering) — claim-by-counter: fetch_add is the only use; claim order never reaches the index-ordered records
                    if index >= starts {
                        break;
                    }
                    let record = run(index, arena);
                    let mut slots = slots_ref.lock().unwrap_or_else(PoisonError::into_inner);
                    if let Some(slot) = slots.get_mut(index) {
                        *slot = Some(record);
                    }
                })
            })
            .collect();
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
        // fhp-audit: allow(panic-site) — the claim loop covers 0..starts exactly once; a hole is an engine bug worth a loud stop
        .map(|slot| slot.expect("every start was claimed exactly once"))
        .collect()
}

/// Renders a contained panic payload as the record's error string.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "start panicked with a non-string payload".to_string()
    }
}

/// Resolves a configured thread count: `0` means one worker per
/// available core, anything else is taken literally.
pub fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        configured
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// [`run_starts_arena`] with unit arenas and no tracing.
    fn run_unit_arena<T: Send>(
        starts: usize,
        workers: usize,
        work: impl Fn(usize) -> T + Sync,
    ) -> Vec<StartRecord<T>> {
        let disabled = Collector::disabled();
        run_starts_arena(starts, &mut vec![(); workers], &disabled, |i, (), _| {
            work(i)
        })
    }

    /// [`run_starts_arena`] untraced on `arenas` that log every start
    /// they run, returning the outcomes.
    fn run_logged<T: Send>(
        starts: usize,
        arenas: &mut [Vec<usize>],
        work: impl Fn(usize) -> T + Sync,
    ) -> Vec<Result<T, String>> {
        run_starts_arena(starts, arenas, &Collector::disabled(), |i, seen, _| {
            seen.push(i);
            work(i)
        })
        .into_iter()
        .map(|r| r.outcome)
        .collect()
    }

    #[test]
    fn splitmix_streams_are_seed_functions() {
        let mut a = SplitMix64::for_start(42, 3);
        let mut b = SplitMix64::for_start(42, 3);
        let mut c = SplitMix64::for_start(42, 4);
        let draws_a: Vec<u64> = (0..32).map(|_| a.gen()).collect();
        let draws_b: Vec<u64> = (0..32).map(|_| b.gen()).collect();
        let draws_c: Vec<u64> = (0..32).map(|_| c.gen()).collect();
        assert_eq!(draws_a, draws_b);
        assert_ne!(draws_a, draws_c);
    }

    #[test]
    fn records_arrive_in_index_order_for_any_worker_count() {
        for workers in [1, 2, 3, 8, 64] {
            let records = run_unit_arena(23, workers, |i| 100 - i);
            let outcomes: Vec<_> = records.into_iter().map(|r| r.outcome).collect();
            let expect: Vec<_> = (0..23).map(|i| Ok(100 - i)).collect();
            assert_eq!(outcomes, expect, "workers={workers}");
        }
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let run = |workers| -> Vec<Result<u64, String>> {
            run_unit_arena(17, workers, |i| {
                let mut rng = SplitMix64::for_start(7, i);
                (0..50)
                    .map(|_| rng.gen::<u64>())
                    .fold(0u64, u64::wrapping_add)
            })
            .into_iter()
            .map(|r| r.outcome)
            .collect()
        };
        let sequential = run(1);
        assert_eq!(sequential, run(2));
        assert_eq!(sequential, run(8));
    }

    #[test]
    fn panics_are_contained_and_recorded() {
        let records = run_unit_arena(6, 3, |i| {
            assert!(i != 2 && i != 4, "start {i} poisoned");
            i
        });
        assert_eq!(records.len(), 6);
        for (i, r) in records.iter().enumerate() {
            match i {
                2 | 4 => {
                    let msg = r.outcome.as_ref().unwrap_err();
                    assert!(msg.contains("poisoned"), "message was {msg}");
                }
                _ => assert_eq!(r.outcome, Ok(i)),
            }
        }
    }

    #[test]
    fn zero_starts_run_nothing() {
        for workers in [0, 1, 8] {
            let mut arenas = vec![Vec::new(); workers];
            assert!(run_logged(0, &mut arenas, |i| i).is_empty());
            assert!(arenas.iter().all(Vec::is_empty), "workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "no arena")]
    fn starts_without_an_arena_panic() {
        run_unit_arena(1, 0, |i| i);
    }

    #[test]
    fn excess_arenas_stay_idle() {
        let mut arenas = vec![Vec::new(); 8];
        assert_eq!(run_logged(1, &mut arenas, |i| i + 1), [Ok(1)]);
        assert_eq!(arenas[0], [0]);
        assert!(arenas[1..].iter().all(Vec::is_empty));
    }

    #[test]
    fn every_start_runs_once_on_one_arena_and_arenas_stay_warm() {
        for workers in [1, 2, 4] {
            let mut arenas = vec![Vec::new(); workers];
            for pass in 1..=2 {
                let out = run_logged(16, &mut arenas, |i| i * 2);
                assert_eq!(out, (0..16).map(|i| Ok(i * 2)).collect::<Vec<_>>());
                // every start of every pass ran on exactly one arena, and
                // the arenas kept what the earlier pass left in them
                let mut all: Vec<usize> = arenas.concat();
                all.sort_unstable();
                let want: Vec<usize> = (0..16).flat_map(|i| vec![i; pass]).collect();
                assert_eq!(all, want, "workers={workers} pass={pass}");
            }
        }
    }

    #[test]
    fn one_worker_runs_inline_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let same = run_unit_arena(4, 1, |_| std::thread::current().id() == caller);
        assert!(same.iter().all(|r| r.outcome == Ok(true)));
    }

    #[test]
    fn arena_engine_runs_each_start_on_one_caller_arena() {
        let mut arenas = vec![Vec::new(); 4];
        let records = run_starts_arena(
            16,
            &mut arenas,
            &Collector::disabled(),
            |i, scratch: &mut Vec<usize>, scope| {
                assert!(scope.is_none(), "disabled collector must not build scopes");
                scratch.push(i);
                i * 2
            },
        );
        assert_eq!(records.len(), 16);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.outcome, Ok(i * 2));
            assert_eq!(r.events, ScopeEvents::default());
        }
        // every start touched exactly one arena exactly once
        let total: usize = arenas.iter().map(Vec::len).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn arena_engine_traces_when_collector_enabled() {
        let collector = Collector::enabled();
        let records = run_starts_arena(3, &mut [(), ()], &collector, |i, _arena, scope| {
            let scope = scope.expect("enabled collector must hand out scopes");
            scope.counter("probe", i as u64);
            i
        });
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.events.order, order::start(i));
            assert_eq!(r.events.start_index, Some(i as u32));
            // RUNNER_START root span + the probe counter
            assert_eq!(r.events.events.len(), 2);
        }
    }

    #[test]
    fn arena_engine_contains_panics_and_keeps_the_worker_alive() {
        let mut arenas = vec![Vec::new(); 2];
        let out = run_logged(8, &mut arenas, |i| {
            assert!(i != 3, "start {i} poisoned");
            i
        });
        for (i, outcome) in out.iter().enumerate() {
            match i {
                3 => assert!(outcome.as_ref().unwrap_err().contains("poisoned")),
                _ => assert_eq!(*outcome, Ok(i)),
            }
        }
        // the panicking start still ran on a caller's arena and the worker
        // went on to claim more work afterwards
        let total: usize = arenas.iter().map(Vec::len).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn resolve_threads_auto_and_literal() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
