//! The recording machinery: [`Collector`], [`Scope`], and the RAII
//! [`SpanGuard`].
//!
//! The design splits recording from merging so that both are cheap and
//! the merge is deterministic:
//!
//! - A [`Scope`] is a single-threaded event buffer owned by one unit of
//!   work (one multi-start attempt, one dualization, the CLI's run
//!   header). Recording into it is lock-free — a `Vec` push — and spans
//!   are measured with monotonic [`Instant`]s against the collector's
//!   epoch.
//! - A [`Collector`] is the shared sink. Scopes hand their whole buffer
//!   back once, at [`Scope::finish`]/[`Collector::adopt`] time (one short
//!   mutex lock per scope, never per event). A disabled collector drops
//!   adopted buffers on the floor, so the fast path of an untraced run
//!   is just the local buffering.
//! - [`Collector::snapshot`] merges the adopted buffers **in scope-order
//!   key order**, not adoption order. Callers assign each scope a
//!   deterministic key (see [`crate::order`]) — the same contract as
//!   `fhp_core::runner`'s index-ordered reduction — so the merged event
//!   sequence is identical for every thread count, even though workers
//!   adopt scopes in whatever order they finish.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{Counter, Event, EventKind, FieldValue};
use crate::Histogram;

static NEXT_THREAD_LANE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_LANE: u64 = NEXT_THREAD_LANE.fetch_add(1, Ordering::Relaxed); // fhp-audit: allow(atomic-ordering) — thread-lane allocator: unique ids are all that is needed; no synchronizes-with
}

/// Process-local lane id of the calling OS thread (first use wins a fresh
/// id). Stable within a thread, volatile across runs — used only for the
/// diagnostic `thread` event field.
fn thread_lane() -> u64 {
    THREAD_LANE.with(|t| *t)
}

/// A finished scope's buffer plus its deterministic merge key.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScopeEvents {
    /// Merge key (see [`crate::order`]); snapshot sorts by it.
    pub order: u64,
    /// Multi-start index the scope belonged to, if any.
    pub start_index: Option<u32>,
    /// The recorded events, in record order.
    pub events: Vec<Event>,
}

struct CollectorInner {
    enabled: bool,
    epoch: Instant,
    scopes: Mutex<Vec<ScopeEvents>>,
}

impl std::fmt::Debug for CollectorInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectorInner")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

/// The shared, clonable trace sink. See the [crate docs](crate).
///
/// # Examples
///
/// ```
/// use fhp_obs::{order, Collector};
///
/// let collector = Collector::enabled();
/// let scope = collector.scope(order::META, None);
/// {
///     let _span = scope.span("setup");
///     scope.counter("items", 3);
/// }
/// collector.adopt(scope.finish());
/// let events = collector.snapshot();
/// assert_eq!(events.len(), 2);
/// assert_eq!(fhp_obs::counter_total(&events, "items"), 3);
/// ```
#[derive(Clone, Debug)]
pub struct Collector {
    inner: Arc<CollectorInner>,
}

impl Default for Collector {
    /// The default collector is disabled — recording into scopes still
    /// works (facades read the buffers directly), but adopted buffers
    /// are dropped and [`snapshot`](Collector::snapshot) stays empty.
    fn default() -> Self {
        Self::disabled()
    }
}

impl Collector {
    fn new(enabled: bool) -> Self {
        Self {
            inner: Arc::new(CollectorInner {
                enabled,
                epoch: Instant::now(),
                scopes: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A collector that keeps every adopted scope for export.
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// A collector that drops adopted scopes — the untraced fast path.
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// Whether adopted scopes are kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Opens a scope whose timestamps are measured against this
    /// collector's epoch. `order` is the scope's deterministic merge key
    /// — callers must derive it from run structure (phase, start index),
    /// never from scheduling; two scopes of one run must not share a key.
    pub fn scope(&self, order: u64, start_index: Option<u32>) -> Scope {
        Scope::with_epoch(self.inner.epoch, order, start_index)
    }

    /// Takes ownership of a finished scope's buffer (no-op when
    /// disabled).
    pub fn adopt(&self, scope: ScopeEvents) {
        if self.inner.enabled && !scope.events.is_empty() {
            self.inner
                .scopes
                .lock()
                .expect("no recording panics hold this lock") // fhp-audit: allow(panic-site) — mutex poisoning implies a recording panic already unwinding; nothing to salvage
                .push(scope);
        }
    }

    /// The deterministically merged event sequence: adopted scopes
    /// sorted by `(order, start_index)`, each scope's events in record
    /// order. Callable repeatedly; later adoptions extend later
    /// snapshots.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut scopes = self
            .inner
            .scopes
            .lock()
            .expect("no recording panics hold this lock") // fhp-audit: allow(panic-site) — mutex poisoning implies a recording panic already unwinding; nothing to salvage
            .clone();
        scopes.sort_by_key(|s| (s.order, s.start_index));
        scopes.into_iter().flat_map(|s| s.events).collect()
    }
}

#[derive(Debug)]
struct ScopeState {
    events: Vec<Event>,
    stack: Vec<&'static str>,
}

/// A single-threaded event buffer for one unit of work. Obtain one from
/// [`Collector::scope`] (traced timestamps share the collector epoch) or
/// [`Scope::detached`] (standalone, e.g. for a facade that only needs
/// the buffer). Not `Sync` — one scope belongs to one worker.
#[derive(Debug)]
pub struct Scope {
    order: u64,
    start_index: Option<u32>,
    epoch: Instant,
    state: RefCell<ScopeState>,
}

impl Scope {
    fn with_epoch(epoch: Instant, order: u64, start_index: Option<u32>) -> Self {
        Self {
            order,
            start_index,
            epoch,
            state: RefCell::new(ScopeState {
                events: Vec::new(),
                stack: Vec::new(),
            }),
        }
    }

    /// A standalone scope with its own epoch, for recording outside any
    /// collector (the buffer is read back via [`finish`](Scope::finish)).
    pub fn detached(order: u64, start_index: Option<u32>) -> Self {
        Self::with_epoch(Instant::now(), order, start_index)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a timed span. The returned guard records one span event
    /// when dropped; guards must be dropped in LIFO order (which `let`
    /// bindings and block scoping guarantee).
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let start_ns = self.now_ns();
        self.state.borrow_mut().stack.push(name);
        SpanGuard {
            scope: self,
            name,
            started: Instant::now(),
            start_ns,
        }
    }

    fn record(&self, name: &'static str, kind: EventKind, dur_ns: u64, start_ns: u64) {
        self.record_fields(name, kind, dur_ns, start_ns, Vec::new());
    }

    fn record_fields(
        &self,
        name: &'static str,
        kind: EventKind,
        dur_ns: u64,
        start_ns: u64,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        let mut state = self.state.borrow_mut();
        let stack = state.stack.clone();
        state.events.push(Event {
            name,
            kind,
            stack,
            start_ns,
            dur_ns,
            scope_order: self.order,
            start_index: self.start_index,
            thread: thread_lane(),
            fields,
        });
    }

    /// Records a counter event with the given value.
    pub fn counter(&self, name: &'static str, value: u64) {
        let now = self.now_ns();
        self.record_fields(
            name,
            EventKind::Counter,
            0,
            now,
            vec![("value", FieldValue::U64(value))],
        );
    }

    /// Records a [`Counter`]'s accumulated total.
    pub fn emit_counter(&self, name: &'static str, counter: Counter) {
        self.counter(name, counter.get());
    }

    /// Records a snapshot of a [`Histogram`] (count, sum, and the
    /// non-empty buckets in the stable `low:count` rendering).
    pub fn histogram(&self, name: &'static str, hist: &Histogram) {
        let now = self.now_ns();
        self.record_fields(
            name,
            EventKind::Histogram,
            0,
            now,
            vec![
                ("count", FieldValue::U64(hist.count())),
                ("sum", FieldValue::U64(hist.sum())),
                ("buckets", FieldValue::Str(hist.render())),
            ],
        );
    }

    /// Closes the scope and returns its buffer, stamped with the merge
    /// key. Hand the result to [`Collector::adopt`] (and/or read it
    /// directly — that is what the `DualizeStats`/`PhaseStats` facades
    /// do).
    pub fn finish(self) -> ScopeEvents {
        let state = self.state.into_inner();
        debug_assert!(
            state.stack.is_empty(),
            "scope finished with {} span(s) still open",
            state.stack.len()
        );
        ScopeEvents {
            order: self.order,
            start_index: self.start_index,
            events: state.events,
        }
    }
}

/// RAII guard for one open span; records the span event on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    scope: &'a Scope,
    name: &'static str,
    started: Instant,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let dur_ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        {
            let mut state = self.scope.state.borrow_mut();
            let top = state.stack.pop();
            debug_assert_eq!(top, Some(self.name), "span guards dropped out of order");
        }
        self.scope
            .record(self.name, EventKind::Span, dur_ns, self.start_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{counter_total, span_total_ns};

    #[test]
    fn spans_nest_and_record_stacks() {
        let scope = Scope::detached(7, Some(3));
        {
            let _outer = scope.span("outer");
            scope.counter("c", 5);
            {
                let _inner = scope.span("inner");
            }
        }
        let out = scope.finish();
        assert_eq!(out.order, 7);
        assert_eq!(out.start_index, Some(3));
        let names: Vec<_> = out.events.iter().map(|e| e.name).collect();
        // close order: counter first (recorded live), then inner, then outer
        assert_eq!(names, vec!["c", "inner", "outer"]);
        assert_eq!(out.events[0].stack, vec!["outer"]);
        assert_eq!(out.events[1].stack, vec!["outer"]);
        assert_eq!(out.events[2].stack, Vec::<&str>::new());
        for e in &out.events {
            assert_eq!(e.scope_order, 7);
            assert_eq!(e.start_index, Some(3));
        }
        assert_eq!(counter_total(&out.events, "c"), 5);
        assert!(span_total_ns(&out.events, "outer") >= span_total_ns(&out.events, "inner"));
    }

    #[test]
    fn snapshot_merges_in_order_key_order_not_adoption_order() {
        let collector = Collector::enabled();
        for order in [5u64, 1, 3] {
            let scope = collector.scope(order, None);
            scope.counter("k", order);
            collector.adopt(scope.finish());
        }
        let events = collector.snapshot();
        let values: Vec<_> = events.iter().filter_map(|e| e.counter_value()).collect();
        assert_eq!(values, vec![1, 3, 5]);
    }

    #[test]
    fn disabled_collector_drops_adoptions() {
        let collector = Collector::disabled();
        assert!(!collector.is_enabled());
        let scope = collector.scope(0, None);
        scope.counter("k", 1);
        let finished = scope.finish();
        // the facade can still read the buffer it recorded
        assert_eq!(counter_total(&finished.events, "k"), 1);
        collector.adopt(finished);
        assert!(collector.snapshot().is_empty());
    }

    #[test]
    fn adoption_is_thread_safe_and_merge_is_deterministic() {
        let run = |workers: usize| -> Vec<(u64, Option<u32>)> {
            let collector = Collector::enabled();
            std::thread::scope(|s| {
                for w in 0..workers {
                    let collector = collector.clone();
                    s.spawn(move || {
                        for i in 0..8u64 {
                            if i as usize % workers == w {
                                let scope = collector.scope(16 + i, Some(i as u32));
                                scope.counter("n", i);
                                collector.adopt(scope.finish());
                            }
                        }
                    });
                }
            });
            collector
                .snapshot()
                .iter()
                .map(|e| (e.scope_order, e.start_index))
                .collect()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn histogram_events_carry_stable_fields() {
        let scope = Scope::detached(0, None);
        let mut h = Histogram::new();
        h.record(3);
        h.record(0);
        scope.histogram("hist", &h);
        let out = scope.finish();
        assert_eq!(out.events.len(), 1);
        let e = &out.events[0];
        assert_eq!(e.kind, EventKind::Histogram);
        assert!(e
            .fields
            .contains(&("buckets", FieldValue::Str("0:1 2:1".into()))));
        assert!(e.fields.contains(&("count", FieldValue::U64(2))));
        assert!(e.fields.contains(&("sum", FieldValue::U64(3))));
    }
}
