//! Tracing-overhead checks: an untraced Algorithm I run records only what
//! its facades read, and attaching a live [`Progress`] costs no
//! allocation. Both checks are counts, so they are exact and hold on any
//! host; the wall-clock ratios are reported, not asserted.
//!
//! On the hub adversary (the workspace's standard stress instance) the
//! bench runs four configurations of the same run:
//!
//! - `baseline`  — `Algorithm1::new(..)` untouched (its collector is
//!   [`Collector::disabled`], the default every untraced caller gets);
//! - `disabled`  — the same disabled collector attached explicitly, so
//!   the bench can read what it dropped;
//! - `progress`  — a live [`Progress`] gauge registry attached with no
//!   sampler draining it (the `--metrics` hot path when nobody looks);
//! - `enabled`   — full recording plus a snapshot + NDJSON serialization
//!   of the merged trace.
//!
//! The assertions (run in smoke mode too):
//!
//! - the disabled collector dropped exactly [`DISABLED_DROPPED_SCOPES`]
//!   scopes holding [`DISABLED_DROPPED_EVENTS`] events — the `dualize`
//!   scope of the run's `DualIncidence` build, which `DualizeStats` reads
//!   back before it is adopted. A scope recorded on the untraced path
//!   raises the counts;
//! - at one thread, where a run's allocations are a pure function of its
//!   inputs, the `progress` run allocates exactly as often as the
//!   `baseline` run, and its `StartsDone` gauge equals the start count;
//! - every configuration returns the same cut.
//!
//! The `disabled`, `progress` and `enabled` walls, each a min-of-N over
//! interleaved samples, and their ratios to `baseline` go into
//! `BENCH_trace_overhead.json` for the trajectory. `disabled` runs the
//! same code as `baseline`, so its ratio shows only the host's noise.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use fhp_bench::hub_instance;
use fhp_core::{Algorithm1, PartitionConfig};
use fhp_obs::{Collector, Gauge, Progress, TraceWriter};

fhp_obs::install_counting_allocator!();

const HUB_SIGNALS: usize = 512;
const HUB_MODULES: usize = 8;
/// Scopes an untraced run hands a disabled collector: the `dualize`
/// scope of its `DualIncidence` build.
const DISABLED_DROPPED_SCOPES: u64 = 1;
/// Events in that scope: the build's span and the kept and filtered
/// counters.
const DISABLED_DROPPED_EVENTS: u64 = 3;

/// `samples` timed runs of each of `runs`, interleaved one by one and
/// rotating which goes first, so a host that speeds up or slows down
/// moves every minimum alike. Returns each run's minimum wall and its
/// last cut.
fn min_walls_interleaved<const N: usize>(
    samples: usize,
    runs: [&dyn Fn() -> usize; N],
) -> [(u128, usize); N] {
    let mut best = [(u128::MAX, usize::MAX); N];
    for i in 0..samples {
        for k in 0..N {
            let side = (i + k) % N;
            let started = Instant::now();
            let cut = runs[side]();
            best[side] = (best[side].0.min(started.elapsed().as_nanos()), cut);
        }
    }
    best
}

/// Heap acquisitions made while `run` executes.
fn allocs_during(run: impl FnOnce()) -> u64 {
    let before = fhp_obs::alloc::stats().allocs;
    run();
    fhp_obs::alloc::stats().allocs - before
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test")
        || std::env::var("FHP_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let samples = if smoke { 5 } else { 9 };
    let starts = if smoke { 8 } else { 32 };

    let h = hub_instance(HUB_SIGNALS, HUB_MODULES);
    let config = PartitionConfig::new().starts(starts).seed(0).threads(2);
    let run = |config: PartitionConfig,
               collector: Option<Collector>,
               progress: Option<Arc<Progress>>|
     -> usize {
        let mut alg = Algorithm1::new(config).progress(progress);
        if let Some(c) = collector {
            alg = alg.collector(c);
        }
        alg.run(&h)
            .expect("hub instance partitions")
            .report
            .cut_size
    };
    let base_cut = run(config, None, None);

    // What an untraced run records and drops.
    let disabled = Collector::disabled();
    let dis_cut = run(config, Some(disabled.clone()), None);
    assert_eq!(base_cut, dis_cut, "a disabled collector changed the cut");
    let dropped = (disabled.dropped_scopes(), disabled.dropped_events());
    println!(
        "trace_overhead/disabled: dropped {} scope(s), {} event(s)",
        dropped.0, dropped.1
    );
    assert_eq!(
        dropped,
        (DISABLED_DROPPED_SCOPES, DISABLED_DROPPED_EVENTS),
        "an untraced run recorded (scopes, events) a disabled collector drops; \
         only the view's `dualize` scope, which its stats facade reads, may be recorded"
    );

    // What a live gauge registry costs in allocations, at one thread.
    let serial = config.threads(1);
    run(serial, None, None); // warm the process's one-time allocations
    let plain_allocs = allocs_during(|| {
        run(serial, None, None);
    });
    let progress = Arc::new(Progress::new());
    let mut prog_cut = 0;
    let progress_allocs = allocs_during(|| {
        prog_cut = run(serial, None, Some(Arc::clone(&progress)));
    });
    assert_eq!(base_cut, prog_cut, "an attached progress changed the cut");
    assert_eq!(
        progress.get(Gauge::StartsDone),
        starts as u64,
        "progress gauges were not updated"
    );
    let progress_extra_allocs = progress_allocs as i64 - plain_allocs as i64;
    println!(
        "trace_overhead/progress: {progress_allocs} allocations, {plain_allocs} without \
         progress ({progress_extra_allocs:+})"
    );
    assert_eq!(
        progress_extra_allocs, 0,
        "attaching a Progress changed the run's allocation count"
    );

    // Walls, reported only.
    let baseline = || run(config, None, None);
    let with_disabled = || run(config, Some(Collector::disabled()), None);
    let with_progress = || run(config, None, Some(Arc::new(Progress::new())));
    let with_enabled = || {
        let collector = Collector::enabled();
        let cut = run(config, Some(collector.clone()), None);
        let mut sink = Vec::new();
        TraceWriter::new(&mut sink)
            .write_events(&collector.snapshot())
            .expect("vec sink");
        assert!(!sink.is_empty());
        cut
    };
    let walls = min_walls_interleaved(
        samples,
        [&baseline, &with_disabled, &with_progress, &with_enabled],
    );
    let [(base_ns, _), (dis_ns, _), (prog_ns, _), (enabled_ns, _)] = walls;
    assert!(
        walls.iter().all(|&(_, cut)| cut == base_cut),
        "a tracing configuration changed the cut: {walls:?}"
    );
    let ratio = |ns: u128| ns as f64 / base_ns as f64;
    let (dis_ratio, prog_ratio, enabled_ratio) = (ratio(dis_ns), ratio(prog_ns), ratio(enabled_ns));
    let events = {
        let collector = Collector::enabled();
        run(config, Some(collector.clone()), None);
        collector.snapshot().len()
    };
    println!(
        "trace_overhead/walls: baseline {:.3} ms; disabled {dis_ratio:.4}x, \
         progress {prog_ratio:.4}x, enabled {enabled_ratio:.4}x ({events} events exported)",
        base_ns as f64 / 1e6
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"trace_overhead\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"hub_signals\": {HUB_SIGNALS},");
    let _ = writeln!(json, "  \"hub_modules\": {HUB_MODULES},");
    let _ = writeln!(json, "  \"starts\": {starts},");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"baseline_min_wall_ns\": {base_ns},");
    let _ = writeln!(json, "  \"disabled_min_wall_ns\": {dis_ns},");
    let _ = writeln!(json, "  \"disabled_ratio\": {dis_ratio:.4},");
    let _ = writeln!(json, "  \"disabled_dropped_scopes\": {},", dropped.0);
    let _ = writeln!(json, "  \"disabled_dropped_events\": {},", dropped.1);
    let _ = writeln!(json, "  \"progress_min_wall_ns\": {prog_ns},");
    let _ = writeln!(json, "  \"progress_ratio\": {prog_ratio:.4},");
    let _ = writeln!(
        json,
        "  \"progress_extra_allocs\": {progress_extra_allocs},"
    );
    let _ = writeln!(json, "  \"enabled_min_wall_ns\": {enabled_ns},");
    let _ = writeln!(json, "  \"enabled_ratio\": {enabled_ratio:.4},");
    let _ = writeln!(json, "  \"trace_events\": {events}");
    json.push_str("}\n");

    let out = std::env::var("FHP_BENCH_OUT").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_trace_overhead.json"
        )
        .to_string()
    });
    std::fs::write(&out, &json).expect("can write BENCH_trace_overhead.json");
    println!("wrote {out}");
}
