//! Tracing-overhead acceptance: a disabled [`Collector`] — the default
//! every untraced caller gets — must not slow Algorithm I down, and an
//! enabled one must stay within the advertised budget.
//!
//! On the hub adversary (the workspace's standard stress instance) the
//! bench times three configurations of the same run:
//!
//! - `baseline`  — `Algorithm1::new(..)` untouched (internal disabled
//!   collector);
//! - `disabled`  — an explicitly attached disabled collector (the
//!   recorders execute, adoption drops the buffers);
//! - `progress`  — a live [`Progress`] gauge registry attached with no
//!   sampler draining it (the `--metrics` hot path when nobody looks);
//! - `enabled`   — full recording plus a snapshot + NDJSON serialization
//!   of the merged trace.
//!
//! The hard assertions (run in smoke mode too): min-of-N `disabled` and
//! min-of-N `progress` wall are each within 5% of min-of-N `baseline`.
//! Each attempt interleaves the baseline's samples with the candidate's,
//! so a host that speeds up or slows down during the attempt moves both
//! minima alike instead of landing in the ratio. Min-of-N with up to three
//! attempts keeps scheduler noise out of the ratio; the margin is generous
//! because the real cost — a few hundred buffered events or relaxed atomic
//! stores per run — is orders of magnitude below it. The `enabled` ratio
//! is reported in `BENCH_trace_overhead.json` but not asserted: exporting
//! a trace is an opt-in diagnostic, not a fast path.

use std::fmt::Write as _;
use std::time::Instant;

use std::sync::Arc;

use fhp_bench::hub_instance;
use fhp_core::{Algorithm1, PartitionConfig};
use fhp_obs::{Collector, Gauge, Progress, TraceWriter};

const HUB_SIGNALS: usize = 512;
const HUB_MODULES: usize = 8;
const MAX_ATTEMPTS: usize = 3;
const BUDGET: f64 = 1.05;

fn min_wall_ns(samples: usize, run: impl Fn() -> usize) -> (u128, usize) {
    let mut best = u128::MAX;
    let mut cut = usize::MAX;
    for _ in 0..samples {
        let started = Instant::now();
        cut = run();
        best = best.min(started.elapsed().as_nanos());
    }
    (best, cut)
}

/// `samples` timed runs of each of `runs`, interleaved one by one and
/// alternating which side goes first. Returns each side's minimum wall and
/// its last cut.
fn min_wall_ns_interleaved(samples: usize, runs: [&dyn Fn() -> usize; 2]) -> [(u128, usize); 2] {
    let mut best = [(u128::MAX, usize::MAX); 2];
    for i in 0..samples {
        for side in [i % 2, 1 - i % 2] {
            let started = Instant::now();
            let cut = runs[side]();
            best[side] = (best[side].0.min(started.elapsed().as_nanos()), cut);
        }
    }
    best
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test")
        || std::env::var("FHP_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let samples = if smoke { 5 } else { 9 };
    let starts = if smoke { 8 } else { 32 };

    let h = hub_instance(HUB_SIGNALS, HUB_MODULES);
    let config = PartitionConfig::new().starts(starts).seed(0).threads(2);
    let run_with = |collector: Option<Collector>| -> usize {
        let mut alg = Algorithm1::new(config);
        if let Some(c) = collector {
            alg = alg.collector(c);
        }
        alg.run(&h)
            .expect("hub instance partitions")
            .report
            .cut_size
    };
    let run_with_progress = |progress: Arc<Progress>| -> usize {
        Algorithm1::new(config)
            .progress(Some(progress))
            .run(&h)
            .expect("hub instance partitions")
            .report
            .cut_size
    };

    let mut accepted = None;
    let mut attempts = Vec::new();
    for attempt in 1..=MAX_ATTEMPTS {
        let disabled = || run_with(Some(Collector::disabled()));
        let [(base_ns, base_cut), (dis_ns, dis_cut)] =
            min_wall_ns_interleaved(samples, [&|| run_with(None), &disabled]);
        assert_eq!(base_cut, dis_cut, "a disabled collector changed the cut");
        let ratio = dis_ns as f64 / base_ns as f64;
        println!(
            "trace_overhead/disabled attempt {attempt}: baseline {:.3} ms, \
             disabled {:.3} ms, ratio {ratio:.4}",
            base_ns as f64 / 1e6,
            dis_ns as f64 / 1e6
        );
        attempts.push((base_ns, dis_ns, ratio));
        if ratio < BUDGET {
            accepted = Some((base_ns, dis_ns, ratio));
            break;
        }
    }
    let (base_ns, dis_ns, ratio) = accepted.unwrap_or_else(|| {
        panic!(
            "acceptance: disabled-collector runs stayed above {BUDGET}x baseline \
             across {MAX_ATTEMPTS} attempts: {attempts:?}"
        )
    });

    // Live gauges attached, no sampler: the `--metrics` hot path when
    // nobody is looking. Same budget, same retry discipline.
    let mut progress_accepted = None;
    let mut progress_attempts = Vec::new();
    for attempt in 1..=MAX_ATTEMPTS {
        let with_progress = || {
            let progress = Arc::new(Progress::new());
            let cut = run_with_progress(Arc::clone(&progress));
            assert_eq!(
                progress.get(Gauge::StartsDone),
                starts as u64,
                "progress gauges were not updated"
            );
            cut
        };
        let [(pbase_ns, pbase_cut), (prog_ns, prog_cut)] =
            min_wall_ns_interleaved(samples, [&|| run_with(None), &with_progress]);
        assert_eq!(pbase_cut, prog_cut, "an attached progress changed the cut");
        let prog_ratio = prog_ns as f64 / pbase_ns as f64;
        println!(
            "trace_overhead/progress attempt {attempt}: baseline {:.3} ms, \
             progress {:.3} ms, ratio {prog_ratio:.4}",
            pbase_ns as f64 / 1e6,
            prog_ns as f64 / 1e6
        );
        progress_attempts.push((pbase_ns, prog_ns, prog_ratio));
        if prog_ratio < BUDGET {
            progress_accepted = Some((prog_ns, prog_ratio));
            break;
        }
    }
    let (prog_ns, prog_ratio) = progress_accepted.unwrap_or_else(|| {
        panic!(
            "acceptance: progress-attached runs stayed above {BUDGET}x baseline \
             across {MAX_ATTEMPTS} attempts: {progress_attempts:?}"
        )
    });

    // Enabled recording + full NDJSON export, reported but not asserted.
    let (enabled_ns, enabled_cut) = min_wall_ns(samples, || {
        let collector = Collector::enabled();
        let cut = run_with(Some(collector.clone()));
        let mut sink = Vec::new();
        TraceWriter::new(&mut sink)
            .write_events(&collector.snapshot())
            .expect("vec sink");
        assert!(!sink.is_empty());
        cut
    });
    assert_eq!(
        enabled_cut,
        run_with(None),
        "an enabled collector changed the cut"
    );
    let enabled_ratio = enabled_ns as f64 / base_ns as f64;
    let events = {
        let collector = Collector::enabled();
        run_with(Some(collector.clone()));
        collector.snapshot().len()
    };
    println!(
        "trace_overhead/enabled: {:.3} ms ({enabled_ratio:.3}x baseline), \
         {events} events exported",
        enabled_ns as f64 / 1e6
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"trace_overhead\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"hub_signals\": {HUB_SIGNALS},");
    let _ = writeln!(json, "  \"hub_modules\": {HUB_MODULES},");
    let _ = writeln!(json, "  \"starts\": {starts},");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"budget_ratio\": {BUDGET},");
    let _ = writeln!(json, "  \"baseline_min_wall_ns\": {base_ns},");
    let _ = writeln!(json, "  \"disabled_min_wall_ns\": {dis_ns},");
    let _ = writeln!(json, "  \"disabled_ratio\": {ratio:.4},");
    let _ = writeln!(json, "  \"progress_min_wall_ns\": {prog_ns},");
    let _ = writeln!(json, "  \"progress_ratio\": {prog_ratio:.4},");
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
