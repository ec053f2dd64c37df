//! Batch workloads, measured in a child process that `fhp-bench` feeds the
//! generated `.hgr` texts on stdin, one framed instance after another.
//!
//! The child parses each instance, then times `Algorithm1::run` in passes
//! over all instances until the measuring time is up, parsing each
//! instance again (set-up) before each of its runs; every run must
//! reproduce its instance's first outcome. A host probe precedes each
//! parse, and the parse and run times are scaled by it to the reference
//! host speed ([`clock::at_reference`]). A traced
//! child afterwards repeats the last instance's run with an enabled
//! collector and derives the per-layer metrics from the spans and
//! counters the program records, plus the benchmark's own spans around
//! each call.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, Write};

use fhp_core::{metrics, Algorithm1, PartitionConfig, PartitionOutcome};
use fhp_hypergraph::{hgr, Hypergraph};
use fhp_obs::{counter_total, names, order, span_total_ns, Collector, Event, TraceWriter};

use crate::clock::{self, Stopwatch};
use crate::metrics::Outcome;
use crate::stats::{mean, median, percentile};
use crate::workload::{Scale, Workload};
use crate::Trace;

/// Timed passes over the instances, at least.
const MIN_PASSES: usize = 2;
/// Traced partition runs per traced measurement (their median wall
/// against the untraced median gives `trace.overhead_pct`).
const TRACED_RUNS: usize = 3;
/// The header line before each framed instance: `<FRAME> <bytes>`.
const FRAME: &str = "fhp-bench-instance";
/// The largest instance text a frame may announce (1 GiB).
const MAX_FRAME_BYTES: usize = 1 << 30;
/// The reconciliation limit: a traced run's layers must account for its
/// wall time to within this many percent.
const MAX_UNATTRIBUTED_PCT: f64 = 10.0;

/// The benchmark's span around one parse of the input.
const SPAN_PARSE: &str = "hgr.parse";
/// The benchmark's span around one `Algorithm1::run` call.
const SPAN_RUN: &str = "algorithm1.run";
/// The benchmark's span around the flat run that stands in for the
/// multilevel flat guard.
const SPAN_FLAT_GUARD: &str = "multilevel.flat_guard";
/// The benchmark's span around a connected-components call like the one
/// a flat `Algorithm1::run` starts with.
const SPAN_COMPONENTS: &str = "algorithm1.components";

/// Writes one instance's `.hgr` text as a frame of the child's input.
pub fn write_frame(sink: &mut impl Write, text: &str) -> std::io::Result<()> {
    writeln!(sink, "{FRAME} {}", text.len())?;
    sink.write_all(text.as_bytes())
}

/// Reads the next framed instance; `None` at the end of the input.
fn read_frame(source: &mut impl BufRead) -> Result<Option<String>, String> {
    let mut header = String::new();
    let n = source
        .read_line(&mut header)
        .map_err(|e| format!("cannot read the input: {e}"))?;
    if n == 0 {
        return Ok(None);
    }
    let len = header
        .trim_end()
        .strip_prefix(FRAME)
        .and_then(|len| len.trim().parse::<usize>().ok())
        .filter(|&len| len <= MAX_FRAME_BYTES)
        .ok_or_else(|| format!("bad instance frame header `{}`", header.trim_end()))?;
    let mut bytes = vec![0; len];
    source
        .read_exact(&mut bytes)
        .map_err(|e| format!("cannot read an instance: {e}"))?;
    String::from_utf8(bytes)
        .map(Some)
        .map_err(|_| "an instance is not UTF-8".to_string())
}

/// One instance of the family, with what its parses and runs measured
/// (scaled to the reference host speed).
struct Instance {
    text: String,
    h: Hypergraph,
    /// Digest of the instance's first outcome; every run must match it.
    reference: Option<u64>,
    parses_s: Vec<f64>,
    runs_ms: Vec<f64>,
}

/// One timed parse of `text`: the instance and the time in seconds.
fn timed_parse(text: &str) -> Result<(Hypergraph, f64), String> {
    let sw = Stopwatch::start();
    let h = hgr::parse_hgr(text).map_err(|e| format!("an instance does not parse: {e}"))?;
    Ok((h, sw.secs()))
}

/// Measures `workload` on the framed instances of `input` for about
/// `seconds`.
pub fn measure(
    workload: Workload,
    input: &mut impl BufRead,
    seconds: f64,
    traced: bool,
    scale: Scale,
) -> Result<(Outcome, Trace), String> {
    let config = workload.config(scale);
    let algo = Algorithm1::new(config);
    let mut out = Outcome::new();
    let mut instances: Vec<Instance> = Vec::new();
    while let Some(text) = read_frame(input)? {
        let h = hgr::parse_hgr(&text).map_err(|e| format!("an instance does not parse: {e}"))?;
        for (key, value) in [
            ("instance.count", 1),
            ("instance.modules", h.num_vertices()),
            ("instance.signals", h.num_edges()),
            ("instance.pins", h.num_pins()),
        ] {
            let total = out.values.get(key).copied().unwrap_or(0.0);
            out.set(key, total + value as f64);
        }
        let mut instance = Instance {
            text,
            h,
            reference: None,
            parses_s: Vec::new(),
            runs_ms: Vec::new(),
        };
        if instances.is_empty() {
            // The process's first run is an untimed warm-up. The heap peak
            // is read after it, while this is the only instance held, so
            // `mem_peak_mb` describes instance 0 of the family alone (the
            // allocator's peak cannot be reset, and later instances would
            // add the parsed graphs held alongside). Peak heap bytes, from
            // the counting allocator this binary installs (the same shim
            // the `fhp` CLI installs), are deterministic for a seed, where
            // the resident set size (`VmHWM`) moves with scheduling and
            // page reuse.
            run_checked(&algo, &instance.h, &mut instance.reference, &mut out);
            out.set(
                "mem_peak_mb",
                fhp_obs::alloc::stats().peak_bytes as f64 / (1024.0 * 1024.0),
            );
        }
        instances.push(instance);
    }
    if instances.is_empty() {
        return Err("the input holds no instance".to_string());
    }

    // Timed passes over every instance, so that a slow spell of the host
    // touches all instances alike. The host's speed drifts within a pass,
    // so every parse-and-run pair gets a probe reading of its own, and the
    // set-up parses are spread over the passes, one before each run.
    let mut cut = 0.0;
    let mut pairs = 0.0;
    let mut probes = Vec::new();
    let sw = Stopwatch::start();
    let mut passes = 0;
    while passes < MIN_PASSES || sw.secs() < seconds {
        for instance in &mut instances {
            let probe = clock::probe_ms();
            probes.push(probe);
            let (_, parse_s) = timed_parse(&instance.text)?;
            instance.parses_s.push(clock::at_reference(parse_s, probe));
            let (ms, outcome) = run_checked(&algo, &instance.h, &mut instance.reference, &mut out);
            if let Some(o) = outcome.filter(|_| passes == 0) {
                cut += o.report.cut_size as f64;
                pairs += o.stats.phases.dualize.pairs_generated as f64;
            }
            instance.runs_ms.push(clock::at_reference(ms, probe));
        }
        passes += 1;
    }
    let setups: Vec<f64> = instances.iter().map(|i| median(&i.parses_s)).collect();
    let latencies: Vec<f64> = instances.iter().map(|i| median(&i.runs_ms)).collect();
    out.set("setup_s", mean(&setups));
    out.set("latency_ms", mean(&latencies));
    out.set("host.probe_ms", median(&probes));
    out.set("cut", cut);
    out.set("instance.pairs_generated", pairs);
    let digests: Vec<Option<u64>> = instances.iter().map(|i| i.reference).collect();
    let mut hasher = DefaultHasher::new();
    digests.hash(&mut hasher);
    out.digest = hasher.finish().to_string();

    let mut trace = Trace::new();
    if let (true, Some(last)) = (traced, instances.last()) {
        let mut walls = Vec::with_capacity(TRACED_RUNS);
        let mut recorded = None;
        for _ in 0..TRACED_RUNS {
            let probe = clock::probe_ms();
            let run = traced_run(workload, &last.text, &last.h, config)?;
            let same = last.reference == Some(outcome_digest(&run.outcome));
            out.count(check(&last.h, &run.outcome) && same);
            walls.push(clock::at_reference(run.wall_ms, probe));
            recorded = Some(run);
        }
        let run = recorded.ok_or("no traced run ran")?;
        record_layers(&mut out, &last.h, &run)?;
        // Smoke-size runs take milliseconds, so the work outside the
        // spans (arenas, reports) dominates them; the limit holds at full
        // size.
        let unattributed = out.values.get("algorithm1.unattributed_pct").copied();
        if scale == Scale::Full && unattributed.is_none_or(|u| u.abs() > MAX_UNATTRIBUTED_PCT) {
            out.fail_check(&format!(
                "the traced layers leave {unattributed:?}% of the wall time unattributed \
                 (limit {MAX_UNATTRIBUTED_PCT}%)"
            ));
        }
        out.set(
            "trace.overhead_pct",
            (median(&walls) / median(&last.runs_ms) - 1.0) * 100.0,
        );
        let mut writer = TraceWriter::new(&mut trace);
        writer
            .write_events(&run.events)
            .map_err(|e| format!("cannot serialize the trace: {e}"))?;
        if let Some(flat) = &run.flat {
            writer
                .write_events(&flat.events)
                .map_err(|e| format!("cannot serialize the trace: {e}"))?;
        }
    }
    Ok((out, trace))
}

/// One timed, checked run: its wall time in milliseconds and, when it
/// succeeded, its outcome. The first successful outcome becomes the
/// `reference` digest later runs must match.
fn run_checked(
    algo: &Algorithm1,
    h: &Hypergraph,
    reference: &mut Option<u64>,
    out: &mut Outcome,
) -> (f64, Option<PartitionOutcome>) {
    let sw = Stopwatch::start();
    let run = algo.run(h);
    let ms = sw.ms();
    match run {
        Ok(o) => {
            let digest = outcome_digest(&o);
            let expected = *reference.get_or_insert(digest);
            out.count(check(h, &o) && digest == expected);
            (ms, Some(o))
        }
        Err(e) => {
            eprintln!("fhp-bench: a partition run failed: {e}");
            out.count(false);
            (ms, None)
        }
    }
}

/// Output checks of one run: the reported cut recounts, every module is
/// assigned, and both sides are used.
fn check(h: &Hypergraph, o: &PartitionOutcome) -> bool {
    let recount = metrics::cut_size(h, &o.bipartition);
    let ok = recount == o.report.cut_size
        && o.bipartition.len() == h.num_vertices()
        && o.bipartition.is_valid_cut();
    if !ok {
        eprintln!(
            "fhp-bench: check failed: cut {} (recount {recount}), {} of {} modules assigned",
            o.report.cut_size,
            o.bipartition.len(),
            h.num_vertices()
        );
    }
    ok
}

/// A digest of the run's timing-free identity (`OutcomeFingerprint`).
fn outcome_digest(o: &PartitionOutcome) -> u64 {
    let mut hasher = DefaultHasher::new();
    o.fingerprint().hash(&mut hasher);
    hasher.finish()
}

/// One traced run's recording.
struct TracedRun {
    outcome: PartitionOutcome,
    wall_ms: f64,
    events: Vec<Event>,
    /// For multilevel: the flat run standing in for the flat guard.
    flat: Option<FlatRun>,
}

struct FlatRun {
    outcome: PartitionOutcome,
    events: Vec<Event>,
}

/// Parses and partitions once with an enabled collector. The benchmark
/// records its own scope (`order::META`) with spans around the parse, a
/// components check and the run; the program records its `dualize.*`, `runner.*`, `alg1.*` and
/// `ml.*` events into the same collector. The multilevel V-cycle runs its
/// flat guard untraced, so for that workload a flat run with the guard's
/// configuration is traced separately, into its own collector.
fn traced_run(
    workload: Workload,
    text: &str,
    h: &Hypergraph,
    config: PartitionConfig,
) -> Result<TracedRun, String> {
    let collector = Collector::enabled();
    let scope = collector.scope(order::META, None);
    {
        let _span = scope.span(SPAN_PARSE);
        let reparsed =
            hgr::parse_hgr(text).map_err(|e| format!("the input does not parse: {e}"))?;
        std::hint::black_box(&reparsed);
    }
    {
        // The first thing a flat `Algorithm1::run` does, and the largest
        // serial step it records no span for; timed by a separate call.
        let _span = scope.span(SPAN_COMPONENTS);
        std::hint::black_box(h.connected_components());
    }
    let sw = Stopwatch::start();
    let outcome = {
        let _span = scope.span(SPAN_RUN);
        Algorithm1::new(config).collector(collector.clone()).run(h)
    };
    let wall_ms = sw.ms();
    let outcome = outcome.map_err(|e| format!("a traced run failed: {e}"))?;
    let flat = if workload == Workload::MultilevelHybrid {
        let flat_collector = Collector::enabled();
        let flat = {
            let _span = scope.span(SPAN_FLAT_GUARD);
            Algorithm1::new(config.multilevel(None))
                .collector(flat_collector.clone())
                .run(h)
        };
        let outcome = flat.map_err(|e| format!("the traced flat-guard run failed: {e}"))?;
        Some(FlatRun {
            outcome,
            events: flat_collector.snapshot(),
        })
    } else {
        None
    };
    collector.adopt(scope.finish());
    Ok(TracedRun {
        outcome,
        wall_ms,
        events: collector.snapshot(),
        flat,
    })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Derives the per-layer metrics of a traced run. For flat workloads the
/// Algorithm I layers come from the run itself; for multilevel they come
/// from the flat-guard run, the only full-size flat run in a V-cycle.
fn record_layers(out: &mut Outcome, h: &Hypergraph, run: &TracedRun) -> Result<(), String> {
    let events = &run.events;
    let (alg_events, alg_outcome) = match &run.flat {
        Some(flat) => (&flat.events, &flat.outcome),
        None => (events, &run.outcome),
    };
    let span = |name: &str| ms(span_total_ns(alg_events, name));
    let counter = |name: &str| counter_total(alg_events, name) as f64;

    out.set("hgr.parse_ms", ms(span_total_ns(events, SPAN_PARSE)));

    let dualize_ms = span(names::DUALIZE);
    out.set("intersection.dualize_ms", dualize_ms);
    out.set("intersection.shards_ms", span(names::DUALIZE_SHARDS));
    out.set("intersection.merge_ms", span(names::DUALIZE_MERGE));
    out.set("intersection.csr_ms", span(names::DUALIZE_CSR));
    let pairs = counter(names::DUALIZE_PAIRS);
    out.set("intersection.pairs_generated", pairs);
    let unique = counter(names::DUALIZE_UNIQUE);
    out.set(
        "intersection.dedup_ratio",
        if pairs > 0.0 { unique / pairs } else { 0.0 },
    );
    out.set("intersection.passes", counter(names::DUALIZE_PASSES));
    out.set(
        "intersection.peak_pair_buffer",
        counter(names::DUALIZE_PEAK_PAIR_BUFFER),
    );

    out.set("dual_bfs.longest_path_ms", span(names::ALG1_LONGEST_PATH));
    out.set("dual_bfs.front_ms", span(names::ALG1_DUAL_FRONT));
    out.set("complete_cut.ms", span(names::ALG1_COMPLETE_CUT));

    let stats = &alg_outcome.stats;
    let busy_ms = span(names::RUNNER_START);
    let workers = stats.threads.max(1) as f64;
    let starts: Vec<f64> = stats
        .per_start
        .iter()
        .map(|s| s.wall.as_secs_f64() * 1e3)
        .collect();
    out.set("runner.busy_ms", busy_ms);
    out.set("runner.workers", workers);
    out.set("runner.start_p50_ms", median(&starts));
    out.set("runner.start_max_ms", percentile(&starts, 100.0));
    out.set(
        "runner.failed_starts",
        stats.per_start.iter().filter(|s| s.error.is_some()).count() as f64,
    );
    out.set("algorithm1.g_vertices", stats.num_g_vertices as f64);
    out.set("algorithm1.boundary_len", stats.boundary_len as f64);
    out.set("algorithm1.cut", run.outcome.report.cut_size as f64);
    let total_weight = h.total_vertex_weight().max(1) as f64;
    out.set(
        "algorithm1.imbalance_pct",
        100.0 * metrics::weight_imbalance(h, &run.outcome.bipartition) as f64 / total_weight,
    );

    let components_ms = ms(span_total_ns(events, SPAN_COMPONENTS));
    out.set("algorithm1.components_ms", components_ms);

    // Reconciliation: wall time minus the serial layers, minus the
    // per-start layers' busy time shared over the workers. The V-cycle's
    // flat guard span already covers its flat run's components check.
    let attributed = match &run.flat {
        None => components_ms + dualize_ms + busy_ms / workers,
        Some(_) => {
            let ml = run
                .outcome
                .stats
                .multilevel
                .as_ref()
                .ok_or("a multilevel run reported no multilevel stats")?;
            let coarsen = ms(span_total_ns(events, names::ML_COARSEN));
            let initial = ms(span_total_ns(events, names::ML_INITIAL));
            let refine = ms(span_total_ns(events, names::ML_REFINE));
            let flat_guard = ms(span_total_ns(events, SPAN_FLAT_GUARD));
            out.set("multilevel.coarsen_ms", coarsen);
            out.set("multilevel.initial_ms", initial);
            out.set("multilevel.refine_ms", refine);
            out.set("multilevel.flat_guard_ms", flat_guard);
            out.set("multilevel.levels", ml.levels as f64);
            out.set("multilevel.coarsest_cut", ml.coarsest_cut as f64);
            coarsen + initial + refine + flat_guard
        }
    };
    let wall = ms(span_total_ns(events, SPAN_RUN));
    out.set(
        "algorithm1.unattributed_pct",
        100.0 * (wall - attributed) / wall.max(f64::MIN_POSITIVE),
    );
    Ok(())
}

/// `fhp-bench child --workload W --seconds S --trace 0|1 [--smoke]`: the
/// batch measuring process. Reads the framed `.hgr` instances on stdin,
/// prints the trace lines (traced only) and then one result line.
pub fn child_main(args: &crate::Args) -> Result<(), String> {
    let workload = Workload::parse(args.required("workload")?)?;
    let seconds = args.number("seconds", crate::DEFAULT_SECONDS)?;
    let traced = args.flag01("trace")?;
    let stdin = std::io::stdin();
    let (outcome, trace) = measure(workload, &mut stdin.lock(), seconds, traced, args.scale())?;
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    lock.write_all(&trace)
        .and_then(|()| writeln!(lock, "{}", outcome.internal_line()))
        .and_then(|()| lock.flush())
        .map_err(|e| format!("cannot write the result: {e}"))
}
