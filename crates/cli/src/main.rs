//! `fhp` — command-line hypergraph bipartitioner.
//!
//! Reads a netlist in the `signal: modules...` text format (see
//! `fhp_hypergraph::netlist`) or, for `.hgr` files, the hMETIS exchange
//! format; partitions it; and prints the cut.
//!
//! ```text
//! fhp <netlist-file> [options]
//! fhp --demo [options]            # run on a built-in demo netlist
//!
//! options:
//!   -a, --algorithm <alg1|kl|fm|sa|random>   partitioner (default alg1)
//!   -s, --starts <N>        random longest paths for alg1 (default 50, at most 4096)
//!       --seed <S>          RNG seed (default 0)
//!       --threads <N>       worker threads for alg1's multi-start engine
//!                           (default 0 = one per core; the cut is
//!                           identical for every value)
//!   -t, --threshold <K>     ignore signals with K or more pins
//!       --balance           engineer's-method weighted completion (alg1)
//!       --objective <cut|quotient|ratio>     alg1 ranking objective
//!       --multilevel        multilevel V-cycle mode: coarsen by heavy-edge
//!                           matching, partition the coarsest level, refine
//!                           while uncoarsening (two-way alg1 only)
//!       --vcycles <N>       extra V-cycle passes (default 1; requires
//!                           --multilevel)
//!       --coarse-size <N>   stop coarsening at N vertices (default 60;
//!                           requires --multilevel)
//!       --stats             print per-phase `[stats]` lines (alg1 and the
//!                           kl/fm/sa baselines; `random` prints a
//!                           not_instrumented note)
//!       --trace <FILE>      write an NDJSON event trace (two-way alg1,
//!                           kl, fm, or sa)
//!       --profile           print folded stacks to stderr (two-way alg1,
//!                           kl, fm, or sa)
//!       --progress          render live `[progress]` lines to stderr
//!                           while the run executes
//!       --metrics <FILE>    write the canonical end-of-run metrics
//!                           snapshot as NDJSON (byte-identical across
//!                           --threads; `fhp-trace-check`-valid)
//!       --metrics-interval <MS>  also stream a timestamped sample block
//!                           into the --metrics file every MS milliseconds
//!       --check             re-verify the result through the fhp-verify
//!                           oracles before reporting it (alg1 only)
//!   -q, --quiet             print only the cut size
//! ```
//!
//! Flag precedence: `--quiet` suppresses the human-readable report lines
//! on stdout, but **not** the `[stats]` lines, the `--trace` file, or the
//! `--profile` stderr output — quiet governs the report, not the
//! diagnostics channels.

use std::process::ExitCode;

use fhp_baselines::{FiducciaMattheyses, KernighanLin, RandomCut, SimulatedAnnealing};
use fhp_core::{
    metrics, Algorithm1, Bipartitioner, CompletionStrategy, MultilevelConfig, Objective,
    PartitionConfig, Side,
};
use fhp_hypergraph::Netlist;
use fhp_obs::{folded_stacks, names, order, Collector, Event, Gauge, TraceWriter};

// Every `fhp` process accounts its heap traffic so `--stats`, `--progress`
// and the metrics stream report real `mem.*` numbers. The shim delegates
// straight to the system allocator plus three relaxed atomics, so it does
// not perturb the engine's allocation behaviour — only observes it.
fhp_obs::install_counting_allocator!();

mod serve;
mod telemetry;

use telemetry::TelemetryArgs;

struct Options {
    path: Option<String>,
    demo: bool,
    algorithm: String,
    starts: usize,
    seed: u64,
    threads: usize,
    threshold: Option<usize>,
    balance: bool,
    objective: Objective,
    multilevel: bool,
    vcycles: Option<usize>,
    coarse_size: Option<usize>,
    stats: bool,
    trace: Option<String>,
    profile: bool,
    telemetry: TelemetryArgs,
    check: bool,
    quiet: bool,
    blocks: usize,
    place: Option<(usize, usize)>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        path: None,
        demo: false,
        algorithm: "alg1".to_string(),
        starts: 50,
        seed: 0,
        threads: 0,
        threshold: None,
        balance: false,
        objective: Objective::CutSize,
        multilevel: false,
        vcycles: None,
        coarse_size: None,
        stats: false,
        trace: None,
        profile: false,
        telemetry: TelemetryArgs::default(),
        check: false,
        quiet: false,
        blocks: 2,
        place: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "-a" | "--algorithm" => opts.algorithm = value("--algorithm")?,
            "-s" | "--starts" => {
                opts.starts = value("--starts")?
                    .parse()
                    .map_err(|_| "starts must be a positive integer".to_string())?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "seed must be an integer".to_string())?
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "threads must be an integer (0 = auto)".to_string())?
            }
            "-t" | "--threshold" => {
                opts.threshold = Some(
                    value("--threshold")?
                        .parse()
                        .map_err(|_| "threshold must be an integer".to_string())?,
                )
            }
            "--balance" => opts.balance = true,
            "--objective" => {
                opts.objective = match value("--objective")?.as_str() {
                    "cut" => Objective::CutSize,
                    "quotient" => Objective::QuotientCut,
                    "ratio" => Objective::RatioCut,
                    other => return Err(format!("unknown objective `{other}`")),
                }
            }
            "--multilevel" => opts.multilevel = true,
            "--vcycles" => {
                let n: usize = value("--vcycles")?
                    .parse()
                    .map_err(|_| "vcycles must be a positive integer".to_string())?;
                if n == 0 {
                    return Err("vcycles must be at least 1".to_string());
                }
                opts.vcycles = Some(n);
            }
            "--coarse-size" => {
                let n: usize = value("--coarse-size")?
                    .parse()
                    .map_err(|_| "coarse size must be an integer >= 2".to_string())?;
                if n < 2 {
                    return Err("coarse size must be at least 2".to_string());
                }
                opts.coarse_size = Some(n);
            }
            "--stats" => opts.stats = true,
            "--trace" => opts.trace = Some(value("--trace")?),
            "--profile" => opts.profile = true,
            "--check" => opts.check = true,
            "-q" | "--quiet" => opts.quiet = true,
            "--place" => {
                let spec = value("--place")?;
                let (r, c) = spec
                    .split_once('x')
                    .ok_or_else(|| "expected --place ROWSxCOLS, e.g. 8x8".to_string())?;
                let rows: usize = r.parse().map_err(|_| "bad --place rows".to_string())?;
                let cols: usize = c.parse().map_err(|_| "bad --place cols".to_string())?;
                if rows == 0 || cols == 0 {
                    return Err("--place dimensions must be positive".to_string());
                }
                opts.place = Some((rows, cols));
            }
            "-k" | "--blocks" => {
                opts.blocks = value("--blocks")?
                    .parse()
                    .map_err(|_| "blocks must be a positive integer".to_string())?;
                if opts.blocks == 0 {
                    return Err("blocks must be at least 1".to_string());
                }
            }
            "--demo" => opts.demo = true,
            "-h" | "--help" => return Err(String::new()),
            other if !other.starts_with('-') && opts.path.is_none() => {
                opts.path = Some(other.to_string())
            }
            other => {
                if !opts.telemetry.take(other, || value(other))? {
                    return Err(format!("unknown option `{other}`"));
                }
            }
        }
    }
    if opts.path.is_none() && !opts.demo {
        return Err("expected a netlist file (or --demo)".to_string());
    }
    if !opts.multilevel {
        if opts.vcycles.is_some() {
            return Err("--vcycles requires --multilevel".to_string());
        }
        if opts.coarse_size.is_some() {
            return Err("--coarse-size requires --multilevel".to_string());
        }
    }
    opts.telemetry.check()?;
    Ok(opts)
}

const DEMO_NETLIST: &str = "\
a: 1 2 11
b: 2 4 11
c: 1 3 4 12
d: 3 5
e: 4 6 7
f: 5 6 8
g: 6 8
h: 7 9 10
i: 6 7 9 10
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("serve") {
        // fhp-audit: allow(panic-site) — argv has at least 2 entries when argv[1] == "serve"
        return serve::run(&argv[2..]);
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };

    let text = if opts.demo {
        DEMO_NETLIST.to_string()
    } else {
        let path = opts.path.as_deref().expect("checked in parse_args");
        match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let is_hgr = opts.path.as_deref().is_some_and(|p| p.ends_with(".hgr"));
    let netlist = if is_hgr {
        match fhp_hypergraph::hgr::parse_hgr(&text) {
            Ok(h) => Netlist::from_hypergraph(h),
            Err(e) => {
                eprintln!("error: hgr parse failure: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match Netlist::parse(&text) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("error: parse failure: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let h = netlist.hypergraph();

    let completion = if opts.balance {
        CompletionStrategy::EngineerWeighted
    } else {
        CompletionStrategy::MinDegree
    };
    let ml_mode = opts.multilevel.then(|| {
        let mut ml = MultilevelConfig::new();
        if let Some(n) = opts.vcycles {
            ml = ml.vcycles(n);
        }
        if let Some(n) = opts.coarse_size {
            ml = ml.max_coarse_size(n);
        }
        ml
    });
    // The one configuration every Algorithm I run starts from: two-way,
    // k-way (`--blocks`) and placement (`--place`) runs derive theirs
    // from it, so a flag like `--balance` reaches all three.
    let alg1_config = PartitionConfig::new()
        .starts(opts.starts)
        .seed(opts.seed)
        .threads(opts.threads)
        .edge_size_threshold(opts.threshold)
        .completion(completion)
        .objective(opts.objective)
        .multilevel(ml_mode);
    if !matches!(
        opts.algorithm.as_str(),
        "alg1" | "kl" | "fm" | "sa" | "random"
    ) {
        eprintln!(
            "error: unknown algorithm `{}` (alg1|kl|fm|sa|random)",
            opts.algorithm
        );
        return ExitCode::from(2);
    }

    // The V-cycle engine lives inside alg1's two-way path: the baselines,
    // the recursive multiway driver and the placer never dispatch into it,
    // so reject the flag instead of silently running flat.
    if opts.multilevel && (opts.algorithm != "alg1" || opts.place.is_some() || opts.blocks > 2) {
        eprintln!("error: --multilevel is only supported for two-way alg1 runs");
        return ExitCode::from(2);
    }
    // --trace/--profile cover two-way alg1 and the instrumented kl/fm/sa
    // baselines; `random` has no recorders, and the placement/multiway
    // drivers never thread a collector through. Reject unsupported
    // combinations loudly instead of writing an empty trace.
    let tracing = opts.trace.is_some() || opts.profile;
    let instrumented = matches!(opts.algorithm.as_str(), "alg1" | "kl" | "fm" | "sa");
    if tracing && (!instrumented || opts.place.is_some() || opts.blocks > 2) {
        let flag = if opts.trace.is_some() {
            "--trace"
        } else {
            "--profile"
        };
        eprintln!("error: {flag} is only supported for two-way alg1/kl/fm/sa runs");
        return ExitCode::from(2);
    }
    // --stats on placement/multiway runs is still an error; on the
    // non-instrumented `random` baseline it degrades to an explicit note.
    if opts.stats && (opts.place.is_some() || opts.blocks > 2) {
        eprintln!("error: --stats is only supported for two-way runs");
        return ExitCode::from(2);
    }
    // Live telemetry follows the same boundary: the placement and
    // multiway drivers spawn their own engines and report nothing.
    if opts.telemetry.enabled() && (opts.place.is_some() || opts.blocks > 2) {
        eprintln!("error: --progress/--metrics are only supported for two-way runs");
        return ExitCode::from(2);
    }
    // --check re-derives the engine's self-reported metrics through the
    // fhp-verify oracles; the baselines return a bare bipartition with no
    // self-report to cross-examine, so the flag is alg1-only.
    if opts.check && (opts.algorithm != "alg1" || opts.place.is_some()) {
        eprintln!("error: --check is only supported for alg1 runs (two-way or --blocks)");
        return ExitCode::from(2);
    }
    if let Some((rows, cols)) = opts.place {
        return run_place(&opts, &netlist, alg1_config, rows, cols);
    }
    if opts.blocks > 2 {
        return run_multiway(&opts, &netlist, alg1_config);
    }
    // The collector exists before the partitioner so the baselines can
    // record into it; `--stats` on a baseline needs the counters even
    // when no trace file is requested.
    let baseline_stats = opts.stats && opts.algorithm != "alg1";
    let collector = if tracing || baseline_stats {
        Collector::enabled()
    } else {
        Collector::disabled()
    };
    let partitioner: Box<dyn Bipartitioner> = match opts.algorithm.as_str() {
        "kl" => Box::new(KernighanLin::new(opts.seed).collector(collector.clone())),
        "fm" => Box::new(FiducciaMattheyses::new(opts.seed).collector(collector.clone())),
        "sa" => Box::new(SimulatedAnnealing::thorough(opts.seed).collector(collector.clone())),
        "random" => Box::new(RandomCut::balanced(opts.seed)),
        _ => Box::new(Algorithm1::new(alg1_config)),
    };

    // Live telemetry: a lock-free gauge registry the hot paths update,
    // plus an optional sampler thread that renders it while the run is
    // in flight.
    let mut telemetry = match opts.telemetry.start() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let meta = collector.scope(order::META, None);
    meta.counter(names::RUN_MODULES, h.num_vertices() as u64);
    meta.counter(names::RUN_SIGNALS, h.num_edges() as u64);
    meta.counter(names::RUN_SEED, opts.seed);
    meta.counter(names::RUN_STARTS, opts.starts as u64);
    collector.adopt(meta.finish());

    // fhp-audit: allow(wallclock-in-fingerprint) — times the human-facing summary line only
    let started = std::time::Instant::now();
    let (bp, run_stats) = if opts.algorithm == "alg1" {
        match Algorithm1::new(alg1_config)
            .collector(collector.clone())
            .progress(telemetry.progress().cloned())
            .run(h)
        {
            Ok(out) => {
                if opts.check {
                    match fhp_verify::check_outcome_consistency(h, &out) {
                        Ok(n) => println!("[check] report_consistency ok ({n} checks)"),
                        Err(v) => {
                            eprintln!("error: {v}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                (out.bipartition, Some(out.stats))
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match partitioner.bipartition(h) {
            Ok(bp) => (bp, None),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let elapsed = started.elapsed();
    let report = metrics::CutReport::new(h, &bp);

    // Finalize the live gauges with the reported cut (the baselines only
    // feed `BestCut` here), then stop the sampler and write the
    // deterministic end-of-run snapshot.
    if let Some(p) = telemetry.progress() {
        p.record_min(Gauge::BestCut, report.cut_size as u64);
    }
    if let Err(e) = telemetry.finish() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    // Heap accounting goes into the trace as `mem.*` counters under the
    // dedicated volatile scope — `fhp-trace-check` accepts them, canonical
    // comparisons drop them wholesale (allocation counts depend on
    // scheduling).
    if collector.is_enabled() {
        let mem = fhp_obs::alloc::stats();
        let scope = collector.scope(order::MEM, None);
        scope.counter(names::MEM_LIVE_BYTES, mem.live_bytes);
        scope.counter(names::MEM_PEAK_BYTES, mem.peak_bytes);
        scope.counter(names::MEM_ALLOCS, mem.allocs);
        collector.adopt(scope.finish());
    }

    // Diagnostics channels are independent of --quiet: the trace file and
    // the profile's stderr output are emitted either way.
    let events = collector.snapshot();
    if let Some(path) = &opts.trace {
        let file = match std::fs::File::create(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = TraceWriter::new(std::io::BufWriter::new(file)).write_events(&events) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if opts.profile {
        eprint!("{}", folded_stacks(&events));
    }

    if opts.quiet {
        println!("{}", report.cut_size);
        if opts.stats {
            match &run_stats {
                Some(stats) => print_stats(stats),
                None => print_baseline_stats(&events, &opts.algorithm),
            }
            print_mem_stats();
        }
        return ExitCode::SUCCESS;
    }
    println!(
        "{}: {} modules, {} signals",
        partitioner.name(),
        h.num_vertices(),
        h.num_edges()
    );
    println!(
        "cut size {} (weighted {}), sides {}/{} modules, weights {}/{}, quotient {:.3}",
        report.cut_size,
        report.weighted_cut,
        report.counts.0,
        report.counts.1,
        report.weights.0,
        report.weights.1,
        report.quotient
    );
    if let Some(ml) = run_stats.as_ref().and_then(|s| s.multilevel.as_ref()) {
        let sizes: Vec<String> = ml.level_sizes.iter().map(|n| n.to_string()).collect();
        let kept = if ml.used_flat_guard {
            "flat guard partition"
        } else {
            "v-cycle partition"
        };
        println!(
            "multilevel: {} level(s), sizes {}, coarsest cut {}, kept {}",
            ml.levels,
            sizes.join(" -> "),
            ml.coarsest_cut,
            kept
        );
    }
    let names = |side: Side| {
        bp.vertices_on(side)
            .iter()
            .map(|&v| netlist.module_name(v).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("left : {}", names(Side::Left));
    println!("right: {}", names(Side::Right));
    let crossing: Vec<String> = metrics::crossing_edges(h, &bp)
        .iter()
        .map(|&e| netlist.signal_name(e).to_string())
        .collect();
    println!("crossing signals: {}", crossing.join(" "));
    if opts.stats {
        match &run_stats {
            Some(stats) => print_stats(stats),
            None => print_baseline_stats(&events, &opts.algorithm),
        }
        print_mem_stats();
    }
    println!("elapsed: {elapsed:?}");
    ExitCode::SUCCESS
}

/// Prints `[stats]` lines for a baseline run from its collected counter
/// events (`kl.*`/`fm.*`/`sa.*` summary counters, dots flattened to
/// underscores). Algorithms with no recorders — `random` — keep the
/// explicit note so the flag always has a visible effect.
fn print_baseline_stats(events: &[Event], algorithm: &str) {
    let mut totals: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for event in events {
        if let Some(value) = event.counter_value() {
            // Run metadata and heap accounting print through their own
            // channels; the algorithm's counters are the payload here.
            if event.name.starts_with("run.") || event.name.starts_with("mem.") {
                continue;
            }
            *totals.entry(event.name).or_insert(0) += value;
        }
    }
    if totals.is_empty() {
        println!("[stats] not_instrumented {algorithm}");
        return;
    }
    for (name, value) in totals {
        println!("[stats] {} {value}", name.replace('.', "_"));
    }
}

/// Prints the process heap accounting as `[stats] mem_*` lines (live and
/// peak bytes, allocation count — from the counting allocator installed
/// at the top of this binary).
fn print_mem_stats() {
    let mem = fhp_obs::alloc::stats();
    println!("[stats] mem_live_bytes {}", mem.live_bytes);
    println!("[stats] mem_peak_bytes {}", mem.peak_bytes);
    println!("[stats] mem_allocs {}", mem.allocs);
}

/// Prints the run's phase-level diagnostics as stable `[stats] key value`
/// lines (one fact per line, machine-greppable; documented in README).
fn print_stats(stats: &fhp_core::RunStats) {
    // Algorithm I reads G off the incidence lists: its `dualize` phase
    // is the view's build, which keeps and filters signals and pairs none.
    let d = &stats.phases.dualize;
    let line = |key: &str, value: String| println!("[stats] {key} {value}");
    line("dualize_kept_edges", d.kept_edges.to_string());
    line("dualize_filtered_edges", d.filtered_edges.to_string());
    line("dualize_wall_us", d.wall.as_micros().to_string());
    let p = &stats.phases;
    line(
        "longest_path_bfs_wall_us",
        p.longest_path_bfs.as_micros().to_string(),
    );
    line(
        "dual_front_bfs_wall_us",
        p.dual_front_bfs.as_micros().to_string(),
    );
    line(
        "complete_cut_wall_us",
        p.complete_cut.as_micros().to_string(),
    );
    line("starts", stats.starts.to_string());
    line("distinct_paths", stats.distinct_paths.to_string());
    line("distinct_u", stats.distinct_u.to_string());
    line("engine_threads", stats.threads.to_string());
    line(
        "chosen_start",
        stats
            .chosen_start
            .map_or("none".to_string(), |s| s.to_string()),
    );
    line("num_g_vertices", stats.num_g_vertices.to_string());
    line("g_components", stats.g_components.to_string());
    line("path_component", stats.path_component.to_string());
    line("boundary_len", stats.boundary_len.to_string());
    line("arena_growths", stats.arena_growths.to_string());
    if let Some(ml) = &stats.multilevel {
        let join = |xs: &[usize]| {
            xs.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        line("ml_levels", ml.levels.to_string());
        line("ml_level_sizes", join(&ml.level_sizes));
        line("ml_coarsest_cut", ml.coarsest_cut.to_string());
        line("ml_level_cuts", join(&ml.level_cuts));
        line("ml_vcycles", ml.vcycles.to_string());
        line("ml_cycle_cuts", join(&ml.cycle_cuts));
        line("ml_flat_cut", ml.flat_cut.to_string());
        line("ml_used_flat_guard", ml.used_flat_guard.to_string());
    }
}

/// Min-cut placement; each region's partitioner is `config` with at most
/// 10 starts, seeded per region.
fn run_place(
    opts: &Options,
    netlist: &Netlist,
    config: PartitionConfig,
    rows: usize,
    cols: usize,
) -> ExitCode {
    use fhp_place::{wirelength, MinCutPlacer, SlotGrid};
    let h = netlist.hypergraph();
    let base = config.starts(opts.starts.min(10));
    let seed = opts.seed;
    let placer = MinCutPlacer::new(move |region| {
        Box::new(Algorithm1::new(base.seed(seed ^ region))) as Box<dyn Bipartitioner>
    });
    // fhp-audit: allow(wallclock-in-fingerprint) — times the human-facing summary line only
    let started = std::time::Instant::now();
    let placement = match placer.place(h, SlotGrid::new(rows, cols)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed();
    let hpwl = wirelength::total_hpwl(h, &placement);
    if opts.quiet {
        println!("{hpwl}");
        return ExitCode::SUCCESS;
    }
    println!(
        "min-cut placement of {} modules into {rows}x{cols} slots",
        h.num_vertices()
    );
    println!(
        "HPWL {hpwl}, peak vertical cut {}",
        wirelength::max_vertical_cut(h, &placement)
    );
    for r in 0..rows {
        let mut row: Vec<&str> = Vec::new();
        for c in 0..cols {
            let cell = h
                .vertices()
                .find(|&v| placement.slot_of(v).row == r && placement.slot_of(v).col == c)
                .map(|v| netlist.module_name(v))
                .unwrap_or(".");
            row.push(cell);
        }
        println!("  {}", row.join(" "));
    }
    println!("elapsed: {elapsed:?}");
    ExitCode::SUCCESS
}

/// k-way partitioning by recursive bisection; each region's partitioner
/// is `config` seeded per region.
fn run_multiway(opts: &Options, netlist: &Netlist, config: PartitionConfig) -> ExitCode {
    use fhp_core::multiway::recursive_bisection;
    let h = netlist.hypergraph();
    // fhp-audit: allow(wallclock-in-fingerprint) — times the human-facing summary line only
    let started = std::time::Instant::now();
    let mp = match recursive_bisection(h, opts.blocks, |region| {
        Box::new(Algorithm1::new(config.seed(opts.seed ^ region))) as Box<dyn Bipartitioner>
    }) {
        Ok(mp) => mp,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed();
    if opts.check {
        match fhp_verify::oracle::check_multipartition("cli-check", h, opts.blocks, &mp) {
            Ok(n) => println!("[check] multiway ok ({n} checks)"),
            Err(v) => {
                eprintln!("error: {v}");
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.quiet {
        println!("{}", mp.cut_size(h));
        return ExitCode::SUCCESS;
    }
    println!(
        "Alg I (recursive): {} modules, {} signals, k = {}",
        h.num_vertices(),
        h.num_edges(),
        opts.blocks
    );
    println!(
        "cut nets {} , connectivity {}, block sizes {:?}",
        mp.cut_size(h),
        mp.connectivity(h),
        mp.block_sizes()
    );
    for b in 0..opts.blocks as u32 {
        let members: Vec<&str> = h
            .vertices()
            .filter(|&v| mp.block_of(v) == b)
            .map(|v| netlist.module_name(v))
            .collect();
        println!("block {b}: {}", members.join(" "));
    }
    println!("elapsed: {elapsed:?}");
    ExitCode::SUCCESS
}

fn usage() -> &'static str {
    "usage: fhp <netlist-file> [options]\n\
     \x20      fhp --demo [options]\n\
     \x20      fhp serve [serve-options]   (NDJSON partition service over\n\
     \x20                                   stdin or --tcp; see README)\n\
     \n\
     options:\n\
     \x20 -a, --algorithm <alg1|kl|fm|sa|random>  partitioner (default alg1)\n\
     \x20 -s, --starts <N>      random longest paths for alg1 (default 50, at most 4096)\n\
     \x20     --seed <S>        RNG seed (default 0)\n\
     \x20     --threads <N>     alg1 worker threads (default 0 = one per core;\n\
     \x20                       same cut for every value)\n\
     \x20 -t, --threshold <K>   ignore signals with K or more pins\n\
     \x20     --balance         engineer's-method weighted completion\n\
     \x20     --objective <cut|quotient|ratio>\n\
     \x20     --multilevel      multilevel V-cycle mode: coarsen by heavy-edge\n\
     \x20                       matching, partition the coarsest level, refine\n\
     \x20                       while uncoarsening (two-way alg1 only)\n\
     \x20     --vcycles <N>     extra V-cycle passes (default 1; requires\n\
     \x20                       --multilevel)\n\
     \x20     --coarse-size <N> stop coarsening at N vertices (default 60;\n\
     \x20                       requires --multilevel)\n\
     \x20     --stats           print per-phase `[stats] key value` lines\n\
     \x20                       (kept/filtered signal counts + phase wall times\n\
     \x20                       for alg1; restart/pass/move counters for kl/fm/sa;\n\
     \x20                       `random` prints a not_instrumented note)\n\
     \x20     --trace <FILE>    write an NDJSON event trace of the run\n\
     \x20                       (two-way alg1, kl, fm, or sa)\n\
     \x20     --profile         print folded stacks to stderr for flamegraph\n\
     \x20                       tooling (two-way alg1, kl, fm, or sa)\n\
     \x20     --progress        render live `[progress]` lines to stderr while\n\
     \x20                       the run executes\n\
     \x20     --metrics <FILE>  write the canonical end-of-run metrics snapshot\n\
     \x20                       as NDJSON (byte-identical across --threads)\n\
     \x20     --metrics-interval <MS>  also stream timestamped samples into the\n\
     \x20                       --metrics file every MS milliseconds\n\
     \x20     --check           recount the cut, balance and side weights\n\
     \x20                       through the fhp-verify oracles and fail the\n\
     \x20                       run on any mismatch (alg1 only)\n\
     \x20 -k, --blocks <K>      k-way decomposition by recursive Alg I (default 2)\n\
     \x20     --place <RxC>     min-cut placement into an R x C slot grid\n\
     \x20 -q, --quiet           print only the cut size; suppresses the report\n\
     \x20                       but not `[stats]` lines, the --trace file, or\n\
     \x20                       --profile output\n"
}
