//! `fhp-perf` — perf-regression harness over bench artifacts and metrics
//! streams.
//!
//! ```text
//! fhp-perf BASELINE CURRENT [CURRENT...] [--threshold R] [--counts-only]
//! fhp-perf --normalize FILE [FILE...]
//! ```
//!
//! Ingests two or more `BENCH_*.json` documents (nested JSON, pretty or
//! compact) and/or fhp-obs metrics NDJSON streams, flattens each into a
//! sorted `key -> number` map, and compares every later file against the
//! first:
//!
//! - **timing keys** (`*wall*`, `*_ns`, `*ratio*`, `*dur*`) regress when
//!   `current / baseline` exceeds `--threshold` (default 1.5 — wall time
//!   is noisy, especially on shared CI runners);
//! - **count keys** (passes, peak buffers, bytes spilled, cuts, events —
//!   everything seed-deterministic) regress on **any** increase beyond
//!   `--count-threshold` (default 1.0): the workspace's determinism
//!   contract makes them exactly reproducible, so an increase is a real
//!   behavior change, not noise;
//! - **identity keys** (instance sizes, seeds, thread counts, chosen
//!   start) are compared for equality and mismatches are reported as
//!   warnings — the files describe different configurations, so their
//!   cost deltas need a human eye.
//!
//! A baseline key of a compared class that the current file lacks fails
//! as `missing`: a gate that skipped it would pass by omission.
//!
//! `--counts-only` skips the timing class entirely (for cross-machine
//! comparisons where wall times are meaningless). `--normalize` emits one
//! NDJSON line per input file (sorted flattened metrics) for appending to
//! a history log. Exit status: 0 clean, 1 on any regression or missing
//! key, 2 on usage or input errors (including "no comparable keys" — a
//! silent pass over disjoint files would make the gate decorative — and
//! an array whose items flatten to the same label, which would keep only
//! the last of them).

use std::collections::BTreeMap;
use std::process::ExitCode;

use fhp_obs::json::{self, Json};
use fhp_obs::writer::json_escape;

const USAGE: &str = "\
fhp-perf: compare bench artifacts / metrics streams, gate on regressions

USAGE:
    fhp-perf BASELINE CURRENT [CURRENT...] [OPTIONS]
    fhp-perf --normalize FILE [FILE...]

INPUTS are BENCH_*.json documents or fhp-obs metrics NDJSON streams.

OPTIONS:
    --threshold R        timing regression ratio (default 1.5)
    --count-threshold R  count regression ratio (default 1.0: any increase)
    --counts-only        ignore timing keys (cross-machine comparisons)
    --ndjson             machine-readable delta lines instead of markdown
    --normalize          emit one NDJSON line per file (for history logs)
    -h, --help           print this help
";

#[derive(Debug)]
struct Options {
    files: Vec<String>,
    threshold: f64,
    count_threshold: f64,
    counts_only: bool,
    ndjson: bool,
    normalize: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            files: Vec::new(),
            threshold: 1.5,
            count_threshold: 1.0,
            counts_only: false,
            ndjson: false,
            normalize: false,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--threshold" => {
                opts.threshold = parse_ratio(value("--threshold")?, "--threshold")?;
            }
            "--count-threshold" => {
                opts.count_threshold =
                    parse_ratio(value("--count-threshold")?, "--count-threshold")?;
            }
            "--counts-only" => opts.counts_only = true,
            "--ndjson" => opts.ndjson = true,
            "--normalize" => opts.normalize = true,
            "-h" | "--help" => return Err(String::new()),
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            path => opts.files.push(path.to_string()),
        }
    }
    let need = if opts.normalize { 1 } else { 2 };
    if opts.files.len() < need {
        return Err(format!(
            "need at least {need} input file{}",
            if need == 1 { "" } else { "s" }
        ));
    }
    Ok(opts)
}

fn parse_ratio(s: &str, flag: &str) -> Result<f64, String> {
    let v: f64 = s
        .parse()
        .map_err(|_| format!("{flag} expects a number, got `{s}`"))?;
    if !v.is_finite() || v <= 0.0 {
        return Err(format!("{flag} must be a positive finite ratio"));
    }
    Ok(v)
}

// ---------------------------------------------------------------- ingest

/// Flattens one input file into `key -> number`. Whole-document JSON
/// (BENCH artifacts) is flattened recursively; anything else is treated
/// as fhp-obs NDJSON where each counter line contributes
/// `name -> fields.value` (last write wins, matching "final snapshot").
fn ingest(path: &str, text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    if let Ok(doc) = json::parse(text) {
        flatten(&doc, "", &mut out).map_err(|e| format!("{path}: {e}"))?;
    } else {
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let event = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            let Some(Json::Str(name)) = event.get("name") else {
                return Err(format!("{path}:{}: event has no string `name`", i + 1));
            };
            let value = event
                .get("fields")
                .and_then(|f| f.get("value"))
                .and_then(|v| match v {
                    Json::Num(n) => Some(*n),
                    _ => None,
                });
            if let Some(v) = value {
                out.insert(name.clone(), v);
            }
        }
    }
    if out.is_empty() {
        return Err(format!("{path}: no numeric metrics found"));
    }
    Ok(out)
}

/// Recursive flattening: objects join keys with `.`; arrays of objects
/// are keyed by their `name`/`signals` member (falling back to the
/// index) so tiers and instances stay aligned across files; numeric
/// arrays (per-thread wall sweeps) collapse to their minimum — the same
/// min-of-N statistic the benches gate on.
///
/// # Errors
///
/// Two items of one array that flatten to the same label: the later
/// would overwrite the earlier, and the gate would compare only one.
fn flatten(value: &Json, prefix: &str, out: &mut BTreeMap<String, f64>) -> Result<(), String> {
    let key = |leaf: &str| {
        if prefix.is_empty() {
            leaf.to_string()
        } else {
            format!("{prefix}.{leaf}")
        }
    };
    match value {
        Json::Num(n) => {
            if !prefix.is_empty() {
                out.insert(prefix.to_string(), *n);
            }
        }
        Json::Bool(b) => {
            if !prefix.is_empty() {
                out.insert(prefix.to_string(), f64::from(u8::from(*b)));
            }
        }
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                flatten(v, &key(k), out)?;
            }
        }
        Json::Arr(items) => {
            let nums: Vec<f64> = items
                .iter()
                .filter_map(|v| match v {
                    Json::Num(n) => Some(*n),
                    _ => None,
                })
                .collect();
            if nums.len() == items.len() && !items.is_empty() {
                let min = nums.iter().copied().fold(f64::INFINITY, f64::min);
                out.insert(key("min"), min);
            } else {
                let mut labels = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    let label = item
                        .get("name")
                        .and_then(|v| match v {
                            Json::Str(s) => Some(s.clone()),
                            _ => None,
                        })
                        .or_else(|| {
                            item.get("signals").and_then(|v| match v {
                                Json::Num(n) => Some(fmt_num(*n)),
                                _ => None,
                            })
                        })
                        .unwrap_or_else(|| i.to_string());
                    let item_key = key(&label);
                    if labels.contains(&label) {
                        return Err(format!("two items of one array flatten to `{item_key}`"));
                    }
                    flatten(item, &item_key, out)?;
                    labels.push(label);
                }
            }
        }
        Json::Str(_) | Json::Null => {}
    }
    Ok(())
}

// ---------------------------------------------------------------- classes

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum KeyClass {
    /// Wall-clock and ratios: noisy, thresholded loosely.
    Timing,
    /// Configuration / instance identity: equality expected; a mismatch
    /// means the comparison itself is questionable.
    Identity,
    /// Deterministic work counters: any increase is a real regression.
    Count,
}

fn classify(key: &str) -> KeyClass {
    let leaf = key.rsplit('.').next().unwrap_or(key);
    const IDENTITY: [&str; 15] = [
        "bench",
        "smoke",
        "seed",
        "starts",
        "threads",
        "signals",
        "modules",
        "pins",
        "cap_ratio",
        "samples",
        "budget_ratio",
        "threshold",
        "chosen_start",
        "hub_signals",
        "hub_modules",
    ];
    if IDENTITY.contains(&leaf) {
        return KeyClass::Identity;
    }
    if key.contains("wall") || key.ends_with("_ns") || key.contains("ratio") || key.contains("dur")
    {
        return KeyClass::Timing;
    }
    KeyClass::Count
}

// ---------------------------------------------------------------- compare

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Ok,
    Improved,
    Regression,
    Mismatch,
    /// A baseline key of a compared class that the current file lacks.
    Missing,
}

#[derive(Debug)]
struct Delta {
    key: String,
    class: KeyClass,
    base: f64,
    /// `None` when the current file lacks the key.
    cur: Option<f64>,
    ratio: f64,
    status: Status,
}

fn compare(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    opts: &Options,
) -> Vec<Delta> {
    let mut deltas = Vec::new();
    for (key, &base) in baseline {
        let class = classify(key);
        if opts.counts_only && class == KeyClass::Timing {
            continue;
        }
        let Some(&cur) = current.get(key) else {
            deltas.push(Delta {
                key: key.clone(),
                class,
                base,
                cur: None,
                ratio: f64::NAN,
                status: Status::Missing,
            });
            continue;
        };
        let ratio = if base == 0.0 {
            if cur == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            cur / base
        };
        let status = match class {
            KeyClass::Identity => {
                if (cur - base).abs() < 1e-9 {
                    Status::Ok
                } else {
                    Status::Mismatch
                }
            }
            KeyClass::Timing => {
                if ratio > opts.threshold {
                    Status::Regression
                } else if ratio < 1.0 / opts.threshold {
                    Status::Improved
                } else {
                    Status::Ok
                }
            }
            KeyClass::Count => {
                // Strict: counts are seed-deterministic, so the epsilon
                // only absorbs float representation, not real drift.
                if ratio > opts.count_threshold + 1e-9 {
                    Status::Regression
                } else if ratio < 1.0 - 1e-9 {
                    Status::Improved
                } else {
                    Status::Ok
                }
            }
        };
        deltas.push(Delta {
            key: key.clone(),
            class,
            base,
            cur: Some(cur),
            ratio,
            status,
        });
    }
    deltas
}

// ---------------------------------------------------------------- output

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn class_name(class: KeyClass) -> &'static str {
    match class {
        KeyClass::Timing => "timing",
        KeyClass::Identity => "identity",
        KeyClass::Count => "count",
    }
}

fn status_name(status: Status) -> &'static str {
    match status {
        Status::Ok => "ok",
        Status::Improved => "improved",
        Status::Regression => "REGRESSION",
        Status::Mismatch => "mismatch",
        Status::Missing => "MISSING",
    }
}

fn report_markdown(base_path: &str, cur_path: &str, deltas: &[Delta]) {
    println!("## fhp-perf: `{cur_path}` vs `{base_path}`");
    println!();
    let interesting: Vec<&Delta> = deltas.iter().filter(|d| d.status != Status::Ok).collect();
    let (regressions, improved, mismatches) = tally(deltas);
    println!(
        "{} comparable keys · {} regressions · {} missing · {} improvements · {} identity mismatches",
        deltas.len(),
        regressions,
        count(deltas, Status::Missing),
        improved,
        mismatches
    );
    if interesting.is_empty() {
        println!();
        println!("No deltas beyond thresholds.");
        return;
    }
    println!();
    println!("| key | class | baseline | current | ratio | status |");
    println!("|-----|-------|----------|---------|-------|--------|");
    for d in interesting {
        let (cur, ratio) = match d.cur {
            Some(cur) => (fmt_num(cur), format!("{:.3}", d.ratio)),
            None => ("—".to_string(), "—".to_string()),
        };
        println!(
            "| `{}` | {} | {} | {cur} | {ratio} | {} |",
            d.key,
            class_name(d.class),
            fmt_num(d.base),
            status_name(d.status)
        );
    }
}

fn report_ndjson(base_path: &str, cur_path: &str, deltas: &[Delta]) {
    for d in deltas {
        let (cur, ratio) = match d.cur {
            Some(cur) => (fmt_num(cur), format!("{:.6}", d.ratio)),
            None => ("null".to_string(), "null".to_string()),
        };
        println!(
            "{{\"baseline\":\"{}\",\"current\":\"{}\",\"key\":\"{}\",\"class\":\"{}\",\"base\":{},\"cur\":{cur},\"ratio\":{ratio},\"status\":\"{}\"}}",
            json_escape(base_path),
            json_escape(cur_path),
            json_escape(&d.key),
            class_name(d.class),
            fmt_num(d.base),
            status_name(d.status)
        );
    }
}

fn count(deltas: &[Delta], status: Status) -> usize {
    deltas.iter().filter(|d| d.status == status).count()
}

fn tally(deltas: &[Delta]) -> (usize, usize, usize) {
    (
        count(deltas, Status::Regression),
        count(deltas, Status::Improved),
        count(deltas, Status::Mismatch),
    )
}

fn normalize_line(path: &str, metrics: &BTreeMap<String, f64>) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"file\":\"");
    out.push_str(&json_escape(path));
    out.push_str("\",\"metrics\":{");
    for (i, (k, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&json_escape(k));
        out.push_str("\":");
        out.push_str(&fmt_num(*v));
    }
    out.push_str("}}");
    out
}

// ------------------------------------------------------------------ main

fn run(opts: &Options) -> Result<bool, String> {
    let mut ingested = Vec::new();
    for path in &opts.files {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
        ingested.push((path.clone(), ingest(path, &text)?));
    }

    if opts.normalize {
        for (path, metrics) in &ingested {
            println!("{}", normalize_line(path, metrics));
        }
        return Ok(false);
    }

    let Some(((base_path, baseline), rest)) = ingested.split_first() else {
        return Err("need a baseline and at least one current file".to_string());
    };
    let mut any_regression = false;
    for (cur_path, current) in rest {
        let deltas = compare(baseline, current, opts);
        if deltas.iter().all(|d| d.status == Status::Missing) {
            return Err(format!(
                "{base_path} and {cur_path} share no comparable keys — refusing to pass vacuously"
            ));
        }
        if opts.ndjson {
            report_ndjson(base_path, cur_path, &deltas);
        } else {
            report_markdown(base_path, cur_path, &deltas);
        }
        let (regressions, _, _) = tally(&deltas);
        any_regression |= regressions + count(&deltas, Status::Missing) > 0;
    }
    Ok(any_regression)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("fhp-perf: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("fhp-perf: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
        "bench": "scaling", "smoke": true, "seed": 1,
        "tiers": [
            {"signals": 1000, "pairs_generated": 500, "streaming_passes": 4,
             "streaming_wall_ns": [100000, 90000, 95000], "cut_size": 42}
        ]
    }"#;

    fn with(base: &str, from: &str, to: &str) -> String {
        assert!(base.contains(from), "fixture edit must apply");
        base.replace(from, to)
    }

    fn opts() -> Options {
        Options {
            files: vec!["a".into(), "b".into()],
            ..Options::default()
        }
    }

    #[test]
    fn flatten_keys_tiers_by_signals_and_collapses_sweeps_to_min() {
        let m = ingest("base", BASE).unwrap();
        assert_eq!(m["tiers.1000.pairs_generated"], 500.0);
        assert_eq!(m["tiers.1000.streaming_wall_ns.min"], 90000.0);
        assert_eq!(m["smoke"], 1.0);
        assert!(!m.contains_key("bench"), "strings are not metrics");
    }

    #[test]
    fn ndjson_ingest_takes_last_counter_value() {
        let stream = concat!(
            "{\"name\":\"progress.starts_done\",\"kind\":\"counter\",\"start_ns\":0,\"dur_ns\":0,",
            "\"start_index\":null,\"thread\":0,\"stack\":\"\",\"fields\":{\"value\":3}}\n",
            "{\"name\":\"progress.starts_done\",\"kind\":\"counter\",\"start_ns\":0,\"dur_ns\":0,",
            "\"start_index\":null,\"thread\":0,\"stack\":\"\",\"fields\":{\"value\":8}}\n",
        );
        let m = ingest("stream", stream).unwrap();
        assert_eq!(m["progress.starts_done"], 8.0);
    }

    #[test]
    fn classification_covers_the_three_classes() {
        assert_eq!(
            classify("tiers.1000.streaming_wall_ns.min"),
            KeyClass::Timing
        );
        assert_eq!(classify("disabled_ratio"), KeyClass::Timing);
        assert_eq!(classify("tiers.1000.signals"), KeyClass::Identity);
        assert_eq!(classify("seed"), KeyClass::Identity);
        assert_eq!(classify("tiers.1000.streaming_passes"), KeyClass::Count);
        assert_eq!(classify("progress.best_cut"), KeyClass::Count);
    }

    /// The self-test the CI gate depends on: an injected 2× wall-time
    /// slowdown must be flagged as a regression at the default 1.5
    /// threshold.
    #[test]
    fn injected_2x_slowdown_is_flagged() {
        let slow = with(BASE, "[100000, 90000, 95000]", "[200000, 180000, 190000]");
        let base = ingest("base", BASE).unwrap();
        let cur = ingest("cur", &slow).unwrap();
        let deltas = compare(&base, &cur, &opts());
        let wall = deltas
            .iter()
            .find(|d| d.key == "tiers.1000.streaming_wall_ns.min")
            .unwrap();
        assert_eq!(wall.status, Status::Regression);
        assert!((wall.ratio - 2.0).abs() < 1e-9);
        assert_eq!(tally(&deltas).0, 1, "only the injected key regresses");
    }

    #[test]
    fn identical_files_and_improvements_pass() {
        let base = ingest("base", BASE).unwrap();
        let same = compare(&base, &base, &opts());
        assert_eq!(tally(&same), (0, 0, 0));

        let faster = with(BASE, "[100000, 90000, 95000]", "[40000, 41000, 39000]");
        let fewer = with(
            &faster,
            "\"streaming_passes\": 4",
            "\"streaming_passes\": 2",
        );
        let cur = ingest("cur", &fewer).unwrap();
        let deltas = compare(&base, &cur, &opts());
        let (regressions, improved, mismatches) = tally(&deltas);
        assert_eq!(regressions, 0);
        assert_eq!(mismatches, 0);
        assert!(improved >= 2, "both the sweep and the pass count improved");
    }

    #[test]
    fn count_increase_is_strict_and_counts_only_mutes_timing() {
        let worse = with(BASE, "\"cut_size\": 42", "\"cut_size\": 43");
        let slow = with(&worse, "[100000, 90000, 95000]", "[300000, 300000, 300000]");
        let base = ingest("base", BASE).unwrap();
        let cur = ingest("cur", &slow).unwrap();

        let all = compare(&base, &cur, &opts());
        assert_eq!(tally(&all).0, 2, "cut increase and 3x slowdown both flag");

        let counts_only = Options {
            counts_only: true,
            ..opts()
        };
        let deltas = compare(&base, &cur, &counts_only);
        assert_eq!(tally(&deltas).0, 1, "timing muted, cut regression kept");
        assert!(deltas.iter().all(|d| d.class != KeyClass::Timing));
    }

    #[test]
    fn identity_mismatch_warns_but_does_not_regress() {
        let other = with(BASE, "\"seed\": 1", "\"seed\": 2");
        let base = ingest("base", BASE).unwrap();
        let cur = ingest("cur", &other).unwrap();
        let deltas = compare(&base, &cur, &opts());
        let (regressions, _, mismatches) = tally(&deltas);
        assert_eq!(regressions, 0);
        assert_eq!(mismatches, 1);
    }

    #[test]
    fn normalize_emits_sorted_parseable_ndjson() {
        let m = ingest("base", BASE).unwrap();
        let line = normalize_line("BENCH_scaling.json", &m);
        let doc = json::parse(&line).unwrap();
        assert_eq!(
            doc.get("file"),
            Some(&Json::Str("BENCH_scaling.json".into()))
        );
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.get("tiers.1000.cut_size"), Some(&Json::Num(42.0)));
        // Sorted key order makes history lines diffable.
        let keys: Vec<&String> = m.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn disjoint_files_are_an_error_not_a_pass() {
        let base = ingest("base", BASE).unwrap();
        let other = ingest("other", r#"{"totally": {"different": 1}}"#).unwrap();
        let deltas = compare(&base, &other, &opts());
        assert!(
            deltas.iter().all(|d| d.status == Status::Missing),
            "run() turns this into a hard error"
        );
    }

    /// A key the baseline gates and the current file lacks fails as
    /// missing — count and identity keys always, timing keys unless
    /// `--counts-only` mutes their class.
    #[test]
    fn a_key_missing_from_the_current_file_fails() {
        let base = ingest("base", BASE).unwrap();
        for (key, class) in [
            ("tiers.1000.streaming_passes", KeyClass::Count),
            ("seed", KeyClass::Identity),
            ("tiers.1000.streaming_wall_ns.min", KeyClass::Timing),
        ] {
            let mut cur = base.clone();
            cur.remove(key);
            let deltas = compare(&base, &cur, &opts());
            let gone: Vec<&Delta> = deltas
                .iter()
                .filter(|d| d.status == Status::Missing)
                .collect();
            assert_eq!(gone.len(), 1, "{key}");
            assert_eq!((gone[0].key.as_str(), gone[0].class), (key, class));
            assert_eq!(gone[0].cur, None);

            let counts_only = Options {
                counts_only: true,
                ..opts()
            };
            let muted = compare(&base, &cur, &counts_only)
                .iter()
                .filter(|d| d.status == Status::Missing)
                .count();
            assert_eq!(muted, usize::from(class != KeyClass::Timing), "{key}");
        }
    }

    /// Items of one array that flatten to the same label would overwrite
    /// each other, so the gate would compare only the last: an input
    /// error, not a silent merge.
    #[test]
    fn array_items_with_one_label_are_an_input_error() {
        let rows = r#"{"circuit": [
            {"signals": 500, "threads": 1, "pairs_generated": 3288},
            {"signals": 500, "threads": 8, "pairs_generated": 3288}
        ]}"#;
        let err = ingest("dup", rows).unwrap_err();
        assert!(err.contains("circuit.500"), "{err}");
        let distinct = rows.replace(
            "\"signals\": 500, \"threads\": 8",
            "\"signals\": 1000, \"threads\": 8",
        );
        let m = ingest("distinct", &distinct).unwrap();
        assert_eq!(m["circuit.1000.threads"], 8.0);
        assert_eq!(m["circuit.500.threads"], 1.0);
    }
}
