//! `fhp-bench run`: every workload, round-robin for 3 rounds so that
//! host drift spreads over all of them, then optionally one traced round.
//! Prints `<workload> <metric> <value> <unit>` (medians over the rounds)
//! and writes a result file that `fhp-bench compare` reads.

use std::collections::BTreeMap;
use std::path::Path;

use fhp_obs::writer::{json_escape, put};

use crate::metrics::{Outcome, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workload::{Scale, Workload, THREADS};
use crate::{measure, write_file, Args, DEFAULT_SECONDS};

/// Rounds of every workload at full size.
const ROUNDS: u64 = 3;
/// Measuring seconds per workload at smoke size.
const SMOKE_SECONDS: f64 = 0.2;

/// One reported (workload, metric) with its per-round values.
struct Row {
    workload: &'static str,
    metric: String,
    unit: &'static str,
    values: Vec<f64>,
}

/// `fhp-bench run [--seed N] [--smoke] [--trace FILE] [--out FILE]`.
pub fn run_main(args: &Args) -> Result<(), String> {
    let scale = args.scale();
    let (rounds, seconds) = match scale {
        Scale::Full => (ROUNDS, DEFAULT_SECONDS),
        Scale::Smoke => (1, SMOKE_SECONDS),
    };
    let seed = args.integer("seed", 1)?;

    let mut rounds_of: BTreeMap<&'static str, Vec<Outcome>> = BTreeMap::new();
    for round in 1..=rounds {
        for w in Workload::ALL {
            eprintln!("fhp-bench: round {round}/{rounds}: {}", w.name());
            let (outcome, _) = measure(w, seed, seconds, false, scale, args)?;
            rounds_of.entry(w.name()).or_default().push(outcome);
        }
    }
    let mut traced: BTreeMap<&'static str, Outcome> = BTreeMap::new();
    if let Some(path) = args.get("trace") {
        let mut ndjson = Vec::new();
        for w in Workload::ALL {
            eprintln!("fhp-bench: traced round: {}", w.name());
            let (outcome, trace) = measure(w, seed, seconds, true, scale, args)?;
            ndjson.extend_from_slice(&trace);
            traced.insert(w.name(), outcome);
        }
        write_file(Path::new(path), &ndjson)?;
    }

    let mut problems = Vec::new();
    let mut rows = Vec::new();
    for w in Workload::ALL {
        let outcomes = rounds_of
            .get(w.name())
            .map(Vec::as_slice)
            .unwrap_or_default();
        let traced_outcome = traced.get(w.name());
        let digests: Vec<&str> = outcomes
            .iter()
            .chain(traced_outcome)
            .map(|o| o.digest.as_str())
            .collect();
        if digests.windows(2).any(|d| d.first() != d.last()) {
            problems.push(format!("{}: the output differs between rounds", w.name()));
        }
        for o in outcomes.iter().chain(traced_outcome) {
            if !o.all_correct() {
                problems.push(format!(
                    "{}: {} of {} operations failed or a check failed",
                    w.name(),
                    o.failed,
                    o.attempted
                ));
            }
        }
        for metric in END_TO_END {
            rows.push(Row {
                workload: w.name(),
                metric: metric.name.to_string(),
                unit: metric.unit,
                values: outcomes
                    .iter()
                    .filter_map(|o| o.values.get(metric.name).copied())
                    .collect(),
            });
        }
        // The cut and the failure share are deterministic for a seed:
        // `compare` holds them to exact equality.
        rows.push(Row {
            workload: w.name(),
            metric: "cut".to_string(),
            unit: "nets",
            values: outcomes
                .iter()
                .filter_map(|o| o.values.get("cut").copied())
                .collect(),
        });
        rows.push(Row {
            workload: w.name(),
            metric: "failed_frac".to_string(),
            unit: "ratio",
            values: outcomes
                .iter()
                .map(|o| o.failed as f64 / o.attempted.max(1) as f64)
                .collect(),
        });
        if let Some(o) = traced_outcome {
            for (metric, value) in o.reported(true, w.layers())? {
                rows.push(Row {
                    workload: w.name(),
                    metric: metric.name.to_string(),
                    unit: metric.unit,
                    values: vec![value],
                });
            }
        }
    }

    for row in &rows {
        println!(
            "{} {} {} {}",
            row.workload,
            row.metric,
            median(&row.values),
            row.unit
        );
    }
    if let Some(out) = args.get("out") {
        let text = result_file(args, seed, rounds, seconds, &rounds_of, &rows);
        write_file(Path::new(out), text.as_bytes())?;
        eprintln!("fhp-bench: results written to {out}");
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// The result file: a header describing the host, build and instances,
/// then every row's values with their median, quartiles and count.
fn result_file(
    args: &Args,
    seed: u64,
    rounds: u64,
    seconds: f64,
    rounds_of: &BTreeMap<&'static str, Vec<Outcome>>,
    rows: &[Row],
) -> String {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::new();
    put(
        &mut out,
        format_args!(
            "{{\n\"header\":{{\"available_parallelism\":{parallelism},\"threads\":{THREADS},\
             \"seed\":{seed},\"rounds\":{rounds},\"seconds\":{seconds},\"smoke\":{},\
             \"rustc\":\"{}\",\"git_head\":\"{}\",\"host_probe_ms\":{},\"instances\":{{",
            args.scale() == Scale::Smoke,
            json_escape(env!("FHP_BENCH_RUSTC")),
            json_escape(&git_head()),
            number_list(
                &rounds_of
                    .values()
                    .flatten()
                    .filter_map(|o| o.values.get("host.probe_ms").copied())
                    .collect::<Vec<f64>>()
            ),
        ),
    );
    for (i, w) in Workload::ALL.iter().enumerate() {
        let first = rounds_of.get(w.name()).and_then(|o| o.first());
        let stat = |key: &str| {
            first
                .and_then(|o| o.values.get(&format!("instance.{key}")).copied())
                .unwrap_or(0.0)
        };
        put(
            &mut out,
            format_args!(
                "{}\"{}\":{{\"modules\":{},\"signals\":{},\"pins\":{},\"pairs_generated\":{}}}",
                if i > 0 { "," } else { "" },
                w.name(),
                stat("modules"),
                stat("signals"),
                stat("pins"),
                stat("pairs_generated")
            ),
        );
    }
    out.push_str("}},\n\"results\":{");
    let mut current = "";
    for row in rows {
        if row.workload != current {
            if !current.is_empty() {
                out.push_str("},");
            }
            put(&mut out, format_args!("\n\"{}\":{{", row.workload));
            current = row.workload;
        } else {
            out.push(',');
        }
        let (q1, q3) = quartiles(&row.values);
        put(
            &mut out,
            format_args!(
                "\n  \"{}\":{{\"unit\":\"{}\",\"n\":{},\"median\":{},\"q1\":{q1},\"q3\":{q3},\"values\":{}}}",
                json_escape(&row.metric),
                json_escape(row.unit),
                row.values.len(),
                median(&row.values),
                number_list(&row.values)
            ),
        );
    }
    if !current.is_empty() {
        out.push('}');
    }
    out.push_str("\n}\n}\n");
    out
}

fn number_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// The checkout's git HEAD commit, read from `.git` directly; `unknown`
/// outside a git checkout.
fn git_head() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}
