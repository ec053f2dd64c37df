//! Smoke test of the benchmark driver on inputs about 100× smaller than
//! the benchmark's: `fhp-bench run --smoke`, untraced and traced, must
//! emit every metric `BENCHMARK.json` names with its unit, fail nothing,
//! and write a valid trace; the per-workload form must print a last line
//! with exactly `correct`, `attempted`, `failed` and `metrics`; inputs
//! must be a pure function of the seed; and the full-size `partition`
//! request must fit under serve's 1 MiB line cap.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use fhp_obs::json::{self, Json};

const BENCH: &str = env!("CARGO_BIN_EXE_fhp-bench");

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository")
        .to_path_buf()
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Builds the `fhp` binary that `serve-edit` drives, into the
/// repository's own target directory.
fn fhp_binary() -> PathBuf {
    let root = repo_root();
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "fhp-cli",
            "--bin",
            "fhp",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .env_remove("CARGO_TARGET_DIR")
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building fhp failed");
    root.join("target").join("release").join("fhp")
}

fn bench(args: &[&str]) -> Output {
    let out = Command::new(BENCH)
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("fhp-bench runs");
    assert!(
        out.status.success(),
        "fhp-bench {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).expect("readable");
    json::parse(&text).expect("valid JSON")
}

fn string<'a>(v: &'a Json, key: &str) -> &'a str {
    match v.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

/// (name, unit) of every metric in one `BENCHMARK.json` list.
fn declared(key: &str) -> Vec<(String, String)> {
    let bench = read_json(&repo_root().join("BENCHMARK.json"));
    let Some(Json::Arr(metrics)) = bench.get(key) else {
        panic!("BENCHMARK.json lacks {key}");
    };
    metrics
        .iter()
        .map(|m| (string(m, "name").to_string(), string(m, "unit").to_string()))
        .collect()
}

fn workloads() -> Vec<String> {
    let bench = read_json(&repo_root().join("BENCHMARK.json"));
    let Some(Json::Arr(ws)) = bench.get("workloads") else {
        panic!("BENCHMARK.json lacks workloads");
    };
    ws.iter().map(|w| string(w, "name").to_string()).collect()
}

#[test]
fn smoke_run_emits_every_declared_metric_and_fails_nothing() {
    let fhp = fhp_binary();
    let result = scratch("smoke-result.json");
    let trace = scratch("smoke-trace.ndjson");
    bench(&[
        "run",
        "--smoke",
        "--seed",
        "3",
        "--out",
        result.to_str().expect("utf-8 path"),
        "--trace",
        trace.to_str().expect("utf-8 path"),
        "--fhp",
        fhp.to_str().expect("utf-8 path"),
    ]);
    let file = read_json(&result);
    let results = file.get("results").expect("results");
    let expected: Vec<(String, String)> = declared("end_to_end")
        .into_iter()
        .chain(declared("per_layer"))
        .collect();
    for workload in workloads() {
        let metrics = results
            .get(&workload)
            .unwrap_or_else(|| panic!("no results for {workload}"));
        for (name, unit) in &expected {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload} does not emit {name}"));
            assert_eq!(string(m, "unit"), unit, "{workload} {name}");
        }
        let Some(Json::Arr(failed)) = metrics.get("failed_frac").and_then(|f| f.get("values"))
        else {
            panic!("{workload} has no failed_frac values");
        };
        assert!(
            failed.iter().all(|v| *v == Json::Num(0.0)),
            "{workload} failed_frac {failed:?}"
        );
    }
    let text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(text.lines().count() > 100, "the trace is nearly empty");
    for line in text.lines() {
        json::validate_trace_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
}

#[test]
fn per_workload_result_line_has_the_declared_keys_and_metrics() {
    let fhp = fhp_binary();
    let fhp = fhp.to_str().expect("utf-8 path");
    let trace = scratch("smoke-workload-trace.ndjson");
    for (workload, traced, key) in [
        ("alg1-stream", "0", "end_to_end"),
        ("serve-edit", "1", "per_layer"),
    ] {
        let out = bench(&[
            "--workload",
            workload,
            "--seed",
            "2",
            "--seconds",
            "0.2",
            "--trace",
            traced,
            "--smoke",
            "--fhp",
            fhp,
            "--trace-file",
            trace.to_str().expect("utf-8 path"),
        ]);
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let last = stdout.lines().last().expect("a result line");
        let Json::Obj(fields) = json::parse(last).expect("the result line is JSON") else {
            panic!("the result line is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let line = Json::Obj(fields);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{last}");
        assert_eq!(line.get("failed"), Some(&Json::Num(0.0)), "{last}");
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics object");
        };
        let emitted: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| (name.clone(), string(m, "unit").to_string()))
            .collect();
        assert_eq!(emitted, declared(key), "{workload} --trace {traced}");
    }
}

/// The generated inputs of `workload` for `seed`, one per instance, in
/// instance order.
fn inputs(workload: &str, seed: &str, name: &str, smoke: bool) -> Vec<Vec<u8>> {
    let dir = scratch(name);
    let dir_str = dir.to_str().expect("utf-8 path").to_string();
    let mut args = vec![
        "inputs",
        "--workload",
        workload,
        "--seed",
        seed,
        "--out",
        &dir_str,
    ];
    if smoke {
        args.push("--smoke");
    }
    bench(&args);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("inputs written")
        .map(|entry| entry.expect("readable entry").path())
        .collect();
    files.sort();
    files
        .iter()
        .map(|f| std::fs::read(f).expect("readable input"))
        .collect()
}

#[test]
fn the_same_seed_gives_byte_identical_inputs() {
    for workload in workloads() {
        let a = inputs(&workload, "5", &format!("{workload}-a"), true);
        let b = inputs(&workload, "5", &format!("{workload}-b"), true);
        let c = inputs(&workload, "6", &format!("{workload}-c"), true);
        assert!(!a.is_empty() && a.iter().all(|input| !input.is_empty()));
        assert_eq!(a, b, "{workload}: seed 5 twice gave different inputs");
        assert_ne!(a, c, "{workload}: seeds 5 and 6 gave the same inputs");
    }
}

#[test]
fn the_full_size_partition_request_fits_under_the_serve_line_cap() {
    for seed in ["1", "2", "3"] {
        for line in inputs("serve-edit", seed, &format!("serve-full-{seed}"), false) {
            // The server reads one request line of at most 1 MiB, newline
            // excluded.
            assert!(
                line.len() < 1 << 20,
                "seed {seed}: a partition request is {} bytes",
                line.len()
            );
        }
    }
}
