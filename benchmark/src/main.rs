//! `fhp-bench` — the fhp benchmark driver.
//!
//! ```text
//! fhp-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--trace-file FILE] [--smoke] [--fhp PATH]
//! fhp-bench run [--seed N] [--smoke] [--trace FILE] [--out FILE] [--fhp PATH]
//! fhp-bench compare A.json B.json [--benchmark BENCHMARK.json]
//! fhp-bench inputs --workload <name> --seed <n> [--smoke] [--out DIR]
//! ```
//!
//! The first form measures one workload once and prints one result line
//! (`correct`, `attempted`, `failed`, `metrics`): the end-to-end metrics,
//! or with `--trace 1` the per-layer metrics of a traced run, whose trace
//! is written as NDJSON to `--trace-file` (default
//! `$CARGO_TARGET_DIR/fhp-bench/trace-<workload>-seed<n>.ndjson`); a
//! traced batch run whose layers leave more than 10% of its wall time
//! unattributed reports `correct: false`. `run`
//! cycles through every workload for 3 rounds and writes a result
//! file that `compare` sets against another. `inputs` writes one
//! workload's generated inputs. See `benchmark/README.md`.
//!
//! Every input is generated from `--seed`; the program under test sees
//! only the generated `.hgr` text (batch workloads, measured in a child
//! process this binary re-executes itself as) or NDJSON requests
//! (`serve-edit`, against the `fhp` binary given by `--fhp`, default the
//! `fhp` next to this executable).

mod batch;
mod clock;
mod compare;
mod metrics;
mod run;
mod serve;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use metrics::Outcome;
use workload::{Scale, Workload};

// Batch children report peak heap bytes through the same counting
// allocator shim the `fhp` CLI installs.
fhp_obs::install_counting_allocator!();

/// A measurement's trace: NDJSON lines, written out at exit.
pub type Trace = Vec<u8>;

/// Measuring seconds per workload and run: `run_seconds` in
/// `BENCHMARK.json`, and the default of `--seconds`.
pub const DEFAULT_SECONDS: f64 = 20.0;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fhp-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(argv: &[String]) -> Result<(), String> {
    const BENCH: &[&str] = &[
        "workload",
        "seed",
        "seconds",
        "trace",
        "trace-file",
        "smoke",
        "fhp",
    ];
    const RUN: &[&str] = &["seed", "smoke", "trace", "out", "fhp"];
    // `--fhp PATH` may also come before the subcommand, as `run.sh`
    // passes it.
    let (fhp, argv) = match argv {
        [flag, path, rest @ ..] if flag == "--fhp" => (Some(path), rest),
        _ => (None, argv),
    };
    let parse = |rest: &[String], known: &[&str]| -> Result<Args, String> {
        let mut args = Args::parse(rest, known)?;
        if let Some(path) = fhp {
            args.values
                .entry("fhp".to_string())
                .or_insert_with(|| path.clone());
        }
        Ok(args)
    };
    let rest = argv.get(1..).unwrap_or_default();
    match argv.first().map(String::as_str) {
        Some("run") => run::run_main(&parse(rest, RUN)?),
        Some("compare") => compare::compare_main(&parse(rest, &["benchmark", "fhp"])?),
        Some("inputs") => inputs_main(&parse(rest, &["workload", "seed", "smoke", "out", "fhp"])?),
        Some("child") => batch::child_main(&parse(
            rest,
            &["workload", "seconds", "trace", "smoke", "fhp"],
        )?),
        Some(first) if first.starts_with("--") => bench_main(&parse(argv, BENCH)?),
        _ => Err(
            "usage: fhp-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
             | run | compare A.json B.json | inputs --workload <name> --seed <n>"
                .to_string(),
        ),
    }
}

/// Command-line options: `--name value` pairs, bare `--smoke`, and
/// positional arguments.
pub struct Args {
    values: BTreeMap<String, String>,
    smoke: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(argv: &[String], known: &[&str]) -> Result<Self, String> {
        let mut args = Args {
            values: BTreeMap::new(),
            smoke: false,
            positional: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                args.positional.push(arg.clone());
                continue;
            };
            if !known.contains(&name) {
                return Err(format!("unknown option `{arg}`"));
            }
            if name == "smoke" {
                args.smoke = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("`{arg}` expects a value"))?;
            args.values.insert(name.to_string(), value.clone());
        }
        Ok(args)
    }

    /// The value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// The value of `--key`, which must be given.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing `--{key}`"))
    }

    /// `--key` as a positive number, or `default`.
    pub fn number(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => match v.parse::<f64>() {
                Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
                _ => Err(format!("`--{key}` must be a positive number, not `{v}`")),
            },
        }
    }

    /// `--key` as a whole number, or `default`.
    pub fn integer(&self, key: &str, default: u64) -> Result<u64, String> {
        self.get(key).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("`--{key}` must be a whole number, not `{v}`"))
        })
    }

    /// `--key 0|1` (default 0).
    pub fn flag01(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(v) => Err(format!("`--{key}` must be 0 or 1, not `{v}`")),
        }
    }

    /// `--smoke` selects the smoke-size inputs.
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }

    /// Positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

/// The `fhp` binary `serve-edit` drives: `--fhp`, else the `fhp` next to
/// this executable.
pub fn fhp_binary(args: &Args) -> Result<PathBuf, String> {
    let path = match args.get("fhp") {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate this executable: {e}"))?
            .with_file_name("fhp"),
    };
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "no fhp binary at {} (build it, or pass --fhp)",
            path.display()
        ))
    }
}

/// Measures `workload` once on the inputs of `seed`: in the batch child,
/// or through the serve sessions.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    args: &Args,
) -> Result<(Outcome, Trace), String> {
    if workload.is_batch() {
        let texts = workload.inputs(seed, scale)?;
        run_child(workload, &texts, seconds, traced, scale)
    } else {
        let instances = (0..workload.instances())
            .map(|i| workload.instance(seed, i, scale))
            .collect::<Result<Vec<_>, String>>()?;
        serve::measure(&fhp_binary(args)?, &instances, seed, seconds, traced, scale)
    }
}

/// Runs a batch measurement in a fresh child process (this executable,
/// `child` subcommand), feeding it the framed `.hgr` texts on stdin.
fn run_child(
    workload: Workload,
    texts: &[String],
    seconds: f64,
    traced: bool,
    scale: Scale,
) -> Result<(Outcome, Trace), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", workload.name(), "--seconds"])
        .arg(seconds.to_string())
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start the measuring child: {e}"))?;
    let stdin = child.stdin.take();
    // The child reads one instance at a time, so the input is written
    // from a second thread while this one collects the output.
    let (output, fed) = std::thread::scope(|s| {
        let feeder = s.spawn(move || -> std::io::Result<()> {
            let mut stdin = stdin.ok_or_else(|| std::io::Error::other("no stdin pipe"))?;
            texts
                .iter()
                .try_for_each(|t| batch::write_frame(&mut stdin, t))
        });
        let output = child.wait_with_output();
        (output, feeder.join())
    });
    let output = output.map_err(|e| format!("cannot wait for the measuring child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "the {} child exited with {}",
            workload.name(),
            output.status
        ));
    }
    match fed {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("cannot feed the measuring child: {e}")),
        Err(_) => return Err("the input feeder panicked".to_string()),
    }
    let stdout = output.stdout;
    let body = stdout.strip_suffix(b"\n").unwrap_or(&stdout);
    let split = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let (trace, last) = body.split_at(split);
    let last = std::str::from_utf8(last).map_err(|_| "the child's result is not UTF-8")?;
    Ok((Outcome::parse_internal(last)?, trace.to_vec()))
}

/// Where a traced run's NDJSON goes unless `--trace-file` says otherwise:
/// under the build directory, which `.gitignore` already covers.
fn default_trace_path(workload: Workload, seed: u64) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    dir.join("fhp-bench")
        .join(format!("trace-{}-seed{seed}.ndjson", workload.name()))
}

/// Writes `bytes` to `path`, creating its directory.
pub fn write_file(path: &Path, bytes: &[u8]) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `fhp-bench --workload W --seed N --seconds S --trace 0|1`.
fn bench_main(args: &Args) -> Result<(), String> {
    let workload = Workload::parse(args.required("workload")?)?;
    let seed = args.integer("seed", 1)?;
    let seconds = args.number("seconds", DEFAULT_SECONDS)?;
    let traced = args.flag01("trace")?;
    let (outcome, trace) = measure(workload, seed, seconds, traced, args.scale(), args)?;
    eprintln!(
        "fhp-bench: {} seed {seed}: host probe {:.1} ms",
        workload.name(),
        outcome.values.get("host.probe_ms").copied().unwrap_or(0.0)
    );
    let line = outcome.result_line(traced, workload.layers())?;
    if traced {
        let path = args
            .get("trace-file")
            .map_or_else(|| default_trace_path(workload, seed), PathBuf::from);
        write_file(&path, &trace)?;
        eprintln!("fhp-bench: trace written to {}", path.display());
    }
    println!("{line}");
    Ok(())
}

/// `fhp-bench inputs --workload W --seed N [--out DIR]`: the size and
/// digest of each generated input, and optionally the inputs themselves
/// (`DIR/instance-<i>.hgr` or `.ndjson`).
fn inputs_main(args: &Args) -> Result<(), String> {
    let workload = Workload::parse(args.required("workload")?)?;
    let seed = args.integer("seed", 1)?;
    let inputs = workload.inputs(seed, args.scale())?;
    let extension = if workload.is_batch() { "hgr" } else { "ndjson" };
    let mut listed = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        if let Some(dir) = args.get("out") {
            let path = Path::new(dir).join(format!("instance-{i}.{extension}"));
            write_file(&path, input.as_bytes())?;
        }
        listed.push(format!(
            "{{\"bytes\":{},\"digest\":\"{:016x}\"}}",
            input.len(),
            workload::digest(input.as_bytes())
        ));
    }
    println!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"instances\":[{}]}}",
        workload.name(),
        listed.join(",")
    );
    Ok(())
}
