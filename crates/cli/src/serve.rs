//! `fhp serve` — partition-as-a-service over NDJSON.
//!
//! One JSON object per line in, one JSON object per line out, over stdin
//! (default) or TCP (`--tcp`). Verbs: `partition`, `edit`, `query_cut`,
//! `fingerprint`, `stats`, `shutdown`. Malformed input of any kind gets a
//! typed error reply (`{"id":…,"ok":false,"error":{"kind":…,"detail":…}}`)
//! and never crashes the server or wedges the loop — the next well-formed
//! request is answered normally.
//!
//! Replies are emitted in canonical JSON form (fixed key order, no
//! spaces). Every reply field except the `serve.lat.*` latency keys in
//! `stats` is deterministic — the same initial instance plus the same
//! edit sequence yields byte-identical canonicalized replies at every
//! `--threads` value (see `fhp_obs::json::canonicalize_volatile`).
//!
//! The live metrics surface is the engine gauge registry (`engine.edits`,
//! `engine.incremental_hits`, `engine.full_recomputes`), streamable with
//! `--metrics`/`--metrics-interval` exactly like a batch run.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use fhp_core::{Edit, EngineConfig, EngineError, PartitionConfig, PartitionEngine, MAX_STARTS};
use fhp_hypergraph::HypergraphBuilder;
use fhp_obs::json::{self, Json};
use fhp_obs::{names, Gauge, Progress};

use crate::telemetry::{Telemetry, TelemetryArgs};

/// Hard cap on one request line; longer input gets an `oversized` error.
/// The reader never buffers more than this (plus one byte) per line, so a
/// client streaming bytes without a newline cannot grow server memory.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Cap on the summed weight of all live nets (2^53 − 1). `cut` reply
/// fields are sums of net weights emitted as JSON numbers, which are
/// exact only up to 2^53; fingerprints already travel as strings, and
/// this cap keeps every numeric reply field exact instead of silently
/// rounding. Enforced at `partition` load and on `add_net` edits.
const MAX_TOTAL_NET_WEIGHT: u64 = (1 << 53) - 1;

struct ServeOptions {
    tcp: Option<String>,
    threads: usize,
    seed: u64,
    starts: usize,
    damage_permille: u32,
    telemetry: TelemetryArgs,
}

fn parse_serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions {
        tcp: None,
        threads: 0,
        seed: 0,
        starts: 8,
        damage_permille: 250,
        telemetry: TelemetryArgs::default(),
    };
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, name: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{name} expects a value"))
    };
    while i < args.len() {
        // fhp-audit: allow(panic-site) — loop condition bounds i below args.len()
        match args[i].as_str() {
            "--tcp" => {
                // Optional address operand: `--tcp 127.0.0.1:9000` binds
                // there, bare `--tcp` picks an ephemeral localhost port.
                let next = args.get(i + 1);
                if let Some(addr) = next.filter(|a| !a.starts_with('-')) {
                    opts.tcp = Some(addr.clone());
                    i += 1;
                } else {
                    opts.tcp = Some("127.0.0.1:0".to_string());
                }
            }
            "--threads" => {
                opts.threads = value(args, &mut i, "--threads")?
                    .parse()
                    .map_err(|_| "threads must be an integer (0 = auto)".to_string())?
            }
            "--seed" => {
                opts.seed = value(args, &mut i, "--seed")?
                    .parse()
                    .map_err(|_| "seed must be an integer".to_string())?
            }
            "-s" | "--starts" => {
                opts.starts = value(args, &mut i, "--starts")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=MAX_STARTS).contains(s))
                    .ok_or_else(|| format!("starts must be an integer in 1..={MAX_STARTS}"))?
            }
            "--damage-permille" => {
                opts.damage_permille = value(args, &mut i, "--damage-permille")?
                    .parse()
                    .map_err(|_| "damage permille must be an integer 0..=1000".to_string())?
            }
            other => {
                if !opts.telemetry.take(other, || value(args, &mut i, other))? {
                    return Err(format!("unknown serve option `{other}`"));
                }
            }
        }
        i += 1;
    }
    opts.telemetry.check()?;
    Ok(opts)
}

/// Per-process serving state: the engine plus the deterministic verb
/// accounting and the (volatile) per-verb latency tallies.
struct ServerState {
    engine: PartitionEngine,
    /// Requests dispatched, per verb, in name order.
    verb_counts: BTreeMap<&'static str, u64>,
    /// Per-verb `(count, total_ns)` latency tallies — volatile by the
    /// `serve.lat.` prefix rule; zeroed by canonicalization.
    lat: BTreeMap<&'static str, (u64, u64)>,
    /// Summed weight of the live nets, maintained across `partition` /
    /// `add_net` / `remove_net` so the [`MAX_TOTAL_NET_WEIGHT`] cap can
    /// be enforced without rescanning the netlist per edit.
    total_net_weight: u64,
    threads: usize,
    seed: u64,
    starts: usize,
    damage_permille: u32,
    progress: Option<Arc<Progress>>,
}

impl ServerState {
    fn new(opts: &ServeOptions, progress: Option<Arc<Progress>>) -> Self {
        let engine = PartitionEngine::new(engine_config(
            opts.starts,
            opts.seed,
            opts.threads,
            opts.damage_permille,
        ))
        .progress(progress.clone());
        Self {
            engine,
            verb_counts: BTreeMap::new(),
            lat: BTreeMap::new(),
            total_net_weight: 0,
            threads: opts.threads,
            seed: opts.seed,
            starts: opts.starts,
            damage_permille: opts.damage_permille,
            progress,
        }
    }
}

fn engine_config(starts: usize, seed: u64, threads: usize, damage_permille: u32) -> EngineConfig {
    EngineConfig::new()
        .partition(
            PartitionConfig::new()
                .starts(starts)
                .seed(seed)
                .threads(threads),
        )
        .damage_permille(damage_permille)
}

/// The fixed verb vocabulary (and the keys of the latency map).
const VERBS: [&str; 6] = [
    "edit",
    "fingerprint",
    "partition",
    "query_cut",
    "shutdown",
    "stats",
];

fn num(n: u64) -> Json {
    Json::Num(n as f64) // fhp-audit: allow(as-cast-truncation) — counters stay far below 2^53; the cast widens to f64
}

fn opt_num(n: Option<u32>) -> Json {
    n.map_or(Json::Null, |v| num(u64::from(v)))
}

/// Fingerprints travel as decimal strings — `f64` JSON numbers are lossy
/// above 2^53 and fingerprints use all 64 bits.
fn fp_str(fp: u64) -> Json {
    Json::Str(fp.to_string())
}

fn reply_obj(pairs: Vec<(&str, Json)>) -> String {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).to_canonical_string()
}

fn error_reply(id: Option<u64>, kind: &str, detail: &str) -> String {
    reply_obj(vec![
        ("id", id.map_or(Json::Null, num)),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::Obj(vec![
                ("kind".to_string(), Json::Str(kind.to_string())),
                ("detail".to_string(), Json::Str(detail.to_string())),
            ]),
        ),
    ])
}

/// Extracts a non-negative integral number field.
fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(Json::Num(n)) if n.fract() == 0.0 && *n >= 0.0 && *n < 9.007_199_254_740_992e15 => {
            Ok(*n as u64) // fhp-audit: allow(as-cast-truncation) — integral, non-negative and below 2^53 by the guard
        }
        Some(_) => Err(format!("field \"{key}\" must be a non-negative integer")),
        None => Err(format!("missing field \"{key}\"")),
    }
}

fn get_u64_or(v: &Json, key: &str, default: u64) -> Result<u64, String> {
    if v.get(key).is_none() {
        return Ok(default);
    }
    get_u64(v, key)
}

fn get_u32(v: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(get_u64(v, key)?).map_err(|_| format!("field \"{key}\" exceeds u32"))
}

/// Extracts an array of non-negative integers.
fn get_u64_array(item: &Json, what: &str) -> Result<Vec<u64>, String> {
    let Json::Arr(items) = item else {
        return Err(format!("{what} must be an array of non-negative integers"));
    };
    items
        .iter()
        .map(|n| match n {
            Json::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x < 9.007_199_254_740_992e15 => {
                Ok(*x as u64) // fhp-audit: allow(as-cast-truncation) — integral, non-negative and below 2^53 by the guard
            }
            _ => Err(format!("{what} must be an array of non-negative integers")),
        })
        .collect()
}

/// `partition`: build the instance from the request and (re)load the
/// engine. `weights`/`net_weights` default to 1; `seed`/`starts` override
/// the serve-level defaults for this instance.
fn handle_partition(
    state: &mut ServerState,
    v: &Json,
) -> Result<Vec<(&'static str, Json)>, String> {
    let modules = usize::try_from(get_u64(v, "modules")?).map_err(|_| "modules out of range")?;
    if modules == 0 {
        return Err("modules must be at least 1".to_string());
    }
    if modules > 50_000_000 {
        return Err("modules exceeds the serving cap (50M)".to_string());
    }
    let Some(nets @ Json::Arr(net_items)) = v.get("nets") else {
        return Err("missing field \"nets\" (array of pin arrays)".to_string());
    };
    // fhp-audit: allow(ignored-result) — `nets` only binds the @-pattern; the parsed array is used below
    let _ = nets;
    let weights = match v.get("weights") {
        None => vec![1; modules],
        Some(w) => {
            let w = get_u64_array(w, "weights")?;
            if w.len() != modules {
                return Err("weights length must equal modules".to_string());
            }
            w
        }
    };
    let net_weights = match v.get("net_weights") {
        None => vec![1; net_items.len()],
        Some(w) => {
            let w = get_u64_array(w, "net_weights")?;
            if w.len() != net_items.len() {
                return Err("net_weights length must equal nets".to_string());
            }
            w
        }
    };
    let total_net_weight = net_weights
        .iter()
        .try_fold(0u64, |acc, &w| acc.checked_add(w))
        .filter(|&t| t <= MAX_TOTAL_NET_WEIGHT)
        .ok_or_else(|| {
            format!("total net weight exceeds {MAX_TOTAL_NET_WEIGHT} (cut replies must stay exact JSON numbers)")
        })?;
    let seed = get_u64_or(v, "seed", state.seed)?;
    let starts =
        usize::try_from(get_u64_or(v, "starts", state.starts as u64)?).unwrap_or(usize::MAX);
    if starts == 0 {
        return Err("starts must be at least 1".to_string());
    }
    if starts > MAX_STARTS {
        return Err(format!("starts exceeds the serving cap ({MAX_STARTS})"));
    }
    let mut b = HypergraphBuilder::new();
    for &w in &weights {
        if w == 0 {
            return Err("module weights must be positive".to_string());
        }
        b.add_weighted_vertex(w);
    }
    for (i, item) in net_items.iter().enumerate() {
        let pins = get_u64_array(item, "net pins")?;
        if pins.is_empty() {
            return Err(format!("net {i} has no pins"));
        }
        let pins: Vec<fhp_hypergraph::VertexId> = pins
            .iter()
            .map(|&p| {
                if (p as usize) < modules {
                    Ok(fhp_hypergraph::VertexId::new(p as usize)) // fhp-audit: allow(as-cast-truncation) — below the modules bound by the guard
                } else {
                    Err(format!("net {i} pins module {p} >= modules"))
                }
            })
            .collect::<Result<_, String>>()?;
        // fhp-audit: allow(panic-site) — net_weights was length-checked against the net count above
        if net_weights[i] == 0 {
            return Err("net weights must be positive".to_string());
        }
        // fhp-audit: allow(panic-site) — net_weights was length-checked against the net count above
        b.add_weighted_edge(pins, net_weights[i])
            .map_err(|e| format!("net {i}: {e}"))?;
    }
    let h = b.build();
    state.engine = PartitionEngine::new(engine_config(
        starts,
        seed,
        state.threads,
        state.damage_permille,
    ))
    .progress(state.progress.clone());
    let delta = state
        .engine
        .load(&h)
        .map_err(|e| format!("partition failed: {e}"))?;
    state.total_net_weight = total_net_weight;
    Ok(vec![
        ("modules", num(h.num_vertices() as u64)),
        ("nets", num(h.num_edges() as u64)),
        ("cut", num(delta.cut_after)),
        ("fp", fp_str(delta.fingerprint)),
    ])
}

/// `edit`: translate the request's `op` into a typed [`Edit`] and apply.
fn parse_edit(v: &Json) -> Result<Edit, String> {
    let Some(Json::Str(op)) = v.get("op") else {
        return Err("missing field \"op\"".to_string());
    };
    match op.as_str() {
        "add_net" => {
            let pins = v
                .get("pins")
                .ok_or_else(|| "missing field \"pins\"".to_string())
                .and_then(|p| get_u64_array(p, "pins"))?;
            let pins = pins
                .into_iter()
                .map(|p| u32::try_from(p).map_err(|_| "pin id exceeds u32".to_string()))
                .collect::<Result<Vec<u32>, String>>()?;
            Ok(Edit::AddNet {
                pins,
                weight: get_u64_or(v, "weight", 1)?,
            })
        }
        "remove_net" => Ok(Edit::RemoveNet {
            net: get_u32(v, "net")?,
        }),
        "add_module" => Ok(Edit::AddModule {
            weight: get_u64_or(v, "weight", 1)?,
        }),
        "remove_module" => Ok(Edit::RemoveModule {
            module: get_u32(v, "module")?,
        }),
        "reweight" => Ok(Edit::ReweightModule {
            module: get_u32(v, "module")?,
            weight: get_u64(v, "weight")?,
        }),
        "pin" => {
            let add = match v.get("add") {
                Some(Json::Bool(b)) => *b,
                Some(_) => return Err("field \"add\" must be a boolean".to_string()),
                None => return Err("missing field \"add\"".to_string()),
            };
            Ok(Edit::PinChange {
                net: get_u32(v, "net")?,
                module: get_u32(v, "module")?,
                add,
            })
        }
        other => Err(format!(
            "unknown op `{other}` (add_net|remove_net|add_module|remove_module|reweight|pin)"
        )),
    }
}

/// `stats`: the deterministic engine counters plus per-verb dispatch
/// counts, with the volatile `serve.lat.*` latency tallies keyed so
/// canonicalization zeroes exactly them.
fn stats_reply_fields(state: &ServerState) -> Vec<(&'static str, Json)> {
    let stats = state.engine.stats();
    let verbs = Json::Obj(
        VERBS
            .iter()
            .map(|&verb| {
                (
                    verb.to_string(),
                    num(state.verb_counts.get(verb).copied().unwrap_or(0)),
                )
            })
            .collect(),
    );
    let lat = Json::Obj(
        VERBS
            .iter()
            .map(|&verb| {
                let (count, total_ns) = state.lat.get(verb).copied().unwrap_or((0, 0));
                (
                    format!("{}{verb}", names::SERVE_LAT_PREFIX),
                    Json::Obj(vec![
                        ("count".to_string(), num(count)),
                        ("total_ns".to_string(), num(total_ns)),
                    ]),
                )
            })
            .collect(),
    );
    vec![
        ("edits", num(stats.edits)),
        ("incremental_hits", num(stats.incremental_hits)),
        ("full_recomputes", num(stats.full_recomputes)),
        ("verbs", verbs),
        ("lat", lat),
    ]
}

/// Handles one request line. Returns the reply plus whether this was a
/// clean `shutdown`.
fn dispatch(state: &mut ServerState, line: &str) -> (String, bool) {
    let v = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return (error_reply(None, "parse_error", &e), false),
    };
    if !matches!(v, Json::Obj(_)) {
        return (
            error_reply(None, "not_an_object", "request must be a JSON object"),
            false,
        );
    }
    let id = get_u64(&v, "id").ok();
    let Some(Json::Str(verb)) = v.get("verb") else {
        return (
            error_reply(id, "missing_verb", "request carries no \"verb\" string"),
            false,
        );
    };
    let Some(&verb) = VERBS.iter().find(|&&k| k == verb.as_str()) else {
        return (
            error_reply(
                id,
                "unknown_verb",
                &format!("unknown verb `{verb}` ({})", VERBS.join("|")),
            ),
            false,
        );
    };
    *state.verb_counts.entry(verb).or_insert(0) += 1;
    // fhp-audit: allow(wallclock-in-fingerprint) — feeds the volatile serve.lat.* tallies only, which canonicalization zeroes
    let started = std::time::Instant::now();
    let ok_head = |id: Option<u64>, verb: &str| {
        vec![
            ("id", id.map_or(Json::Null, num)),
            ("ok", Json::Bool(true)),
            ("verb", Json::Str(verb.to_string())),
        ]
    };
    let (reply, shutdown) = match verb {
        "partition" => match handle_partition(state, &v) {
            Ok(fields) => {
                let mut pairs = ok_head(id, verb);
                pairs.extend(fields);
                (reply_obj(pairs), false)
            }
            Err(detail) => (error_reply(id, "bad_request", &detail), false),
        },
        "edit" => match parse_edit(&v) {
            Ok(edit) => {
                // Weight-cap bookkeeping: `add_net` may push the summed
                // net weight past the exact-JSON-number cap (rejected
                // before the engine runs); `remove_net` frees its net's
                // weight, captured before the slot is tombstoned.
                let added = match &edit {
                    Edit::AddNet { weight, .. } => *weight,
                    _ => 0,
                };
                let removed = match &edit {
                    Edit::RemoveNet { net } => state
                        .engine
                        .netlist()
                        .and_then(|nl| nl.net_weight(*net))
                        .unwrap_or(0),
                    _ => 0,
                };
                if state.total_net_weight.saturating_add(added) > MAX_TOTAL_NET_WEIGHT {
                    (
                        error_reply(
                            id,
                            "bad_request",
                            &format!("edit would push total net weight past {MAX_TOTAL_NET_WEIGHT} (cut replies must stay exact JSON numbers)"),
                        ),
                        false,
                    )
                } else {
                    match state.engine.apply(&edit) {
                        Ok(delta) => {
                            state.total_net_weight =
                                (state.total_net_weight + added).saturating_sub(removed);
                            let mut pairs = ok_head(id, verb);
                            let op = match v.get("op") {
                                Some(Json::Str(op)) => op.clone(),
                                _ => String::new(),
                            };
                            pairs.extend([
                                ("op", Json::Str(op)),
                                ("cut", num(delta.cut_after)),
                                ("repair", Json::Str(delta.repair.as_str().to_string())),
                                ("damaged", num(delta.damaged_modules as u64)),
                                ("new_id", opt_num(delta.new_id)),
                                ("fp", fp_str(delta.fingerprint)),
                            ]);
                            (reply_obj(pairs), false)
                        }
                        Err(EngineError::NotLoaded) => (
                            error_reply(
                                id,
                                "no_instance",
                                "load an instance with `partition` first",
                            ),
                            false,
                        ),
                        Err(EngineError::Structure(e)) => {
                            (error_reply(id, "edit_rejected", &e.to_string()), false)
                        }
                        Err(EngineError::Partition(e)) => {
                            (error_reply(id, "partition_failed", &e.to_string()), false)
                        }
                    }
                }
            }
            Err(detail) => (error_reply(id, "bad_request", &detail), false),
        },
        "query_cut" => {
            if let Some(nl) = state.engine.netlist() {
                let mut pairs = ok_head(id, verb);
                pairs.extend([
                    ("cut", num(state.engine.cut())),
                    ("modules", num(nl.num_live_modules() as u64)),
                    ("nets", num(nl.num_live_nets() as u64)),
                ]);
                (reply_obj(pairs), false)
            } else {
                (
                    error_reply(id, "no_instance", "load an instance with `partition` first"),
                    false,
                )
            }
        }
        "fingerprint" => {
            if state.engine.is_loaded() {
                let mut pairs = ok_head(id, verb);
                pairs.push(("fp", fp_str(state.engine.fingerprint())));
                (reply_obj(pairs), false)
            } else {
                (
                    error_reply(id, "no_instance", "load an instance with `partition` first"),
                    false,
                )
            }
        }
        "stats" => {
            let mut pairs = ok_head(id, verb);
            pairs.extend(stats_reply_fields(state));
            (reply_obj(pairs), false)
        }
        "shutdown" => (reply_obj(ok_head(id, verb)), true),
        _ => unreachable!("verb filtered against VERBS above"), // fhp-audit: allow(panic-site) — verb is drawn from the VERBS table two branches up
    };
    let lat = state.lat.entry(verb).or_insert((0, 0));
    lat.0 += 1;
    lat.1 += started.elapsed().as_nanos() as u64; // fhp-audit: allow(as-cast-truncation) — a single request does not take 580 years
    (reply, shutdown)
}

/// One request line, read under the [`MAX_LINE_BYTES`] buffering cap.
enum RequestLine {
    /// A complete line (terminator stripped) within the cap.
    Line(Vec<u8>),
    /// The line ran past the cap; its remainder was discarded without
    /// being buffered, and the stream is positioned after its newline
    /// (or at EOF).
    Oversized,
}

/// Reads one `\n`-terminated line as raw bytes; `None` at EOF. At most
/// `MAX_LINE_BYTES + 1` bytes are ever buffered per line — a client that
/// streams bytes without a newline gets [`RequestLine::Oversized`] and
/// the rest of its line is drained chunk-by-chunk, not accumulated.
fn read_request_line(reader: &mut impl BufRead) -> std::io::Result<Option<RequestLine>> {
    let mut buf = Vec::new();
    // UFCS so `take` borrows the reader instead of consuming it — the
    // drain loop below still needs it after the capped read.
    let n =
        std::io::Read::take(&mut *reader, MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') && n > MAX_LINE_BYTES {
        // Cap hit mid-line: skip to the next newline with bounded memory.
        loop {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                break; // EOF
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    reader.consume(pos + 1);
                    break;
                }
                None => {
                    let len = chunk.len();
                    reader.consume(len);
                }
            }
        }
        return Ok(Some(RequestLine::Oversized));
    }
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    Ok(Some(RequestLine::Line(buf)))
}

fn oversized_reply() -> String {
    error_reply(
        None,
        "oversized",
        &format!("request exceeds {MAX_LINE_BYTES} bytes"),
    )
}

/// Turns one raw request line into a reply (or `None` for blank lines),
/// reporting `oversized` / invalid-UTF-8 lines as typed errors without
/// touching the engine.
fn serve_line(state: &mut ServerState, raw: &[u8]) -> Option<(String, bool)> {
    if raw.iter().all(|b| b.is_ascii_whitespace()) {
        return None;
    }
    if raw.len() > MAX_LINE_BYTES {
        return Some((oversized_reply(), false));
    }
    match std::str::from_utf8(raw) {
        Ok(line) => Some(dispatch(state, line)),
        Err(e) => Some((
            error_reply(None, "parse_error", &format!("invalid UTF-8: {e}")),
            false,
        )),
    }
}

/// End-of-life telemetry: stop the sampler and write (or append) the
/// canonical gauge snapshot, as the batch CLI does, then print the
/// engine's `[stats]` summary (stderr — stdout is protocol).
fn finalize_metrics(telemetry: &mut Telemetry) {
    if let Err(e) = telemetry.finish() {
        eprintln!("[serve] error: {e}");
    }
    if let Some(p) = telemetry.progress() {
        // The same `[stats] <key> <value>` shape the batch CLI prints,
        // with gauge dots mapped to underscores (`engine.edits` →
        // `engine_edits`).
        for gauge in [
            Gauge::EngineEdits,
            Gauge::EngineIncrementalHits,
            Gauge::EngineFullRecomputes,
        ] {
            eprintln!(
                "[stats] {} {}",
                gauge.name().replace('.', "_"),
                p.get(gauge)
            );
        }
    }
}

/// Entry point for `fhp serve …` (argv after the subcommand name).
pub fn run(args: &[String]) -> ExitCode {
    let opts = match parse_serve_args(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", serve_usage());
            return ExitCode::from(2);
        }
    };
    let telemetry = match opts.telemetry.start() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match opts.tcp.clone() {
        Some(addr) => serve_tcp(addr, opts, telemetry),
        None => serve_stdin(opts, telemetry),
    }
}

fn serve_stdin(opts: ServeOptions, mut telemetry: Telemetry) -> ExitCode {
    let mut state = ServerState::new(&opts, telemetry.progress().cloned());
    let stdin = std::io::stdin();
    let mut reader = stdin.lock();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    loop {
        let outcome = match read_request_line(&mut reader) {
            Ok(Some(RequestLine::Line(raw))) => serve_line(&mut state, &raw),
            Ok(Some(RequestLine::Oversized)) => Some((oversized_reply(), false)),
            Ok(None) => break,
            Err(e) => {
                eprintln!("[serve] error: stdin read failed: {e}");
                break;
            }
        };
        let Some((reply, shutdown)) = outcome else {
            continue;
        };
        // One write per reply, newline included, then flush: the client
        // sees complete lines only.
        let mut line = reply;
        line.push('\n');
        if out
            .write_all(line.as_bytes())
            .and_then(|()| out.flush())
            .is_err()
        {
            break;
        }
        if shutdown {
            break;
        }
    }
    finalize_metrics(&mut telemetry);
    ExitCode::SUCCESS
}

fn serve_tcp(addr: String, opts: ServeOptions, telemetry: Telemetry) -> ExitCode {
    let listener = match std::net::TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let local = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: cannot resolve bound address: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Tests and CI parse this line to find the ephemeral port; flush so
    // they never block on a buffered half-line.
    println!("[serve] listening on {local}");
    // fhp-audit: allow(ignored-result) — stdout flush failing means no one is watching; the server keeps serving
    let _ = std::io::stdout().flush();
    let state = Arc::new(Mutex::new(ServerState::new(
        &opts,
        telemetry.progress().cloned(),
    )));
    let shutting_down = Arc::new(AtomicBool::new(false));
    let telemetry = Arc::new(Mutex::new(telemetry));
    let mut workers = Vec::new();
    for conn in listener.incoming() {
        // fhp-audit: allow(atomic-ordering) — shutdown flag is rare and cross-thread; SeqCst keeps it trivially correct
        if shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                eprintln!("[serve] error: accept failed: {e}");
                continue;
            }
        };
        let state = Arc::clone(&state);
        let shutting_down = Arc::clone(&shutting_down);
        let telemetry = Arc::clone(&telemetry);
        let handle = std::thread::Builder::new()
            .name("fhp-serve-conn".to_string())
            .spawn(move || {
                serve_connection(stream, &state, &shutting_down, &telemetry);
            });
        match handle {
            Ok(h) => workers.push(h),
            Err(e) => eprintln!("[serve] error: cannot spawn connection thread: {e}"),
        }
    }
    for h in workers {
        // fhp-audit: allow(ignored-result) — a panicked connection thread already logged; join error adds nothing
        let _ = h.join();
    }
    ExitCode::SUCCESS
}

fn serve_connection(
    stream: std::net::TcpStream,
    state: &Mutex<ServerState>,
    shutting_down: &AtomicBool,
    telemetry: &Mutex<Telemetry>,
) {
    let mut reader = match stream.try_clone() {
        Ok(s) => std::io::BufReader::new(s),
        Err(e) => {
            eprintln!("[serve] error: cannot clone connection: {e}");
            return;
        }
    };
    let mut writer = std::io::BufWriter::new(stream);
    loop {
        let raw = match read_request_line(&mut reader) {
            Ok(Some(RequestLine::Line(raw))) => Some(raw),
            Ok(Some(RequestLine::Oversized)) => None,
            Ok(None) | Err(_) => return,
        };
        // The engine lock covers dispatch only; each connection writes to
        // its own socket from its own thread, one write_all per reply, so
        // replies are never torn or interleaved. Oversized lines never
        // touch the engine, so they skip the lock entirely.
        let outcome = match raw {
            Some(raw) => {
                let mut guard = state.lock().unwrap_or_else(|e| e.into_inner());
                serve_line(&mut guard, &raw)
            }
            None => Some((oversized_reply(), false)),
        };
        let Some((reply, shutdown)) = outcome else {
            continue;
        };
        let mut line = reply;
        line.push('\n');
        if writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
        if shutdown {
            // fhp-audit: allow(atomic-ordering) — shutdown flag is rare and cross-thread; SeqCst keeps it trivially correct
            shutting_down.store(true, Ordering::SeqCst);
            finalize_metrics(&mut telemetry.lock().unwrap_or_else(|e| e.into_inner()));
            // The accept loop is blocked in `accept`; a clean shutdown
            // reply has already been flushed, so end the process here.
            std::process::exit(0);
        }
    }
}

fn serve_usage() -> &'static str {
    "usage: fhp serve [options]\n\
     \n\
     options:\n\
     \x20     --tcp [ADDR]      serve over TCP instead of stdin/stdout\n\
     \x20                       (default ADDR 127.0.0.1:0; the bound address\n\
     \x20                       is printed as `[serve] listening on …`)\n\
     \x20     --threads <N>     engine worker threads (0 = auto; replies are\n\
     \x20                       identical for every value)\n\
     \x20     --seed <S>        default RNG seed for `partition` requests\n\
     \x20 -s, --starts <N>      default multi-start count (default 8, at\n\
     \x20                       most 4096)\n\
     \x20     --damage-permille <P>  full-recompute threshold in permille of\n\
     \x20                       live modules (default 250)\n\
     \x20     --metrics <FILE>  write the canonical gauge snapshot at shutdown\n\
     \x20     --metrics-interval <MS>  also stream live samples every MS ms\n\
     \x20     --progress        render live `[progress]` lines to stderr\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ServerState {
        let opts = parse_serve_args(&[]).expect("defaults parse");
        ServerState::new(&opts, None)
    }

    fn dispatch_ok(state: &mut ServerState, line: &str) -> Json {
        let (reply, _) = dispatch(state, line);
        let v = json::parse(&reply).expect("replies are valid JSON");
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "reply: {reply}");
        v
    }

    #[test]
    fn malformed_requests_get_typed_errors_and_never_wedge() {
        let mut st = state();
        for (line, kind) in [
            ("{", "parse_error"),
            ("[1,2]", "not_an_object"),
            ("{\"id\":1}", "missing_verb"),
            ("{\"id\":1,\"verb\":\"frobnicate\"}", "unknown_verb"),
            ("{\"id\":1,\"verb\":\"edit\"}", "bad_request"),
            ("{\"id\":1,\"verb\":\"query_cut\"}", "no_instance"),
            (
                "{\"id\":1,\"verb\":\"edit\",\"op\":\"remove_net\",\"net\":0}",
                "no_instance",
            ),
        ] {
            let (reply, shutdown) = dispatch(&mut st, line);
            assert!(!shutdown);
            let v = json::parse(&reply).expect("error replies are valid JSON");
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "line: {line}");
            let err = v.get("error").expect("error object");
            assert_eq!(
                err.get("kind"),
                Some(&Json::Str(kind.to_string())),
                "line: {line}"
            );
        }
        // …and the engine still answers the next well-formed request.
        let v = dispatch_ok(
            &mut st,
            "{\"id\":9,\"verb\":\"partition\",\"modules\":4,\"nets\":[[0,1],[1,2],[2,3]]}",
        );
        assert_eq!(v.get("id"), Some(&Json::Num(9.0)));
    }

    #[test]
    fn partition_edit_query_round_trip() {
        let mut st = state();
        dispatch_ok(
            &mut st,
            "{\"id\":1,\"verb\":\"partition\",\"modules\":6,\"nets\":[[0,1],[1,2],[2,3],[3,4],[4,5]]}",
        );
        let v = dispatch_ok(
            &mut st,
            "{\"id\":2,\"verb\":\"edit\",\"op\":\"add_net\",\"pins\":[0,5],\"weight\":2}",
        );
        assert_eq!(v.get("new_id"), Some(&Json::Num(5.0)));
        assert!(matches!(v.get("repair"), Some(Json::Str(_))));
        let v = dispatch_ok(&mut st, "{\"id\":3,\"verb\":\"query_cut\"}");
        assert_eq!(v.get("modules"), Some(&Json::Num(6.0)));
        assert_eq!(v.get("nets"), Some(&Json::Num(6.0)));
        let v = dispatch_ok(&mut st, "{\"id\":4,\"verb\":\"stats\"}");
        assert_eq!(v.get("edits"), Some(&Json::Num(1.0)));
        let (_, shutdown) = dispatch(&mut st, "{\"id\":5,\"verb\":\"shutdown\"}");
        assert!(shutdown);
    }

    #[test]
    fn oversized_and_binary_lines_are_rejected_without_dispatch() {
        let mut st = state();
        let huge = vec![b'x'; MAX_LINE_BYTES + 1];
        let (reply, shutdown) = serve_line(&mut st, &huge).expect("a reply");
        assert!(!shutdown);
        assert!(reply.contains("\"kind\":\"oversized\""));
        let (reply, _) = serve_line(&mut st, &[0xff, 0xfe, b'{']).expect("a reply");
        assert!(reply.contains("\"kind\":\"parse_error\""));
        assert!(
            serve_line(&mut st, b"   ").is_none(),
            "blank lines are skipped"
        );
    }

    #[test]
    fn read_request_line_buffers_at_most_the_cap() {
        use std::io::Cursor;
        // A line at exactly the cap passes through intact.
        let mut exact = vec![b'a'; MAX_LINE_BYTES];
        exact.push(b'\n');
        exact.extend_from_slice(b"next\n");
        let mut r = Cursor::new(exact);
        match read_request_line(&mut r).expect("read") {
            Some(RequestLine::Line(raw)) => assert_eq!(raw.len(), MAX_LINE_BYTES),
            _ => panic!("expected a full line at the cap"),
        }
        // One byte over: oversized, and the reader resumes cleanly at the
        // next line.
        let mut over = vec![b'a'; MAX_LINE_BYTES + 1];
        over.push(b'\n');
        over.extend_from_slice(b"next\n");
        let mut r = Cursor::new(over);
        assert!(matches!(
            read_request_line(&mut r).expect("read"),
            Some(RequestLine::Oversized)
        ));
        match read_request_line(&mut r).expect("read") {
            Some(RequestLine::Line(raw)) => assert_eq!(raw, b"next"),
            _ => panic!("expected the next line after an oversized one"),
        }
        // A newline-less flood drains to EOF without being accumulated.
        let mut r = Cursor::new(vec![b'x'; 4 * MAX_LINE_BYTES]);
        assert!(matches!(
            read_request_line(&mut r).expect("read"),
            Some(RequestLine::Oversized)
        ));
        assert!(read_request_line(&mut r).expect("read").is_none());
    }

    #[test]
    fn total_net_weight_is_capped_to_exact_json_numbers() {
        let mut st = state();
        // Two nets whose weights sum past 2^53 − 1: rejected at load.
        let half = MAX_TOTAL_NET_WEIGHT / 2 + 1;
        let line = format!(
            "{{\"id\":1,\"verb\":\"partition\",\"modules\":4,\"nets\":[[0,1],[2,3]],\"net_weights\":[{half},{half}]}}"
        );
        let (reply, _) = dispatch(&mut st, &line);
        assert!(reply.contains("total net weight"), "reply: {reply}");
        // Load just below the cap, then an add_net that would cross it.
        let line = format!(
            "{{\"id\":2,\"verb\":\"partition\",\"modules\":4,\"nets\":[[0,1],[2,3]],\"net_weights\":[{},1]}}",
            MAX_TOTAL_NET_WEIGHT - 2
        );
        dispatch_ok(&mut st, &line);
        let (reply, _) = dispatch(
            &mut st,
            "{\"id\":3,\"verb\":\"edit\",\"op\":\"add_net\",\"pins\":[0,2],\"weight\":2}",
        );
        assert!(reply.contains("total net weight"), "reply: {reply}");
        // Removing a net frees its weight, letting the same add through.
        dispatch_ok(
            &mut st,
            "{\"id\":4,\"verb\":\"edit\",\"op\":\"remove_net\",\"net\":1}",
        );
        dispatch_ok(
            &mut st,
            "{\"id\":5,\"verb\":\"edit\",\"op\":\"add_net\",\"pins\":[0,2],\"weight\":2}",
        );
    }

    #[test]
    fn starts_are_capped_for_requests_and_the_flag() {
        let mut st = state();
        let partition = |starts: usize| {
            format!("{{\"id\":1,\"verb\":\"partition\",\"modules\":4,\"nets\":[[0,1],[1,2],[2,3]],\"starts\":{starts}}}")
        };
        let (reply, _) = dispatch(&mut st, &partition(MAX_STARTS + 1));
        assert!(reply.contains("serving cap"), "reply: {reply}");
        dispatch_ok(&mut st, &partition(MAX_STARTS));
        let flag = |starts: usize| parse_serve_args(&["--starts".to_string(), starts.to_string()]);
        assert_eq!(flag(MAX_STARTS).map(|o| o.starts), Ok(MAX_STARTS));
        for bad in [0, MAX_STARTS + 1] {
            assert!(flag(bad).is_err(), "--starts {bad} was accepted");
        }
    }

    #[test]
    fn stats_latency_keys_are_volatile_and_zeroable() {
        let mut st = state();
        dispatch_ok(
            &mut st,
            "{\"id\":1,\"verb\":\"partition\",\"modules\":4,\"nets\":[[0,1],[2,3]]}",
        );
        let (reply, _) = dispatch(&mut st, "{\"id\":2,\"verb\":\"stats\"}");
        let mut v = json::parse(&reply).expect("valid");
        json::canonicalize_volatile(&mut v);
        let canon = v.to_canonical_string();
        assert!(canon.contains("\"serve.lat.partition\":{\"count\":0,\"total_ns\":0}"));
        // The deterministic fields survive canonicalization.
        assert!(canon.contains("\"verbs\":{\"edit\":0,\"fingerprint\":0,\"partition\":1,\"query_cut\":0,\"shutdown\":0,\"stats\":1}"));
    }
}
