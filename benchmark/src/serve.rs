//! The `serve-edit` workload: one closed-loop client driving the real
//! `fhp serve --threads 2` over stdin/stdout pipes.
//!
//! A session spawns the server, loads the instance with one `partition`
//! request (set-up), replays the seeded script — each request waits for
//! its reply — then asks
//! for `stats`, the final `query_cut` and `fingerprint`, reads the
//! server's peak memory, and shuts it down. Sessions cycle through the
//! seed's instances until the measuring time is up, at least twice each;
//! the sessions of one instance replay the same script, so they must end
//! in the same state. The client takes a host probe reading before every
//! [`PROBE_EVERY`] scripted requests and scales the edit times by the
//! latest one, and the set-up time by the session's median one, to the
//! reference host speed ([`clock::at_reference`]); the `serve.*`
//! round-trip percentiles stay as measured.
//!
//! A traced measurement also replays the first session's script
//! in-process — `json::parse`, `PartitionEngine::apply`,
//! `PartitionEngine::fingerprint`, and the same structural edits on a
//! standalone `DynamicNetlist` — with one trace scope per request, and
//! checks every reply the server gave against it.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use fhp_core::{Algorithm1, Edit, EngineConfig, PartitionEngine};
use fhp_hypergraph::{Dualizer, DynamicNetlist, Hypergraph, HypergraphBuilder, VertexId};
use fhp_obs::json::{self, Json};
use fhp_obs::{order, Collector, Event, EventKind, FieldValue, Scope, SpanGuard, TraceWriter};

use crate::clock::{self, peak_rss_mb, SplitMix, Stopwatch};
use crate::metrics::Outcome;
use crate::stats::{median, percentile};
use crate::workload::{partition_request, Scale, Workload, THREADS};
use crate::Trace;

/// Scripted requests per session.
const SCRIPT_REQUESTS: usize = 1000;
/// Scripted requests per session at smoke size.
const SMOKE_REQUESTS: usize = 100;
/// Sessions per instance and measurement, at least.
const MIN_SESSIONS_PER_INSTANCE: usize = 2;
/// Scripted requests between two host probe readings (about 0.2 s of
/// requests; a reading takes about 6 ms).
const PROBE_EVERY: usize = 50;

/// Span names of the in-process replay. Every span of one request sits in
/// that request's scope, whose start index is the request id.
const SPAN_REQUEST: &str = "serve.request";
const SPAN_JSON_PARSE: &str = "json.parse";
const SPAN_APPLY: &str = "engine.apply";
const SPAN_FINGERPRINT: &str = "engine.fingerprint";
const SPAN_QUERY: &str = "engine.query_cut";
const SPAN_LOAD: &str = "engine.load";
const SPAN_NL_BUILD: &str = "incremental.build";
const SPAN_NL_EDIT: &str = "incremental.edit";
const SPAN_NL_DUAL_FP: &str = "incremental.dual_fingerprint";
/// Counter: modules in an edit's damaged region.
const COUNTER_DAMAGED: &str = "engine.damaged";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verb {
    Edit,
    QueryCut,
    Fingerprint,
}

/// One scripted request: its id, verb, NDJSON line (newline included),
/// and for `add_net` the net id the server must allocate.
#[derive(Clone, Debug)]
struct Request {
    id: u64,
    verb: Verb,
    line: String,
    new_id: Option<u64>,
}

/// A net the script added, with the pins the script added to it since.
struct AddedNet {
    id: u64,
    pins: Vec<u64>,
    added_pins: Vec<u64>,
}

/// The seeded request script over an instance of `modules` modules and
/// `nets` nets: 70% edits (split 50/35/15 between `add_net` over 2–4
/// distinct modules, `remove_net` of a net the script added, and a pin
/// added to a script-added net or removal of a pin the script added),
/// 20% `query_cut`, 10% `fingerprint`. The mix is an assumption, not a
/// measured client trace: it is chosen so that every edit kind and every
/// read verb is exercised, edits most. Net ids are never reused by the
/// server, so the id each `add_net` gets is known in advance.
fn script(seed: u64, modules: usize, nets: usize, requests: usize) -> Vec<Request> {
    let mut rng = SplitMix(seed ^ 0x5eed_5eed_5eed_5eed);
    let mut added: Vec<AddedNet> = Vec::new();
    let mut next_net = nets as u64;
    let mut out = Vec::with_capacity(requests);
    for i in 0..requests {
        let id = i as u64 + 1; // id 0 is the `partition` request
        let roll = rng.below(100);
        let (verb, line, new_id) = if roll < 70 {
            let kind = rng.below(100);
            // Removals and pin edits need a script-added net; without one
            // the edit is an `add_net`.
            let pick = (!added.is_empty()).then(|| rng.below(added.len()));
            match pick.filter(|_| kind >= 50) {
                Some(idx) if kind < 85 => {
                    let net = added.swap_remove(idx);
                    let line = format!(
                        "{{\"id\":{id},\"verb\":\"edit\",\"op\":\"remove_net\",\"net\":{}}}",
                        net.id
                    );
                    (Verb::Edit, line, None)
                }
                Some(idx) => match added.get_mut(idx) {
                    Some(net) => (Verb::Edit, pin_edit(&mut rng, modules, net, id), None),
                    None => add_net(&mut rng, modules, id, &mut next_net, &mut added),
                },
                None => add_net(&mut rng, modules, id, &mut next_net, &mut added),
            }
        } else if roll < 90 {
            let line = format!("{{\"id\":{id},\"verb\":\"query_cut\"}}");
            (Verb::QueryCut, line, None)
        } else {
            let line = format!("{{\"id\":{id},\"verb\":\"fingerprint\"}}");
            (Verb::Fingerprint, line, None)
        };
        out.push(Request {
            id,
            verb,
            line: line + "\n",
            new_id,
        });
    }
    out
}

/// An `add_net` over 2–4 distinct random modules; the net is recorded as
/// script-added under the id the server will allocate.
fn add_net(
    rng: &mut SplitMix,
    modules: usize,
    id: u64,
    next_net: &mut u64,
    added: &mut Vec<AddedNet>,
) -> (Verb, String, Option<u64>) {
    let size = 2 + rng.below(3);
    let mut pins = Vec::with_capacity(size);
    while pins.len() < size {
        let module = fresh_module(rng, modules, &pins);
        pins.push(module);
    }
    let list: Vec<String> = pins.iter().map(u64::to_string).collect();
    let line = format!(
        "{{\"id\":{id},\"verb\":\"edit\",\"op\":\"add_net\",\"pins\":[{}]}}",
        list.join(",")
    );
    let net = *next_net;
    *next_net += 1;
    added.push(AddedNet {
        id: net,
        pins,
        added_pins: Vec::new(),
    });
    (Verb::Edit, line, Some(net))
}

/// Half the time (when it has one) removes a pin the script added to
/// `net`, otherwise adds a pin on a module not yet in it.
fn pin_edit(rng: &mut SplitMix, modules: usize, net: &mut AddedNet, id: u64) -> String {
    if !net.added_pins.is_empty() && rng.below(2) == 0 {
        let module = net.added_pins.swap_remove(rng.below(net.added_pins.len()));
        net.pins.retain(|&p| p != module);
        format!(
            "{{\"id\":{id},\"verb\":\"edit\",\"op\":\"pin\",\"net\":{},\"module\":{module},\"add\":false}}",
            net.id
        )
    } else {
        let module = fresh_module(rng, modules, &net.pins);
        net.pins.push(module);
        net.added_pins.push(module);
        format!(
            "{{\"id\":{id},\"verb\":\"edit\",\"op\":\"pin\",\"net\":{},\"module\":{module},\"add\":true}}",
            net.id
        )
    }
}

/// A random module not in `taken`.
fn fresh_module(rng: &mut SplitMix, modules: usize, taken: &[u64]) -> u64 {
    loop {
        let m = rng.below(modules) as u64;
        if !taken.contains(&m) {
            return m;
        }
    }
}

/// A running `fhp serve` process. Dropping it before
/// [`shutdown`](Self::shutdown) kills the process and waits for it.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    ended: bool,
}

impl Server {
    fn spawn(fhp: &Path) -> Result<Self, String> {
        let mut child = Command::new(fhp)
            .args(["serve", "--threads", &THREADS.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", fhp.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        match stdout {
            Some(stdout) => Ok(Self {
                child,
                stdin,
                stdout,
                ended: false,
            }),
            None => {
                child.kill().ok();
                child.wait().ok();
                Err("the server has no stdout pipe".to_string())
            }
        }
    }

    /// Sends one request line and waits for its reply: the reply and the
    /// round-trip time in milliseconds (reply parsing not included).
    fn call(&mut self, line: &str) -> Result<(Json, f64), String> {
        let stdin = self.stdin.as_mut().ok_or("the server's stdin is closed")?;
        let mut reply = String::new();
        let sw = Stopwatch::start();
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("cannot send a request: {e}"))?;
        let n = self
            .stdout
            .read_line(&mut reply)
            .map_err(|e| format!("cannot read a reply: {e}"))?;
        let ms = sw.ms();
        if n == 0 {
            return Err("the server closed its output".to_string());
        }
        let reply = json::parse(reply.trim_end()).map_err(|e| format!("unreadable reply: {e}"))?;
        Ok((reply, ms))
    }

    /// Sends `shutdown` and waits for the process to exit cleanly.
    fn shutdown(&mut self, id: u64) -> Result<bool, String> {
        let (reply, _) = self.call(&format!("{{\"id\":{id},\"verb\":\"shutdown\"}}\n"))?;
        self.stdin = None;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("cannot wait for the server: {e}"))?;
        self.ended = true;
        Ok(reply_ok(&reply, id) && status.success())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.ended {
            self.child.kill().ok();
            self.child.wait().ok();
        }
    }
}

fn reply_ok(reply: &Json, id: u64) -> bool {
    reply.get("ok") == Some(&Json::Bool(true)) && reply.get("id") == Some(&Json::Num(id as f64))
}

fn reply_u64(reply: &Json, key: &str) -> Option<u64> {
    match reply.get(key) {
        Some(Json::Num(n)) if *n >= 0.0 => Some(*n as u64),
        _ => None,
    }
}

/// Fingerprints travel as decimal strings.
fn reply_fp(reply: &Json) -> Option<u64> {
    match reply.get("fp") {
        Some(Json::Str(s)) => s.parse().ok(),
        _ => None,
    }
}

/// What one session measured. `setup_s` and `edit_at_reference_ms` are
/// scaled to the reference host speed; the other times are as measured.
struct Session {
    setup_s: f64,
    probes_ms: Vec<f64>,
    edit_at_reference_ms: Vec<f64>,
    edit_ms: Vec<f64>,
    query_ms: Vec<f64>,
    fingerprint_ms: Vec<f64>,
    req_per_s: f64,
    final_cut: Option<u64>,
    final_fp: Option<u64>,
    mem_mb: f64,
    /// Per-verb `(count, total_ns)` from the `stats` reply.
    dispatch: BTreeMap<String, (f64, f64)>,
    /// The `partition` reply and every scripted reply, in order.
    load_reply: Json,
    replies: Vec<Json>,
}

fn run_session(
    fhp: &Path,
    load: &str,
    script: &[Request],
    out: &mut Outcome,
) -> Result<Session, String> {
    let sw = Stopwatch::start();
    let mut server = Server::spawn(fhp)?;
    let (load_reply, _) = server.call(load)?;
    let setup_raw_s = sw.secs();
    out.count(reply_ok(&load_reply, 0));

    let mut probes_ms = Vec::new();
    let mut edit_at_reference_ms = Vec::new();
    let mut edit_ms = Vec::new();
    let mut query_ms = Vec::new();
    let mut fingerprint_ms = Vec::new();
    let mut replies = Vec::with_capacity(script.len());
    // The request rate leaves out the time the probe readings take.
    let mut phase_s = 0.0;
    for chunk in script.chunks(PROBE_EVERY) {
        let probe = clock::probe_ms();
        probes_ms.push(probe);
        let phase = Stopwatch::start();
        for req in chunk {
            let (reply, ms) = server.call(&req.line)?;
            let allocated_as_expected = req
                .new_id
                .is_none_or(|id| reply_u64(&reply, "new_id") == Some(id));
            out.count(reply_ok(&reply, req.id) && allocated_as_expected);
            match req.verb {
                Verb::Edit => {
                    edit_at_reference_ms.push(clock::at_reference(ms, probe));
                    edit_ms.push(ms);
                }
                Verb::QueryCut => query_ms.push(ms),
                Verb::Fingerprint => fingerprint_ms.push(ms),
            }
            replies.push(reply);
        }
        phase_s += phase.secs();
    }
    let req_per_s = script.len() as f64 / phase_s;
    // Set-up is scaled by the session's median reading: a single reading
    // next to it is noisy, and one taken just before the spawn overlaps
    // the previous server's exit (over seeds 1–10, set-up scaled by that
    // reading spread 0.12, by the session median 0.08).
    let setup_s = clock::at_reference(setup_raw_s, median(&probes_ms));

    let mut id = script.len() as u64 + 1;
    let (stats, _) = server.call(&format!("{{\"id\":{id},\"verb\":\"stats\"}}\n"))?;
    out.count(reply_ok(&stats, id));
    id += 1;
    let (query, _) = server.call(&format!("{{\"id\":{id},\"verb\":\"query_cut\"}}\n"))?;
    out.count(reply_ok(&query, id));
    id += 1;
    let (fp, _) = server.call(&format!("{{\"id\":{id},\"verb\":\"fingerprint\"}}\n"))?;
    out.count(reply_ok(&fp, id));
    id += 1;
    let mem_mb = peak_rss_mb(server.child.id())?;
    let clean = server.shutdown(id)?;
    out.count(clean);

    Ok(Session {
        setup_s,
        probes_ms,
        edit_at_reference_ms,
        edit_ms,
        query_ms,
        fingerprint_ms,
        req_per_s,
        final_cut: reply_u64(&query, "cut"),
        final_fp: reply_fp(&fp),
        mem_mb,
        dispatch: dispatch_tallies(&stats),
        load_reply,
        replies,
    })
}

/// The `stats` reply's per-verb latency tallies: verb → (count, total ns).
fn dispatch_tallies(stats: &Json) -> BTreeMap<String, (f64, f64)> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(lat)) = stats.get("lat") {
        for (key, tally) in lat {
            let verb = key
                .strip_prefix(fhp_obs::names::SERVE_LAT_PREFIX)
                .unwrap_or(key);
            if let (Some(Json::Num(count)), Some(Json::Num(total))) =
                (tally.get("count"), tally.get("total_ns"))
            {
                out.insert(verb.to_string(), (*count, *total));
            }
        }
    }
    out
}

/// One instance's `partition` request line and script.
struct Family {
    load: String,
    script: Vec<Request>,
}

/// Measures `serve-edit` on `instances` for about `seconds`: sessions
/// cycle through the instances, each instance's sessions replaying that
/// instance's script.
pub fn measure(
    fhp: &Path,
    instances: &[Hypergraph],
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
) -> Result<(Outcome, Trace), String> {
    let requests = match scale {
        Scale::Full => SCRIPT_REQUESTS,
        Scale::Smoke => SMOKE_REQUESTS,
    };
    let mut out = Outcome::new();
    let mut families = Vec::with_capacity(instances.len());
    for (i, h) in instances.iter().enumerate() {
        families.push(Family {
            load: partition_request(h) + "\n",
            script: script(
                seed.wrapping_add(i as u64),
                h.num_vertices(),
                h.num_edges(),
                requests,
            ),
        });
        // The engine dualizes without a size threshold.
        let pairs = Dualizer::new()
            .build(h)
            .map_err(|e| format!("cannot dualize a serve instance: {e}"))?
            .stats()
            .pairs_generated;
        for (key, value) in [
            ("instance.count", 1),
            ("instance.modules", h.num_vertices() as u64),
            ("instance.signals", h.num_edges() as u64),
            ("instance.pins", h.num_pins() as u64),
            ("instance.pairs_generated", pairs),
        ] {
            let total = out.values.get(key).copied().unwrap_or(0.0);
            out.set(key, total + value as f64);
        }
    }
    if families.is_empty() {
        return Err("serve-edit has no instance".to_string());
    }

    // At least two sessions per instance, so each instance's final state
    // can be checked against a second replay of its script.
    let min_sessions = MIN_SESSIONS_PER_INSTANCE * families.len();
    let mut sessions: Vec<(usize, Session)> = Vec::new();
    let phase = Stopwatch::start();
    while sessions.len() < min_sessions || phase.secs() < seconds {
        let i = sessions.len() % families.len();
        if let Some(f) = families.get(i) {
            sessions.push((i, run_session(fhp, &f.load, &f.script, &mut out)?));
        }
    }
    let mut finals = Vec::with_capacity(families.len());
    let mut total_cut = 0.0;
    for i in 0..families.len() {
        let mut ends = sessions
            .iter()
            .filter(|(j, _)| *j == i)
            .map(|(_, s)| (s.final_fp, s.final_cut));
        let first = ends.next().unwrap_or((None, None));
        if first.0.is_none() || ends.any(|end| end != first) {
            out.fail_check("sessions replaying the same script ended in different states");
        }
        finals.push(first.0.unwrap_or(0));
        total_cut += first.1.unwrap_or(0) as f64;
    }
    let mut hasher = DefaultHasher::new();
    finals.hash(&mut hasher);
    out.digest = hasher.finish().to_string();

    let edits: Vec<f64> = sessions
        .iter()
        .flat_map(|(_, s)| s.edit_ms.clone())
        .collect();
    let queries: Vec<f64> = sessions
        .iter()
        .flat_map(|(_, s)| s.query_ms.clone())
        .collect();
    let fingerprints: Vec<f64> = sessions
        .iter()
        .flat_map(|(_, s)| s.fingerprint_ms.clone())
        .collect();
    let edits_at_reference: Vec<f64> = sessions
        .iter()
        .flat_map(|(_, s)| s.edit_at_reference_ms.clone())
        .collect();
    let probes: Vec<f64> = sessions
        .iter()
        .flat_map(|(_, s)| s.probes_ms.clone())
        .collect();
    let setups: Vec<f64> = sessions.iter().map(|(_, s)| s.setup_s).collect();
    let mems: Vec<f64> = sessions.iter().map(|(_, s)| s.mem_mb).collect();
    out.set("setup_s", median(&setups));
    out.set("latency_ms", median(&edits_at_reference));
    out.set("cut", total_cut);
    out.set("mem_peak_mb", median(&mems));
    out.set("host.probe_ms", median(&probes));

    let mut trace = Trace::new();
    if traced {
        let (Some(family), Some((_, first))) = (families.first(), sessions.first()) else {
            return Err("no session ran".to_string());
        };
        let (load, script) = (&family.load, &family.script);
        out.set("engine.cut", first.final_cut.unwrap_or(0) as f64);
        out.set("serve.edit_p99_ms", percentile(&edits, 99.0));
        out.set("serve.fingerprint_p50_ms", median(&fingerprints));
        let query_p50_ms = median(&queries);
        out.set("serve.query_p50_ms", query_p50_ms);
        let rates: Vec<f64> = sessions.iter().map(|(_, s)| s.req_per_s).collect();
        out.set("serve.req_per_s", median(&rates));
        let mean_dispatch_ns = |verb: &str| {
            let (count, total) = sessions
                .iter()
                .filter_map(|(_, s)| s.dispatch.get(verb))
                .fold((0.0, 0.0), |(c, t), (dc, dt)| (c + dc, t + dt));
            if count > 0.0 {
                total / count
            } else {
                0.0
            }
        };
        out.set("serve.dispatch_edit_ms", mean_dispatch_ns("edit") / 1e6);
        out.set(
            "serve.dispatch_fingerprint_ms",
            mean_dispatch_ns("fingerprint") / 1e6,
        );
        let dispatch_query_us = mean_dispatch_ns("query_cut") / 1e3;
        out.set("serve.dispatch_query_us", dispatch_query_us);
        out.set("serve.transport_us", query_p50_ms * 1e3 - dispatch_query_us);

        // The same replay untraced and traced: the difference is the
        // tracing overhead; the traced one gives the per-layer numbers.
        let config = EngineConfig::new().partition(Workload::ServeEdit.config(scale));
        let untraced_ms = replay(load, script, first, &config, None, &mut out)?;
        let collector = Collector::enabled();
        let traced_ms = replay(load, script, first, &config, Some(&collector), &mut out)?;
        out.set(
            "trace.overhead_pct",
            (traced_ms / untraced_ms - 1.0) * 100.0,
        );
        let events = collector.snapshot();
        record_layers(&mut out, &events);
        TraceWriter::new(&mut trace)
            .write_events(&events)
            .map_err(|e| format!("cannot serialize the trace: {e}"))?;
    }
    Ok((out, trace))
}

/// Replays `session`'s script in-process and checks each reply the
/// server gave against the engine's own answer. Returns the replay's wall
/// time in milliseconds. Records spans when `collector` is given, plus the
/// engine counters and the cut drift against a scratch run.
fn replay(
    load: &str,
    script: &[Request],
    session: &Session,
    config: &EngineConfig,
    collector: Option<&Collector>,
    out: &mut Outcome,
) -> Result<f64, String> {
    let sw = Stopwatch::start();
    let setup = collector.map(|c| c.scope(order::META, None));

    let request = {
        let _s = span(&setup, SPAN_JSON_PARSE);
        json::parse(load.trim_end())
            .map_err(|e| format!("the partition request does not parse: {e}"))?
    };
    let h = hypergraph_from_request(&request)?;
    let mut nl = {
        let _s = span(&setup, SPAN_NL_BUILD);
        DynamicNetlist::from_hypergraph(&h).map_err(|e| format!("cannot build the netlist: {e}"))?
    };
    let mut engine = PartitionEngine::new(config.clone());
    let loaded = {
        let _s = span(&setup, SPAN_LOAD);
        engine
            .load(&h)
            .map_err(|e| format!("the engine cannot load: {e}"))?
    };
    out.count(
        reply_u64(&session.load_reply, "cut") == Some(loaded.cut_after)
            && reply_fp(&session.load_reply) == Some(loaded.fingerprint),
    );
    if let (Some(c), Some(s)) = (collector, setup) {
        c.adopt(s.finish());
    }

    for (req, reply) in script.iter().zip(&session.replies) {
        let scope =
            collector.map(|c| c.scope(order::start(req.id as usize), u32::try_from(req.id).ok()));
        let root = span(&scope, SPAN_REQUEST);
        let v = {
            let _s = span(&scope, SPAN_JSON_PARSE);
            json::parse(req.line.trim_end())
                .map_err(|e| format!("a scripted request does not parse: {e}"))?
        };
        let agrees = match req.verb {
            Verb::Edit => {
                let edit = edit_from_request(&v)?;
                let delta = {
                    let _s = span(&scope, SPAN_APPLY);
                    engine.apply(&edit)
                };
                {
                    let _s = span(&scope, SPAN_NL_EDIT);
                    apply_structural(&mut nl, &edit)?;
                }
                let fp = {
                    let _s = span(&scope, SPAN_FINGERPRINT);
                    engine.fingerprint()
                };
                match delta {
                    Ok(delta) => {
                        if let Some(s) = &scope {
                            s.counter(COUNTER_DAMAGED, delta.damaged_modules as u64);
                        }
                        reply_u64(reply, "cut") == Some(delta.cut_after)
                            && reply_fp(reply) == Some(delta.fingerprint)
                            && fp == delta.fingerprint
                    }
                    Err(e) => {
                        eprintln!("fhp-bench: replayed edit {} failed: {e}", req.id);
                        false
                    }
                }
            }
            Verb::QueryCut => {
                let cut = {
                    let _s = span(&scope, SPAN_QUERY);
                    engine.cut()
                };
                reply_u64(reply, "cut") == Some(cut)
            }
            Verb::Fingerprint => {
                let fp = {
                    let _s = span(&scope, SPAN_FINGERPRINT);
                    engine.fingerprint()
                };
                let dual = {
                    let _s = span(&scope, SPAN_NL_DUAL_FP);
                    nl.dual_fingerprint()
                };
                std::hint::black_box(dual);
                reply_fp(reply) == Some(fp)
            }
        };
        out.count(agrees);
        drop(root);
        if let (Some(c), Some(s)) = (collector, scope) {
            c.adopt(s.finish());
        }
    }
    let wall_ms = sw.ms();

    if collector.is_some() {
        let stats = engine.stats();
        out.set(
            "engine.incremental_ratio",
            stats.incremental_hits as f64 / stats.edits.max(1) as f64,
        );
        out.set("engine.full_recomputes", stats.full_recomputes as f64);
        let (live, _, _) = engine.materialize().ok_or("the engine lost its instance")?;
        let scratch = Algorithm1::new(*config.partition_value())
            .run(&live)
            .map_err(|e| format!("the scratch partition failed: {e}"))?;
        out.set(
            "engine.cut_drift",
            engine.cut() as f64 - scratch.report.weighted_cut as f64,
        );
    }
    Ok(wall_ms)
}

/// A span in `scope`, when tracing.
fn span<'a>(scope: &'a Option<Scope>, name: &'static str) -> Option<SpanGuard<'a>> {
    scope.as_ref().map(|s| s.span(name))
}

/// Builds the instance a `partition` request describes, as the server
/// does: weighted modules in order, then unit-weight nets in order.
fn hypergraph_from_request(v: &Json) -> Result<Hypergraph, String> {
    let numbers = |item: &Json| -> Result<Vec<u64>, String> {
        let Json::Arr(items) = item else {
            return Err("expected an array of numbers".to_string());
        };
        items
            .iter()
            .map(|n| match n {
                Json::Num(x) if *x >= 0.0 => Ok(*x as u64),
                _ => Err("expected a non-negative number".to_string()),
            })
            .collect()
    };
    let (Some(weights), Some(Json::Arr(nets))) = (v.get("weights"), v.get("nets")) else {
        return Err("the partition request lacks weights or nets".to_string());
    };
    let mut b = HypergraphBuilder::new();
    for w in numbers(weights)? {
        b.add_weighted_vertex(w);
    }
    for net in nets {
        let pins: Vec<VertexId> = numbers(net)?
            .into_iter()
            .map(|p| VertexId::new(p as usize))
            .collect();
        b.add_weighted_edge(pins, 1)
            .map_err(|e| format!("the partition request has a bad net: {e}"))?;
    }
    Ok(b.build())
}

/// The engine edit a scripted `edit` request asks for.
fn edit_from_request(v: &Json) -> Result<Edit, String> {
    let id = |key: &str| -> Result<u32, String> {
        reply_u64(v, key)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| format!("edit lacks `{key}`"))
    };
    match v.get("op") {
        Some(Json::Str(op)) if op == "add_net" => {
            let Some(Json::Arr(items)) = v.get("pins") else {
                return Err("add_net lacks `pins`".to_string());
            };
            let pins = items
                .iter()
                .map(|p| match p {
                    Json::Num(x) if *x >= 0.0 => {
                        u32::try_from(*x as u64).map_err(|e| e.to_string())
                    }
                    _ => Err("add_net pins must be numbers".to_string()),
                })
                .collect::<Result<Vec<u32>, String>>()?;
            Ok(Edit::AddNet { pins, weight: 1 })
        }
        Some(Json::Str(op)) if op == "remove_net" => Ok(Edit::RemoveNet { net: id("net")? }),
        Some(Json::Str(op)) if op == "pin" => Ok(Edit::PinChange {
            net: id("net")?,
            module: id("module")?,
            add: v.get("add") == Some(&Json::Bool(true)),
        }),
        other => Err(format!("unexpected edit op {other:?}")),
    }
}

/// The structural half of `edit`, on a standalone netlist.
fn apply_structural(nl: &mut DynamicNetlist, edit: &Edit) -> Result<(), String> {
    let applied = match edit {
        Edit::AddNet { pins, weight } => nl.add_net(pins, *weight).map(|_| ()),
        Edit::RemoveNet { net } => nl.remove_net(*net),
        Edit::PinChange { net, module, add } => nl.pin_change(*net, *module, *add),
        other => return Err(format!("the script makes no {other:?} edits")),
    };
    applied.map_err(|e| format!("a structural edit was rejected: {e}"))
}

/// Count and total duration (ns) of the per-request spans named `name`.
fn request_spans(events: &[Event], name: &str) -> (f64, f64) {
    events
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.name == name && e.start_index.is_some())
        .fold((0.0, 0.0), |(n, t), e| (n + 1.0, t + e.dur_ns as f64))
}

fn mean_ns(events: &[Event], name: &str) -> f64 {
    let (n, total) = request_spans(events, name);
    if n > 0.0 {
        total / n
    } else {
        0.0
    }
}

/// Derives the per-layer metrics from the traced replay's events.
fn record_layers(out: &mut Outcome, events: &[Event]) {
    let setup_ms = |name: &str| {
        events
            .iter()
            .filter(|e| e.kind == EventKind::Span && e.name == name && e.start_index.is_none())
            .map(|e| e.dur_ns as f64 / 1e6)
            .sum::<f64>()
    };
    out.set("json.parse_us", mean_ns(events, SPAN_JSON_PARSE) / 1e3);
    out.set("incremental.build_ms", setup_ms(SPAN_NL_BUILD));
    out.set("engine.load_ms", setup_ms(SPAN_LOAD));
    let edit_ns = mean_ns(events, SPAN_NL_EDIT);
    out.set("incremental.edit_us", edit_ns / 1e3);
    out.set(
        "incremental.dual_fingerprint_ms",
        mean_ns(events, SPAN_NL_DUAL_FP) / 1e6,
    );
    let apply_ns = mean_ns(events, SPAN_APPLY);
    let fingerprint_ns = mean_ns(events, SPAN_FINGERPRINT);
    out.set("engine.apply_ms", apply_ns / 1e6);
    out.set("engine.fingerprint_ms", fingerprint_ns / 1e6);
    // `apply` = structural edit + repair + the fingerprint it returns.
    out.set(
        "engine.repair_ms",
        (apply_ns - edit_ns - fingerprint_ns) / 1e6,
    );
    let damaged: Vec<f64> = events
        .iter()
        .filter(|e| e.name == COUNTER_DAMAGED)
        .filter_map(|e| {
            e.fields.iter().find_map(|(k, v)| match (k, v) {
                (&"value", FieldValue::U64(n)) => Some(*n as f64),
                _ => None,
            })
        })
        .collect();
    out.set("engine.damaged_p50", median(&damaged));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_mix_and_ids_follow_the_spec() {
        let s = script(3, 500, 800, 2000);
        assert_eq!(s.len(), 2000);
        let edits = s.iter().filter(|r| r.verb == Verb::Edit).count();
        let queries = s.iter().filter(|r| r.verb == Verb::QueryCut).count();
        assert!((1300..1500).contains(&edits), "edits {edits}");
        assert!((300..500).contains(&queries), "queries {queries}");
        let new_ids: Vec<u64> = s.iter().filter_map(|r| r.new_id).collect();
        assert_eq!(new_ids.first(), Some(&800));
        assert!(new_ids.windows(2).all(|w| w[1] == w[0] + 1));
        assert!(s.iter().enumerate().all(|(i, r)| r.id == i as u64 + 1));
        // the same seed gives the same script
        let again = script(3, 500, 800, 2000);
        assert!(s.iter().zip(&again).all(|(a, b)| a.line == b.line));
    }

    #[test]
    fn every_scripted_edit_is_accepted_by_a_netlist() {
        let h = fhp_gen::scaling_instance(400, 9).expect("generates");
        let mut nl = DynamicNetlist::from_hypergraph(&h).expect("builds");
        for req in script(9, h.num_vertices(), h.num_edges(), 1500) {
            if req.verb == Verb::Edit {
                let v = json::parse(req.line.trim_end()).expect("valid JSON");
                let edit = edit_from_request(&v).expect("an edit");
                apply_structural(&mut nl, &edit).expect("accepted");
            }
        }
    }
}
