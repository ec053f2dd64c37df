//! The metric vocabulary and the result line.
//!
//! Names and units here must match `BENCHMARK.json` (the smoke test
//! checks that they do); bounds and directions live only there.

use std::collections::BTreeMap;

use fhp_obs::json::{self, Json};
use fhp_obs::writer::{json_escape, put};

/// One metric: its name and unit.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// The metric's name; for per-layer metrics the part before the first
    /// `.` names the layer.
    pub name: &'static str,
    /// The unit it is reported in.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the system sees, reported by every workload from its
/// untraced measurement.
pub const END_TO_END: [Metric; 3] = [
    m("setup_s", "s"),
    m("latency_ms", "ms"),
    m("mem_peak_mb", "MB"),
];

/// Per-layer metrics, reported by every workload from its traced run. A
/// workload reports 0 for the layers it does not exercise (see
/// [`crate::workload::Workload::layers`]).
pub const PER_LAYER: [Metric; 52] = [
    m("hgr.parse_ms", "ms"),
    m("intersection.dualize_ms", "ms"),
    m("intersection.shards_ms", "ms"),
    m("intersection.merge_ms", "ms"),
    m("intersection.csr_ms", "ms"),
    m("intersection.pairs_generated", "count"),
    m("intersection.dedup_ratio", "ratio"),
    m("intersection.passes", "count"),
    m("intersection.peak_pair_buffer", "count"),
    m("dual_bfs.longest_path_ms", "ms"),
    m("dual_bfs.front_ms", "ms"),
    m("complete_cut.ms", "ms"),
    m("runner.busy_ms", "ms"),
    m("runner.workers", "count"),
    m("runner.start_p50_ms", "ms"),
    m("runner.start_max_ms", "ms"),
    m("runner.failed_starts", "count"),
    m("algorithm1.g_vertices", "count"),
    m("algorithm1.boundary_len", "count"),
    m("algorithm1.cut", "nets"),
    m("algorithm1.imbalance_pct", "%"),
    m("algorithm1.components_ms", "ms"),
    m("algorithm1.unattributed_pct", "%"),
    m("multilevel.coarsen_ms", "ms"),
    m("multilevel.initial_ms", "ms"),
    m("multilevel.refine_ms", "ms"),
    m("multilevel.flat_guard_ms", "ms"),
    m("multilevel.levels", "count"),
    m("multilevel.coarsest_cut", "nets"),
    m("json.parse_us", "us"),
    m("serve.edit_p99_ms", "ms"),
    m("serve.fingerprint_p50_ms", "ms"),
    m("serve.query_p50_ms", "ms"),
    m("serve.req_per_s", "1/s"),
    m("serve.dispatch_edit_ms", "ms"),
    m("serve.dispatch_fingerprint_ms", "ms"),
    m("serve.dispatch_query_us", "us"),
    m("serve.transport_us", "us"),
    m("incremental.build_ms", "ms"),
    m("incremental.edit_us", "us"),
    m("incremental.dual_fingerprint_ms", "ms"),
    m("engine.load_ms", "ms"),
    m("engine.apply_ms", "ms"),
    m("engine.fingerprint_ms", "ms"),
    m("engine.repair_ms", "ms"),
    m("engine.damaged_p50", "count"),
    m("engine.incremental_ratio", "ratio"),
    m("engine.full_recomputes", "count"),
    m("engine.cut", "nets"),
    m("engine.cut_drift", "nets"),
    m("trace.overhead_pct", "%"),
    m("host.probe_ms", "ms"),
];

/// The layer a per-layer metric belongs to (its name up to the first `.`).
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// What one measured run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (partition runs, or serve requests).
    pub attempted: u64,
    /// Operations that errored or failed an output check.
    pub failed: u64,
    /// A digest of the program's deterministic output; equal across runs
    /// of the same inputs.
    pub digest: String,
    /// Measured values by metric name (end-to-end always, per-layer when
    /// traced), plus instance statistics under `instance.*`.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// An outcome with no attempts yet and no failed check.
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Records a measured value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records one operation's result.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts a failed check that is not an operation of its own.
    pub fn fail_check(&mut self, what: &str) {
        eprintln!("fhp-bench: check failed: {what}");
        self.correct = false;
    }

    /// Whether every attempt succeeded and every check held.
    pub fn all_correct(&self) -> bool {
        self.correct && self.failed == 0 && self.attempted > 0
    }

    /// The `metrics` values for the result line: every end-to-end metric
    /// untraced, every per-layer metric traced. Per-layer metrics of
    /// layers outside `layers` read 0; any other missing value is an
    /// error.
    pub fn reported(&self, traced: bool, layers: &[&str]) -> Result<Vec<(Metric, f64)>, String> {
        let table: &[Metric] = if traced { &PER_LAYER } else { &END_TO_END };
        table
            .iter()
            .map(|&metric| match self.values.get(metric.name) {
                Some(&v) if v.is_finite() => Ok((metric, v)),
                Some(v) => Err(format!("metric {} is not finite ({v})", metric.name)),
                None if traced && !layers.contains(&layer_of(metric.name)) => Ok((metric, 0.0)),
                None => Err(format!("metric {} was not measured", metric.name)),
            })
            .collect()
    }

    /// The benchmark's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self, traced: bool, layers: &[&str]) -> Result<String, String> {
        let mut out = String::new();
        put(
            &mut out,
            format_args!(
                "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
                self.all_correct(),
                self.attempted.max(1),
                self.failed
            ),
        );
        for (i, (metric, value)) in self.reported(traced, layers)?.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            put(
                &mut out,
                format_args!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    json_escape(metric.name),
                    value,
                    json_escape(metric.unit)
                ),
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    /// The line a measuring child process hands its parent: the whole
    /// outcome, all values included.
    pub fn internal_line(&self) -> String {
        let mut out = String::new();
        put(
            &mut out,
            format_args!(
                "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"digest\":\"{}\",\"values\":{{",
                self.correct,
                self.attempted,
                self.failed,
                json_escape(&self.digest)
            ),
        );
        for (i, (name, value)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            put(
                &mut out,
                format_args!("\"{}\":{}", json_escape(name), value),
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses an [`internal_line`](Self::internal_line).
    pub fn parse_internal(line: &str) -> Result<Self, String> {
        let v = json::parse(line).map_err(|e| format!("unreadable child result: {e}"))?;
        let number = |key: &str| match v.get(key) {
            Some(Json::Num(n)) if *n >= 0.0 => Ok(*n as u64),
            _ => Err(format!("child result lacks `{key}`")),
        };
        let Some(Json::Bool(correct)) = v.get("correct") else {
            return Err("child result lacks `correct`".to_string());
        };
        let Some(Json::Str(digest)) = v.get("digest") else {
            return Err("child result lacks `digest`".to_string());
        };
        let Some(Json::Obj(pairs)) = v.get("values") else {
            return Err("child result lacks `values`".to_string());
        };
        let mut values = BTreeMap::new();
        for (name, value) in pairs {
            let Json::Num(x) = value else {
                return Err(format!("child value {name} is not a number"));
            };
            values.insert(name.clone(), *x);
        }
        Ok(Self {
            correct: *correct,
            attempted: number("attempted")?,
            failed: number("failed")?,
            digest: digest.clone(),
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        }
    }

    #[test]
    fn internal_line_round_trips() {
        let mut o = Outcome::new();
        o.digest = "42".to_string();
        o.count(true);
        o.count(false);
        o.set("latency_ms", 1.25);
        let back = Outcome::parse_internal(&o.internal_line()).expect("parses");
        assert_eq!((back.attempted, back.failed), (2, 1));
        assert_eq!(back.values.get("latency_ms"), Some(&1.25));
        assert!(!back.all_correct());
    }
}
