//! `fhp-bench compare A.json B.json`: one row per (workload, metric) of
//! two `fhp-bench run` result files, with each side's median, quartiles
//! and sample count, judged by the bounds in `BENCHMARK.json`.
//!
//! A bounded metric is `unresolved` when either side's interquartile
//! range exceeds the bound (as a share of its median); otherwise it is
//! `worse` or `better` when B's median moved past the bound in that
//! direction, else `same`. `cut` and `failed_frac`, deterministic for a
//! seed, must not change at all.
//! Per-layer metrics have no bound and read `same` or `differs`.

use std::collections::BTreeMap;

use fhp_obs::json::{self, Json};

use crate::stats::spread;
use crate::workload::Workload;
use crate::Args;

/// How a metric is judged.
#[derive(Clone, Copy, Debug)]
struct Rule {
    lower_is_better: bool,
    /// `None` for per-layer metrics.
    bound: Option<f64>,
}

/// One side of a row.
#[derive(Clone, Debug)]
struct Side {
    unit: String,
    median: f64,
    q1: f64,
    q3: f64,
    values: Vec<f64>,
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

fn num(v: &Json, key: &str) -> Option<f64> {
    match v.get(key) {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    }
}

/// The judging rules from `BENCHMARK.json` in its order, plus
/// `failed_frac`.
fn rules(path: &str) -> Result<Vec<(String, Rule)>, String> {
    let bench = read_json(path)?;
    let mut out = Vec::new();
    for (key, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let Some(Json::Arr(metrics)) = bench.get(key) else {
            return Err(format!("{path} lacks `{key}`"));
        };
        for m in metrics {
            let (Some(Json::Str(name)), Some(Json::Str(better))) = (m.get("name"), m.get("better"))
            else {
                return Err(format!("{path}: a `{key}` entry lacks `name` or `better`"));
            };
            let bound = if bounded {
                Some(num(m, "bound").ok_or_else(|| format!("{path}: {name} lacks `bound`"))?)
            } else {
                None
            };
            out.push((
                name.clone(),
                Rule {
                    lower_is_better: better == "lower",
                    bound,
                },
            ));
        }
    }
    // Deterministic for a seed, so held to exact equality.
    for exact in ["cut", "failed_frac"] {
        out.push((
            exact.to_string(),
            Rule {
                lower_is_better: true,
                bound: Some(0.0),
            },
        ));
    }
    Ok(out)
}

/// (workload, metric) → side, from a result file.
fn results(path: &str) -> Result<BTreeMap<(String, String), Side>, String> {
    let file = read_json(path)?;
    let Some(Json::Obj(workloads)) = file.get("results") else {
        return Err(format!("{path} has no `results`"));
    };
    let mut out = BTreeMap::new();
    for (workload, metrics) in workloads {
        let Json::Obj(metrics) = metrics else {
            return Err(format!("{path}: results of {workload} are not an object"));
        };
        for (metric, v) in metrics {
            let values = match v.get("values") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .filter_map(|x| match x {
                        Json::Num(n) => Some(*n),
                        _ => None,
                    })
                    .collect(),
                _ => Vec::new(),
            };
            let side = Side {
                unit: match v.get("unit") {
                    Some(Json::Str(u)) => u.clone(),
                    _ => String::new(),
                },
                median: num(v, "median")
                    .ok_or_else(|| format!("{path}: {workload} {metric} lacks a median"))?,
                q1: num(v, "q1").unwrap_or(0.0),
                q3: num(v, "q3").unwrap_or(0.0),
                values,
            };
            out.insert((workload.clone(), metric.clone()), side);
        }
    }
    Ok(out)
}

/// The verdict on B against A.
fn verdict(rule: Option<&Rule>, a: &Side, b: &Side) -> &'static str {
    let Some((rule, bound)) = rule.and_then(|r| Some((r, r.bound?))) else {
        return if a.median == b.median {
            "same"
        } else {
            "differs"
        };
    };
    if bound > 0.0 && (spread(&a.values) > bound || spread(&b.values) > bound) {
        return "unresolved";
    }
    let rel = if a.median == b.median {
        0.0
    } else if a.median == 0.0 {
        (b.median - a.median).signum() * f64::INFINITY
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let gain = if rule.lower_is_better { -rel } else { rel };
    if gain < -bound {
        "worse"
    } else if gain > bound {
        "better"
    } else {
        "same"
    }
}

/// `fhp-bench compare A.json B.json [--benchmark BENCHMARK.json]`.
pub fn compare_main(args: &Args) -> Result<(), String> {
    let [a_path, b_path] = args.positional() else {
        return Err(
            "usage: fhp-bench compare A.json B.json [--benchmark BENCHMARK.json]".to_string(),
        );
    };
    let rules = rules(args.get("benchmark").unwrap_or("BENCHMARK.json"))?;
    let a = results(a_path)?;
    let b = results(b_path)?;

    // Workloads in benchmark order, then anything else either file holds.
    let mut workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    for (w, _) in a.keys().chain(b.keys()) {
        if !workloads.contains(w) {
            workloads.push(w.clone());
        }
    }
    // Metrics in the order BENCHMARK.json lists them, then the rest.
    let order = |metric: &str| {
        rules
            .iter()
            .position(|(name, _)| name == metric)
            .unwrap_or(usize::MAX)
    };
    let rule_of = |metric: &str| {
        rules
            .iter()
            .find(|(name, _)| name == metric)
            .map(|(_, r)| r)
    };
    println!(
        "{:<18} {:<32} {:>14} {:>25} {:>3}   {:>14} {:>25} {:>3}  {:>8}  verdict",
        "workload",
        "metric",
        "A median",
        "A [q1, q3]",
        "n",
        "B median",
        "B [q1, q3]",
        "n",
        "change"
    );
    let mut worse = 0;
    for w in &workloads {
        let mut metrics: Vec<&String> = a
            .keys()
            .chain(b.keys())
            .filter(|(wl, _)| wl == w)
            .map(|(_, m)| m)
            .collect();
        metrics.sort_by_key(|m| (order(m), (*m).clone()));
        metrics.dedup();
        for metric in metrics {
            let key = (w.clone(), metric.clone());
            let (Some(sa), Some(sb)) = (a.get(&key), b.get(&key)) else {
                println!("{w:<18} {metric:<32} only in one file");
                continue;
            };
            let v = verdict(rule_of(metric), sa, sb);
            if v == "worse" {
                worse += 1;
            }
            let change = if sa.median == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.1}%", (sb.median - sa.median) / sa.median.abs() * 100.0)
            };
            println!(
                "{w:<18} {:<32} {:>14.6} {:>25} {:>3}   {:>14.6} {:>25} {:>3}  {change:>8}  {v}",
                format!("{metric} ({})", sa.unit),
                sa.median,
                format!("[{:.6}, {:.6}]", sa.q1, sa.q3),
                sa.values.len(),
                sb.median,
                format!("[{:.6}, {:.6}]", sb.q1, sb.q3),
                sb.values.len(),
            );
        }
    }
    if worse > 0 {
        Err(format!("{worse} metric(s) got worse beyond their bound"))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        let (q1, q3) = crate::stats::quartiles(values);
        Side {
            unit: "ms".to_string(),
            median: crate::stats::median(values),
            q1,
            q3,
            values: values.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let lower = Rule {
            lower_is_better: true,
            bound: Some(0.10),
        };
        let a = side(&[100.0, 101.0, 99.0]);
        assert_eq!(
            verdict(Some(&lower), &a, &side(&[100.0, 102.0, 98.0])),
            "same"
        );
        assert_eq!(
            verdict(Some(&lower), &a, &side(&[120.0, 121.0, 119.0])),
            "worse"
        );
        assert_eq!(
            verdict(Some(&lower), &a, &side(&[80.0, 81.0, 79.0])),
            "better"
        );
        assert_eq!(
            verdict(Some(&lower), &a, &side(&[60.0, 100.0, 140.0])),
            "unresolved"
        );
        let exact = Rule {
            lower_is_better: true,
            bound: Some(0.0),
        };
        assert_eq!(verdict(Some(&exact), &side(&[0.0]), &side(&[0.0])), "same");
        assert_eq!(
            verdict(Some(&exact), &side(&[0.0]), &side(&[0.01])),
            "worse"
        );
        assert_eq!(verdict(None, &side(&[3.0]), &side(&[3.0])), "same");
        assert_eq!(verdict(None, &side(&[3.0]), &side(&[4.0])), "differs");
    }
}
