//! Metric values, order statistics, and the JSON the benchmark emits and
//! compares: the one-line contract result, the suite's ledger file, the
//! self-check against `BENCHMARK.json`, and `compare`.

use crate::measure::MAX_LATE_P99_US;
use crate::workloads::Workload;
use secemb_wire::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// Named values with their units, in emission order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        // JSON has no NaN/inf; a metric that could not be computed (an
        // empty sample) reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|(_, v, _)| *v)
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    pub fn to_json(&self) -> Value {
        Value::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Value::obj([
                            ("value", Value::Num(*value)),
                            ("unit", Value::Str(unit.clone())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Prints every metric by name and unit, one per line.
    pub fn print(&self, heading: &str) {
        println!("{heading}");
        for (name, value, unit) in &self.0 {
            println!("  {name:<34} {value:>14.4} {unit}");
        }
    }
}

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Distance between the first and third quartile, with the quartiles
/// Python's `statistics.quantiles(values, n=4)` returns (the method the
/// driver applies to this benchmark's own spread).
pub fn iqr(values: Vec<f64>) -> f64 {
    let v = sorted(values);
    if v.len() < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let pos = i * (v.len() + 1);
        let j = (pos / 4).clamp(1, v.len() - 1);
        let frac = (pos as f64 / 4.0) - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    quartile(3) - quartile(1)
}

/// The result of one contract run.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

/// One run of one workload, traced or not.
pub struct Run {
    pub result: RunResult,
    /// Client-side metrics that are not part of `result` (the untraced
    /// run's; the traced run reports its own as per-layer metrics).
    pub client: Metrics,
    /// How late the sender ran at the 99th percentile, us (the worst of
    /// the passes whose numbers are reported).
    pub late_p99_us: f64,
}

impl Run {
    /// False when the sender ran too late for the client-side numbers
    /// to be the server's.
    pub fn valid(&self) -> bool {
        self.late_p99_us <= MAX_LATE_P99_US
    }
}

/// One metric declared in `BENCHMARK.json`.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark checks itself against.
pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Manifest {
    pub fn load(path: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| -> Result<Vec<Declared>, String> {
            doc.get(key)
                .and_then(Value::as_arr)
                .ok_or(format!("BENCHMARK.json: no '{key}' array"))?
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
                    Ok(Declared {
                        name: text("name").ok_or("metric without a name")?,
                        unit: text("unit").ok_or("metric without a unit")?,
                        lower_is_better: text("better").as_deref() == Some("lower"),
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("BENCHMARK.json: no 'workloads' array")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
            .collect();
        Ok(Manifest {
            workloads,
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

/// Every metric `declared` lists must be in `got`, with the same unit,
/// and nothing else - except the metrics of layers `workload` lacks,
/// which must not be there. Returns what is wrong, one line each.
pub fn check_against(declared: &[Declared], got: &Metrics, workload: &Workload) -> Vec<String> {
    let context = workload.name;
    let mut problems = Vec::new();
    for d in declared {
        match got.0.iter().find(|(n, ..)| *n == d.name) {
            None if workload.lacks(&d.name) => {}
            None => problems.push(format!("{context}: metric {} missing", d.name)),
            Some(_) if workload.lacks(&d.name) => problems.push(format!(
                "{context}: metric {} measured, but the workload lacks its layer",
                d.name
            )),
            Some((_, _, unit)) if *unit != d.unit => problems.push(format!(
                "{context}: metric {} has unit {unit}, BENCHMARK.json says {}",
                d.name, d.unit
            )),
            Some(_) => {}
        }
    }
    for (name, ..) in &got.0 {
        if !declared.iter().any(|d| d.name == *name) {
            problems.push(format!("{context}: metric {name} not in BENCHMARK.json"));
        }
    }
    problems
}

/// `got` in `declared`'s order, with 0 for the metrics of layers the
/// workload lacks: the contract's result line names every metric.
pub fn filled(declared: &[Declared], got: &Metrics) -> Metrics {
    let mut out = Metrics::default();
    for d in declared {
        out.put(&d.name, got.get(&d.name).unwrap_or(0.0), &d.unit);
    }
    out
}

/// The served-path numbers the issue wanted gated, which the host this
/// was built on cannot hold to a bound (README, *Demoted metrics*): name,
/// whether lower is better, and the bound the issue gave - a share of A,
/// or an absolute difference for the share that is 0 when healthy.
/// `compare` prints them under the gated rows; they never fail it.
const OBSERVED: [(&str, bool, f64); 5] = [
    ("client.lat_p50_ms", true, 0.08),
    ("client.lat_p95_ms", true, 0.10),
    ("client.sat_rps", false, 0.08),
    ("fleet.cpu_us_per_req", true, 0.08),
    ("client.sla_miss_share", true, 0.005),
];

/// The issue bounds `setup_s` by "10 % or 0.03 s": start-ups of 8 - 90 ms
/// move by milliseconds with the host. `BENCHMARK.json` can only hold the
/// relative half, so `compare` adds the absolute allowance itself.
const SETUP_ALLOWANCE_S: f64 = 0.03;

/// `compare A.json B.json`: applies each end-to-end metric's bound per
/// (metric, workload) row, then lists the demoted served-path metrics of
/// the same untraced runs against the issue's bounds. Returns whether a
/// gated row regressed.
///
/// For the served-path rows the spread is tested before the difference:
/// where either run's within-run spread (`client.window_iqr_ms` over
/// `client.lat_p50_ms`) exceeds the bound the row reads `unresolved`
/// whatever the two values say, and where a generator ran late,
/// `invalid`.
pub fn compare(manifest: &Manifest, a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let docs = [load(a_path)?, load(b_path)?];
    let mut regressed = false;
    println!(
        "{:<14} {:<22} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for workload in &manifest.workloads {
        let entries = docs
            .each_ref()
            .map(|doc| doc.get("workloads").and_then(|w| w.get(workload)));
        let value = |k: usize, part: &str, name: &str| {
            entries[k]?.get(part)?.get(name)?.get("value")?.as_f64()
        };
        for d in &manifest.end_to_end {
            let (Some(va), Some(vb)) = (
                value(0, "end_to_end", &d.name),
                value(1, "end_to_end", &d.name),
            ) else {
                println!("{workload:<14} {:<22} missing from a result file", d.name);
                regressed = true;
                continue;
            };
            let bound = d.bound.unwrap_or(0.0);
            let worse_by = worse_by(va, vb, d.lower_is_better);
            let allowed = d.name == "setup_s" && vb - va <= SETUP_ALLOWANCE_S;
            let verdict = if worse_by > bound && allowed {
                "unchanged (within 0.03 s)"
            } else if worse_by > bound {
                regressed = true;
                "REGRESSED"
            } else if worse_by < -bound {
                "improved"
            } else {
                "unchanged"
            };
            print_row(workload, &d.name, va, vb, worse_by, bound, verdict);
        }
        let valid = entries
            .iter()
            .all(|e| matches!(e.and_then(|e| e.get("valid")), Some(Value::Bool(true))));
        let spread = (0..2)
            .filter_map(|k| {
                let iqr = value(k, "untraced_client", "client.window_iqr_ms")?;
                let p50 = value(k, "untraced_client", "client.lat_p50_ms")?;
                (p50 > 0.0).then_some(iqr / p50)
            })
            .fold(0.0f64, f64::max);
        for (name, lower_is_better, bound) in OBSERVED {
            let (Some(va), Some(vb)) = (
                value(0, "untraced_client", name),
                value(1, "untraced_client", name),
            ) else {
                continue;
            };
            let absolute = name.ends_with("_share");
            let worse_by = if absolute {
                vb - va
            } else {
                worse_by(va, vb, lower_is_better)
            };
            let verdict = if !valid {
                "invalid"
            } else if !absolute && spread > bound {
                "unresolved"
            } else if worse_by > bound {
                "worse (ungated)"
            } else if worse_by < -bound {
                "better (ungated)"
            } else {
                "unchanged (ungated)"
            };
            print_row(workload, name, va, vb, worse_by, bound, verdict);
        }
    }
    Ok(regressed)
}

/// The share of `va` by which `vb` is worse (negative: better).
fn worse_by(va: f64, vb: f64, lower_is_better: bool) -> f64 {
    if va == 0.0 {
        0.0
    } else if lower_is_better {
        (vb - va) / va
    } else {
        (va - vb) / va
    }
}

fn print_row(
    workload: &str,
    name: &str,
    va: f64,
    vb: f64,
    worse_by: f64,
    bound: f64,
    verdict: &str,
) {
    println!(
        "{workload:<14} {name:<22} {va:>12.4} {vb:>12.4} {:>8.2}% {:>6.1}%  {verdict}",
        worse_by * 100.0,
        bound * 100.0
    );
}

/// The suite's ledger file: one object per workload with the end-to-end
/// metrics (untraced run), that run's client-side validity metrics, and
/// the per-layer metrics (traced run).
pub struct SuiteEntry {
    pub end_to_end: RunResult,
    pub untraced_client: Metrics,
    pub per_layer: RunResult,
    pub valid: bool,
}

pub fn suite_json(
    seed: u64,
    seconds: f64,
    tiny: bool,
    nproc: usize,
    entries: &BTreeMap<String, SuiteEntry>,
) -> Value {
    let workloads = entries
        .iter()
        .map(|(name, e)| {
            (
                name.clone(),
                Value::obj([
                    ("valid", Value::Bool(e.valid)),
                    (
                        "correct",
                        Value::Bool(e.end_to_end.correct && e.per_layer.correct),
                    ),
                    ("attempted", Value::Num(e.end_to_end.attempted as f64)),
                    ("failed", Value::Num(e.end_to_end.failed as f64)),
                    ("end_to_end", e.end_to_end.metrics.to_json()),
                    ("untraced_client", e.untraced_client.to_json()),
                    ("per_layer", e.per_layer.metrics.to_json()),
                ]),
            )
        })
        .collect();
    Value::obj([
        ("schema", Value::Num(2.0)),
        ("seed", Value::Num(seed as f64)),
        ("seconds_per_run", Value::Num(seconds)),
        ("nproc", Value::Num(nproc as f64)),
        (
            "note",
            Value::Str(
                if tiny {
                    "--tiny smoke run: the numbers are meaningless"
                } else {
                    "cells needing more than one worker per table are unmeasured on this host"
                }
                .to_string(),
            ),
        ),
        ("workloads", Value::Obj(workloads)),
    ])
}
