//! `compare` and `check`, and the result lines `run --out` appends.
//!
//! A result file holds one JSON object per line: the driver's result object
//! plus `workload`, `seed`, `seconds` and `trace`. `compare A B` reads two
//! such files (A = parent, B = change), takes the untraced lines, and applies
//! each end-to-end metric's bound from `BENCHMARK.json` per workload.

use crate::metrics::{median, Better, MetricDef, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::Ctx;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

pub fn append_result(
    path: &Path,
    workload: &str,
    ctx: &Ctx,
    outcome: &Outcome,
) -> std::io::Result<()> {
    let Value::Map(result) = outcome.to_json(ctx.trace) else {
        unreachable!("to_json builds a map")
    };
    let mut fields = vec![
        ("workload".to_string(), Value::Str(workload.into())),
        ("seed".to_string(), Value::Num(ctx.seed as f64)),
        ("seconds".to_string(), Value::Num(ctx.seconds)),
        (
            "trace".to_string(),
            Value::Num(f64::from(u8::from(ctx.trace))),
        ),
    ];
    fields.extend(result);
    let line = serde_json::to_string(&Value::Map(fields)).map_err(std::io::Error::other)?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}

/// `BENCHMARK.json` from the current directory or its parent (the
/// benchmark runs from the repository root or from `benchmark/`).
fn load_manifest() -> Result<Value, String> {
    let path = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .map(PathBuf::from)
        .find(|p| p.is_file())
        .ok_or("BENCHMARK.json not found in the current directory or its parent")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn entries<'a>(manifest: &'a Value, key: &str) -> Result<&'a [Value], String> {
    manifest
        .get(key)
        .and_then(Value::as_seq)
        .ok_or(format!("BENCHMARK.json has no `{key}` list"))
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry.get(key).and_then(Value::as_str).unwrap_or("")
}

/// Fails if the names the binary emits and the names in `BENCHMARK.json`
/// differ (workloads and their reasons; metrics, units, directions; the
/// bound's range; the run length).
pub fn check() -> Result<bool, String> {
    let manifest = load_manifest()?;
    let mut problems = Vec::new();

    let keys: Vec<&str> = manifest
        .as_map()
        .ok_or("BENCHMARK.json is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    if sorted
        != [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads",
        ]
    {
        problems.push(format!("top-level keys are {keys:?}"));
    }
    if manifest.get("run_seconds").and_then(Value::as_f64) != Some(crate::DEFAULT_SECONDS) {
        problems.push(format!(
            "run_seconds differs from the binary's default {}",
            crate::DEFAULT_SECONDS
        ));
    }

    let listed: Vec<(&str, &str)> = entries(&manifest, "workloads")?
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    if listed != WORKLOADS {
        problems.push(format!(
            "workloads differ: file has {:?}",
            listed.iter().map(|w| w.0).collect::<Vec<_>>()
        ));
    }

    let mut compare_metrics = |key: &str,
                               defs: &[MetricDef],
                               bounded: bool|
     -> Result<(), String> {
        let listed = entries(&manifest, key)?;
        let mut names: Vec<&str> = listed.iter().map(|m| text(m, "name")).collect();
        for def in defs {
            match listed.iter().find(|m| text(m, "name") == def.name) {
                None => problems.push(format!("{key}: `{}` is emitted but not listed", def.name)),
                Some(m) => {
                    if text(m, "unit") != def.unit || text(m, "better") != def.better.as_str() {
                        problems.push(format!(
                            "{key}: `{}` is {} / {} in the binary",
                            def.name,
                            def.unit,
                            def.better.as_str()
                        ));
                    }
                    let bound = m.get("bound").and_then(Value::as_f64);
                    if bounded != bound.is_some()
                        || bound.is_some_and(|b| !(0.0..=0.25).contains(&b))
                    {
                        problems.push(format!("{key}: `{}` has bound {bound:?}", def.name));
                    }
                }
            }
            names.retain(|n| *n != def.name);
        }
        for name in names {
            problems.push(format!("{key}: `{name}` is listed but not emitted"));
        }
        Ok(())
    };
    compare_metrics("end_to_end", END_TO_END, true)?;
    compare_metrics("per_layer", PER_LAYER, false)?;

    for p in &problems {
        println!("MISMATCH {p}");
    }
    if problems.is_empty() {
        println!(
            "BENCHMARK.json matches the binary: {} workloads, {} end-to-end and {} per-layer metrics",
            WORKLOADS.len(),
            END_TO_END.len(),
            PER_LAYER.len()
        );
    }
    Ok(problems.is_empty())
}

/// Untraced values per (workload, metric) of one result file.
fn load_runs(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (n, line) in body
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run: Value =
            serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if run.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = text(&run, "workload").to_string();
        for (name, metric) in run.get("metrics").and_then(Value::as_map).unwrap_or(&[]) {
            if let Some(v) = metric.get("value").and_then(Value::as_f64) {
                runs.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

/// Interquartile range as Python's `statistics.quantiles(v, n=4)` gives the
/// quartiles (exclusive method); 0 for fewer than two values.
pub fn iqr(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    quartile(3) - quartile(1)
}

#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Pass,
    Regress,
    /// The runs of one side spread wider than the bound: the medians cannot
    /// say "unchanged".
    Unresolved,
}

fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64, f64) {
    let (ma, mb) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let worse = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = (iqr(a) / ma).max(iqr(b) / mb);
    let b_always_better = match better {
        Better::Lower => {
            b.iter().copied().fold(f64::MIN, f64::max) < a.iter().copied().fold(f64::MAX, f64::min)
        }
        Better::Higher => {
            b.iter().copied().fold(f64::MAX, f64::min) > a.iter().copied().fold(f64::MIN, f64::max)
        }
    };
    let verdict = if spread > bound && !b_always_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regress
    } else {
        Verdict::Pass
    };
    (verdict, worse, spread)
}

/// `compare A B`: one row per workload and end-to-end metric; `Ok(false)`
/// when any row regresses.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("compare needs two result files: A (parent) and B (change)".into());
    };
    let manifest = load_manifest()?;
    let (a, b) = (load_runs(a_path)?, load_runs(b_path)?);
    let mut regressed = false;
    println!(
        "{:<16} {:<18} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let key = (workload.to_string(), def.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let bound = entries(&manifest, "end_to_end")?
                .iter()
                .find(|m| text(m, "name") == def.name)
                .and_then(|m| m.get("bound"))
                .and_then(Value::as_f64)
                .ok_or(format!("BENCHMARK.json has no bound for `{}`", def.name))?;
            let (verdict, worse, spread) = judge(va, vb, def.better, bound);
            regressed |= verdict == Verdict::Regress;
            println!(
                "{workload:<16} {:<18} {:>12.4} {:>12.4} {:>8.1}% {:>7.1}% {:>6.0}%  {}",
                def.name,
                median(&mut va.clone()),
                median(&mut vb.clone()),
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Pass => "pass",
                    Verdict::Regress => "REGRESS",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((iqr(&[40.0, 10.0, 20.0]) - 30.0).abs() < 1e-12);
        assert_eq!(iqr(&[3.0]), 0.0);
    }

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        // 5 % slower latency within a 10 % bound.
        assert_eq!(
            judge(&steady, &[105.0, 104.0, 106.0, 105.5], Better::Lower, 0.10).0,
            Verdict::Pass
        );
        // 20 % slower: regress.
        assert_eq!(
            judge(&steady, &[120.0, 121.0, 119.0, 120.0], Better::Lower, 0.10).0,
            Verdict::Regress
        );
        // 20 % less throughput: regress; 20 % more: pass.
        assert_eq!(
            judge(&steady, &[80.0, 81.0, 79.0, 80.0], Better::Higher, 0.10).0,
            Verdict::Regress
        );
        assert_eq!(
            judge(&steady, &[120.0, 121.0, 119.0, 120.0], Better::Higher, 0.10).0,
            Verdict::Pass
        );
        // A side that spreads wider than the bound cannot be called unchanged…
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(&noisy, &[100.0, 101.0, 99.0, 100.0], Better::Lower, 0.10).0,
            Verdict::Unresolved
        );
        // …unless every run of the change beats every run of the parent.
        assert_eq!(
            judge(&noisy, &[50.0, 51.0, 49.0, 50.0], Better::Lower, 0.10).0,
            Verdict::Pass
        );
    }
}
