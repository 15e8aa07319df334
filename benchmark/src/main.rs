//! Whole-system benchmark for the rrre workspace. See README.md.
//!
//! ```text
//! rrre-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out FILE]
//! rrre-benchmark compare A.jsonl B.jsonl
//! rrre-benchmark check
//! ```
//!
//! `run` prints every metric by name with its unit and ends with one JSON
//! object on the last line of stdout: `{"correct", "attempted", "failed",
//! "metrics"}`. Without `--workload` it runs all five, one after another in
//! this process, and prefixes each metric name with its workload.

mod fleet;
mod hist;
mod inputs;
mod loadgen;
mod metrics;
mod probes;
mod tools;
mod trace;
mod workloads;

use metrics::{Outcome, WORKLOADS};
use serde_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Ctx;

/// `--seconds` when the flag is absent, and of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;
/// `--seconds` under `--quick`: the CI smoke.
const QUICK_SECONDS: f64 = 2.0;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 11,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a file")?)),
            "--quick" => {
                parsed.seconds = QUICK_SECONDS;
                parsed.quick = true;
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(parsed.seconds.is_finite() && parsed.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    if let Some(w) = &parsed.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload `{w}`; the workloads are {}",
                names.join(", ")
            ));
        }
    }
    Ok(parsed)
}

/// `<target dir>/bench-work/<pid>` for scratch and `<target dir>/out` for
/// traces, located from the running binary so that everything stays inside
/// the checkout whatever `CARGO_TARGET_DIR` says.
fn dirs() -> std::io::Result<(PathBuf, PathBuf)> {
    let exe = std::env::current_exe()?;
    let target = exe
        .parent()
        .and_then(|profile| profile.parent())
        .ok_or_else(|| {
            std::io::Error::other("the benchmark binary is not inside a cargo target directory")
        })?;
    let work = target
        .join("bench-work")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&work)?;
    Ok((work, target.join("out")))
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    let (work, out_dir) = dirs().map_err(|e| format!("cannot create the work directory: {e}"))?;
    let _scratch = Scratch(work.clone());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        setups: if args.quick { 1 } else { 3 },
        shared_inputs: args.workload.is_none().then(Default::default),
        work,
        out_dir,
    };
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.0).collect(),
    };

    let mut results: Vec<(&str, Outcome)> = Vec::new();
    for name in names {
        println!(
            "== {name}: seed {} seconds {} trace {} ({} cores)",
            ctx.seed,
            ctx.seconds,
            u8::from(ctx.trace),
            inputs::nproc()
        );
        let outcome = workloads::run(name, &ctx).expect("workload names were validated");
        outcome.print(ctx.trace);
        println!(
            "   correct {} attempted {} failed {}",
            outcome.correct, outcome.attempted, outcome.failed
        );
        if let Some(path) = &args.out {
            tools::append_result(path, name, &ctx, &outcome)
                .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
        }
        results.push((name, outcome));
    }

    let correct = results.iter().all(|(_, o)| o.correct);
    let last_line = match &results[..] {
        [(_, only)] if args.workload.is_some() => only.to_json(ctx.trace),
        all => {
            // Every workload in one object: metric names gain the workload.
            let mut merged = Vec::new();
            for (name, outcome) in all {
                let Value::Map(fields) = outcome.to_json(ctx.trace) else {
                    unreachable!("to_json builds a map")
                };
                let metrics = fields
                    .into_iter()
                    .find(|(k, _)| k == "metrics")
                    .map(|(_, v)| v);
                if let Some(Value::Map(metrics)) = metrics {
                    merged.extend(metrics.into_iter().map(|(k, v)| (format!("{name}.{k}"), v)));
                }
            }
            Value::Map(vec![
                ("correct".into(), Value::Bool(correct)),
                (
                    "attempted".into(),
                    Value::Num(all.iter().map(|(_, o)| o.attempted).sum::<u64>() as f64),
                ),
                (
                    "failed".into(),
                    Value::Num(all.iter().map(|(_, o)| o.failed).sum::<u64>() as f64),
                ),
                ("metrics".into(), Value::Map(merged)),
            ])
        }
    };
    println!(
        "{}",
        serde_json::to_string(&last_line).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => tools::compare(rest),
        Some((cmd, [])) if cmd == "check" => tools::check(),
        _ => Err("usage: rrre-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out FILE]\n       rrre-benchmark compare A.jsonl B.jsonl\n       rrre-benchmark check".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rrre-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
