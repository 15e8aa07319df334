//! `repro` — regenerates every table and figure of the RRRE paper.
//!
//! ```text
//! repro [--scale smoke|small|full] [--repeats N] [--out results.txt] <target>...
//! targets: table2 table3 table4 table5 table6 fig2 fig3 fig4 case-study
//!          ablations significance all
//! ```
//!
//! Results print to stdout and append to the `--out` file (default
//! `results/experiments.txt`). One process prepares each dataset cell once
//! and fits each method on it once (see `rrre_bench::cells`). An unknown
//! target or flag, or `--repeats 0`, is refused before any work, with exit
//! status 2.

use rrre_bench::ablations;
use rrre_bench::cells::CellCache;
use rrre_bench::case_study::run_case_study;
use rrre_bench::figures::{run_fig2, run_fig3, run_fig4};
use rrre_bench::ndcg::run_ndcg;
use rrre_bench::report::append_result;
use rrre_bench::scale::Scale;
use rrre_bench::significance::run_significance;
use rrre_bench::tables::{run_table2, run_table3, run_table4};
use rrre_data::synth::SynthConfig;
use std::process::ExitCode;
use std::time::Instant;

/// Every target `repro` accepts, in the order they run.
const TARGETS: [&str; 12] = [
    "table2", "table3", "table4", "table5", "table6", "fig2", "fig3", "fig4", "case-study", "significance", "ablations",
    "all",
];

struct Options {
    scale: Scale,
    repeats: Option<usize>,
    out: String,
    targets: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        scale: Scale::Small,
        repeats: None,
        out: "results/experiments.txt".to_string(),
        targets: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                opts.scale = v.parse()?;
            }
            "--repeats" => {
                let v = args.next().ok_or("--repeats needs a value")?;
                let n = v.parse::<usize>().map_err(|e| format!("--repeats {v}: {e}"))?;
                if n == 0 {
                    return Err("--repeats must be at least 1".to_string());
                }
                opts.repeats = Some(n);
            }
            "--out" => {
                opts.out = args.next().ok_or("--out needs a value")?;
            }
            "--help" | "-h" => {
                return Err(String::new());
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            target if TARGETS.contains(&target) => opts.targets.push(target.to_string()),
            target => return Err(format!("unknown target {target}")),
        }
    }
    if opts.targets.is_empty() {
        opts.targets.push("all".to_string());
    }
    Ok(opts)
}

fn usage() {
    eprintln!(
        "usage: repro [--scale smoke|small|full] [--repeats N] [--out FILE] <target>...\n\
         targets: {}",
        TARGETS.join(" ")
    );
}

fn emit(out: &str, block: &str) {
    println!("{block}");
    if let Err(e) = append_result(out, block) {
        eprintln!("warning: could not write {out}: {e}");
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            usage();
            return ExitCode::from(2);
        }
    };
    let scale = opts.scale;
    let repeats = opts.repeats.unwrap_or_else(|| scale.default_repeats());
    let all = opts.targets.iter().any(|t| t == "all");
    let wants = |t: &str| all || opts.targets.iter().any(|x| x == t);
    let started = Instant::now();
    let mut cells = CellCache::default();

    emit(&opts.out, &format!("# RRRE reproduction run — scale {scale:?}, {repeats} repeat(s)\n"));

    if wants("table2") {
        let (_, table) = run_table2(&mut cells, scale);
        emit(&opts.out, &table.render());
    }
    if wants("table3") {
        let t0 = Instant::now();
        let (_, table) = run_table3(&mut cells, scale, repeats);
        emit(&opts.out, &format!("{}(took {:.1}s)\n", table.render(), t0.elapsed().as_secs_f64()));
    }
    if wants("table4") {
        let t0 = Instant::now();
        let (_, table) = run_table4(&mut cells, scale, repeats);
        emit(&opts.out, &format!("{}(took {:.1}s)\n", table.render(), t0.elapsed().as_secs_f64()));
    }
    if wants("table5") {
        let (_, table) = run_ndcg(&mut cells, &SynthConfig::yelp_chi(), scale, repeats);
        emit(&opts.out, &format!("## Table V\n{}", table.render()));
    }
    if wants("table6") {
        let (_, table) = run_ndcg(&mut cells, &SynthConfig::cds(), scale, repeats);
        emit(&opts.out, &format!("## Table VI\n{}", table.render()));
    }
    let csv_dir = std::path::Path::new(&opts.out).parent().map(std::path::Path::to_path_buf);
    let save_csv = |sweep: &rrre_bench::figures::Sweep, name: &str| {
        if let Some(dir) = &csv_dir {
            let path = dir.join(name);
            if let Err(e) = sweep.save_csv(&path) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    };
    if wants("fig2") {
        let sweep = run_fig2(&mut cells, scale);
        emit(&opts.out, &sweep.summary_table().render());
        emit(&opts.out, &sweep.curve_table().render());
        save_csv(&sweep, "fig2_embedding_size.csv");
    }
    if wants("fig3") {
        let sweep = run_fig3(&mut cells, scale);
        emit(&opts.out, &sweep.summary_table().render());
        save_csv(&sweep, "fig3_user_input_size.csv");
    }
    if wants("fig4") {
        let sweep = run_fig4(&mut cells, scale);
        emit(&opts.out, &sweep.summary_table().render());
        save_csv(&sweep, "fig4_item_input_size.csv");
    }
    if wants("case-study") {
        let cs = run_case_study(&mut cells, scale);
        emit(&opts.out, &cs.recommendations.render());
        emit(&opts.out, &cs.explanations.render());
    }
    if wants("significance") {
        let reps = repeats.max(3);
        let (_, t) = run_significance(&mut cells, &SynthConfig::yelp_chi(), scale, reps);
        emit(&opts.out, &t.render());
    }
    if wants("ablations") {
        let sweeps = [
            ablations::ablation_biased_loss,
            ablations::ablation_attention,
            ablations::ablation_lambda,
            ablations::ablation_sampling,
            ablations::ablation_semi_supervised,
        ];
        for ablation in sweeps {
            emit(&opts.out, &ablation(&mut cells, scale).1.render());
        }
        emit(&opts.out, &ablations::ablation_encoder(&mut cells).1.render());
    }

    emit(&opts.out, &format!("(total wall-clock {:.1}s)\n", started.elapsed().as_secs_f64()));
    ExitCode::SUCCESS
}
