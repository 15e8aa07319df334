//! The `repro` binary end to end: bad input is refused by name with exit
//! status 2 before any work, and a smoke-scale `all` run prints every table
//! once and writes the three figure CSVs.

use rrre_testkit::TempDir;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro")
}

fn assert_refused(tag: &str, args: &[&str], named: &str) {
    let dir = TempDir::new(tag);
    let out = dir.file("experiments.txt");
    let mut argv = vec!["--scale", "smoke", "--out", out.to_str().expect("utf-8 path")];
    argv.extend_from_slice(args);
    let output = repro(&argv);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(named), "{args:?}: stderr does not name {named}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} printed before refusing");
    assert!(!out.exists(), "{args:?} wrote {} before refusing", out.display());
}

#[test]
fn unknown_target_is_refused_by_name() {
    assert_refused("repro-unknown-target", &["table2", "tabel3"], "tabel3");
}

#[test]
fn zero_repeats_are_refused_by_name() {
    assert_refused("repro-zero-repeats", &["--repeats", "0", "table3"], "--repeats");
}

/// Every block `all` prints, by the start of its title, in order.
const TITLES: [&str; 20] = [
    "Table II — ",
    "Table III — ",
    "Table IV — ",
    "Table V",
    "NDCG@k of compared methods on YelpChi-sim",
    "Table VI",
    "NDCG@k of compared methods on CDs-sim",
    "Fig. 2 — influence of k",
    "Fig. 2 — per-epoch",
    "Fig. 3 — influence of s_u",
    "Fig. 4 — influence of s_i",
    "Table VII — ",
    "Table VIII — ",
    "Paired t-test vs RRRE",
    "Ablation — biased rating loss",
    "Ablation — review pooling",
    "Ablation — joint-loss weight lambda",
    "Ablation — input-review sampling",
    "Ablation — semi-supervised label budget",
    "Ablation — encoder mode",
];

#[test]
fn smoke_all_prints_every_table_once_and_writes_the_figure_csvs() {
    let dir = TempDir::new("repro-all");
    let out = dir.file("experiments.txt");
    let output = repro(&["--scale", "smoke", "--out", out.to_str().expect("utf-8 path"), "all"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "repro failed: {}", String::from_utf8_lossy(&output.stderr));
    let titles: Vec<&str> = stdout.lines().filter_map(|l| l.strip_prefix("## ")).collect();
    assert_eq!(titles.len(), TITLES.len(), "{titles:#?}");
    for (title, start) in titles.iter().zip(TITLES) {
        assert!(title.starts_with(start), "{title:?} where {start:?} was expected");
    }
    assert!(stdout.trim_end().lines().last().is_some_and(|l| l.starts_with("(total wall-clock")));
    assert_eq!(std::fs::read_to_string(&out).expect("results file"), stdout);
    for csv in ["fig2_embedding_size.csv", "fig3_user_input_size.csv", "fig4_item_input_size.csv"] {
        let body = std::fs::read_to_string(dir.file(csv)).unwrap_or_else(|e| panic!("{csv}: {e}"));
        assert!(body.lines().count() > 1, "{csv} has no rows");
    }
}
