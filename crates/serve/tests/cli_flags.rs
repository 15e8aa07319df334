//! Binary-level flag contract of `rrre-serve`: the load-generator flags
//! `burst` used to take and `serve`'s fsync-relaxing flag are gone, and a
//! command line that still passes one is refused by name rather than
//! silently ignored.

use std::process::{Command, Output};

/// Every flag this binary once accepted and now must refuse.
const REMOVED: [&str; 7] = [
    "--open-loop",
    "--rate",
    "--concurrency",
    "--pipeline-depth",
    "--conns",
    "--json",
    "--fsync-batch",
];

fn rrre_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rrre-serve")).args(args).output().expect("spawn rrre-serve")
}

/// The first stderr line is the refusal itself; the usage text follows it.
fn assert_refused_naming(args: &[&str], flag: &str) {
    let out = rrre_serve(args);
    assert!(!out.status.success(), "{args:?} must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let refusal = stderr.lines().next().unwrap_or_default();
    assert!(
        refusal.contains("unrecognised arguments") && refusal.contains(flag),
        "{args:?}: refusal must name {flag}, got `{refusal}`"
    );
}

#[test]
fn burst_refuses_the_removed_load_generator_flags() {
    // Nothing listens on `x`: the refusal must come before any dialling.
    assert_refused_naming(&["burst", "--replicas", "x", "--open-loop"], "--open-loop");
    assert_refused_naming(&["burst", "--replicas", "x", "--pipeline-depth", "4"], "--pipeline-depth");
}

#[test]
fn serve_refuses_the_removed_fsync_flag_by_name() {
    // The directory does not exist: the refusal must come before any load.
    assert_refused_naming(&["serve", "/nonexistent/artifact", "--fsync-batch", "64"], "--fsync-batch");
    assert_refused_naming(&["serve", "--fsync-batch", "64", "/nonexistent/artifact"], "--fsync-batch");
}

#[test]
fn help_documents_closed_loop_burst_and_none_of_the_removed_flags() {
    let out = rrre_serve(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    for flag in REMOVED {
        assert!(!help.contains(flag), "--help still mentions {flag}");
    }
    for kept in ["rrre-serve burst", "--requests", "--gap-ms", "--recommend-k", "closed-loop"] {
        assert!(help.contains(kept), "--help no longer documents `{kept}`");
    }
}
