//! The real `rrre-serve` binary, driven as child processes.
//!
//! Three layers share one spawn helper ([`Proc`]: output drained by reader
//! threads, every wait deadline-bounded, killed and reaped on drop):
//!
//! 1. **Flag contract** — parsing, `--help` and refusals all come from the
//!    binary's one flag table: an argument the table does not accept is
//!    refused by name with exit status 2 before any work starts.
//! 2. **Wiring smokes** — every verb answers over real sockets and files.
//! 3. **Process drills** — the two invariants that need a real process
//!    death: exactly-once durable ingest across SIGKILL, and a fenced
//!    leader change that leaves byte-identical survivors.

use rrre_testkit::replication::artifact_fingerprint;
use rrre_testkit::TempDir;
use rrre_wire::{Response, StatsSnapshot};
use std::io::{BufRead, BufReader, Read};
use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to print its `listening on` line.
const LISTEN_DEADLINE: Duration = Duration::from_secs(10);
/// How long a run-to-completion verb may take.
const RUN_DEADLINE: Duration = Duration::from_secs(60);

/// A spawned `rrre-serve` child. Dropping it SIGKILLs and reaps the child,
/// so no process outlives its test, passing or panicking.
struct Proc {
    args: String,
    child: Child,
    stdout: mpsc::Receiver<String>,
    stderr: Option<JoinHandle<String>>,
}

impl Proc {
    fn spawn(args: &[&str]) -> Proc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rrre-serve"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn rrre-serve");
        let (tx, stdout) = mpsc::channel();
        let out = BufReader::new(child.stdout.take().expect("piped stdout"));
        std::thread::spawn(move || out.lines().map_while(Result::ok).all(|line| tx.send(line).is_ok()));
        let mut err = child.stderr.take().expect("piped stderr");
        let stderr = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = err.read_to_string(&mut text);
            text
        });
        Proc { args: format!("{args:?}"), child, stdout, stderr: Some(stderr) }
    }

    /// SIGKILLs and reaps the child, then returns everything it wrote to
    /// stderr (empty on a second call).
    fn kill(&mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stderr.take().map_or_else(String::new, |reader| reader.join().unwrap_or_default())
    }

    /// The address of the child's `listening on ADDR` line. A child that
    /// exits or stays silent past `limit` panics the test with its stderr.
    fn listening_within(&mut self, limit: Duration) -> String {
        let deadline = Instant::now() + limit;
        loop {
            match self.stdout.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(line) => {
                    if let Some(addr) = line.strip_prefix("listening on ") {
                        return addr.to_string();
                    }
                }
                Err(why) => {
                    let stderr = self.kill();
                    panic!("{}: no `listening on` line within {limit:?} ({why}); stderr:\n{stderr}", self.args);
                }
            }
        }
    }

    /// Waits for the child to exit by itself and returns what it printed.
    fn finish(mut self) -> Output {
        let deadline = Instant::now() + RUN_DEADLINE;
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                break status;
            }
            if Instant::now() >= deadline {
                let stderr = self.kill();
                panic!("{} still running after {RUN_DEADLINE:?}; stderr:\n{stderr}", self.args);
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        // The reader threads end at the child's EOF, which exit guarantees;
        // on an exited child `kill` only collects stderr.
        let stdout: Vec<String> = self.stdout.iter().collect();
        Output { status, stdout: stdout.join("\n").into_bytes(), stderr: self.kill().into_bytes() }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Runs one verb to completion.
fn rrre_serve(args: &[&str]) -> Output {
    Proc::spawn(args).finish()
}

/// Starts `rrre-serve serve <args>` and waits until it listens.
fn serve(args: &[&str]) -> (Proc, String) {
    let mut server = Proc::spawn(&[&["serve"][..], args].concat());
    let addr = server.listening_within(LISTEN_DEADLINE);
    (server, addr)
}

/// The last stdout line of a verb that must have succeeded — where every
/// verb prints its machine-readable summary.
fn summary(args: &[&str]) -> String {
    let out = rrre_serve(args);
    assert!(out.status.success(), "{args:?} failed:\n{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8_lossy(&out.stdout).lines().last().unwrap_or_default().to_string()
}

/// One request through the `query` verb, decoded.
fn query(route: &[&str], line: &str) -> Response {
    let reply = summary(&[&["query"][..], route, &[line, "--timeout-ms", "2000"]].concat());
    serde_json::from_str(&reply).unwrap_or_else(|e| panic!("undecodable response `{reply}`: {e}"))
}

fn stats(addr: &str) -> StatsSnapshot {
    query(&[addr], r#"{"op":"Stats"}"#).stats.expect("Stats carries a snapshot")
}

/// A fresh `demo` artifact in `<tmp>/<name>`, as the path string the CLI takes.
fn demo(tmp: &TempDir, name: &str, flags: &[&str]) -> String {
    let dir = tmp.file(name).to_string_lossy().into_owned();
    summary(&[&["demo", dir.as_str()][..], flags].concat());
    dir
}

// ---- flag contract -------------------------------------------------------

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

const VERBS: [&str; 11] = [
    "demo", "train", "serve", "shardmap", "ingest", "attack-eval", "compact", "promote", "query",
    "oneshot", "burst",
];

/// The first stderr line is the refusal itself; the usage text follows it.
fn refusal(args: &[&str]) -> String {
    let out = rrre_serve(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must be refused with exit status 2");
    String::from_utf8_lossy(&out.stderr).lines().next().unwrap_or_default().to_string()
}

fn assert_refused_naming(args: &[&str], flag: &str) {
    let refusal = refusal(args);
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

/// Help and parser are one table: a typo is refused by name on every verb,
/// and every flag a verb's `--help` lists is one its parser accepts.
#[test]
fn every_verb_refuses_a_typoed_flag_and_accepts_exactly_what_its_help_lists() {
    let global = rrre_serve(&["--help"]);
    let global = String::from_utf8_lossy(&global.stdout).into_owned();
    let mut listed_total = 0;
    for verb in VERBS {
        assert_refused_naming(&[verb, "--no-such-flag"], "--no-such-flag");
        let out = rrre_serve(&[verb, "--help"]);
        assert!(out.status.success(), "{verb} --help must succeed");
        let help = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(global.contains(help.lines().next().unwrap()), "global --help lacks {verb}'s usage line");
        // Flag rows sit at the flag indent; wrapped help text sits deeper.
        let listed: Vec<&str> = help
            .lines()
            .filter(|l| l.starts_with("      --"))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        listed_total += listed.len();
        for flag in listed {
            // Alone on the command line a listed flag may lack its value or
            // the verb its positionals, but it is never unrecognised.
            let refusal = refusal(&[verb, flag]);
            assert!(!refusal.contains("unrecognised"), "{verb} lists {flag} but refuses it: `{refusal}`");
            assert!(global.contains(flag), "global --help lacks {verb}'s {flag}");
        }
    }
    // 51 rows declared by the verbs plus the 6 client flags on 6 verbs.
    assert_eq!(listed_total, 51 + 6 * 6, "the flag table grew or shrank");
}

#[test]
fn misplaced_repeated_and_misspelt_flags_are_refused_by_name_not_misread_as_positionals() {
    for (args, names) in [
        (&["demo", "d", "--shard", "3"][..], "--shard"),
        (&["query", "a", r#"{"op":"Stats"}"#, "--retry", "3"], "--retry"),
        (&["serve", "d", "--addr", "--ingest"], "--addr"),
        (&["serve", "d", "--addr", "a:1", "--addr", "b:2"], "--addr"),
        (&["train", "d", "--epochs"], "--epochs"),
        (&["train", "d", "--epochs", "four"], "--epochs"),
        (&["train", "d", "--every", "0"], "--every"),
        (&["ingest", "a"], "--count"),
    ] {
        let refusal = refusal(args);
        assert!(refusal.contains(names), "{args:?}: refusal must name {names}, got `{refusal}`");
    }
}

/// A flag that only means something in a mode the command line did not
/// select is refused, not parsed and dropped.
#[test]
fn serve_refuses_mode_dependent_flags_outside_their_mode() {
    const FOLLOWER: [&str; 3] = ["--ingest", "--replicate-from", "l:1"];
    for (mode, flag, needs) in [
        (&[][..], "--segment-kb", "--ingest"),
        (&[], "--refresh-every", "--ingest"),
        (&[], "--cold-start-min", "--ingest"),
        (&[], "--followers", "--ingest"),
        (&[], "--replicate-from", "--ingest"),
        (&["--ingest"], "--ack", "--followers or --replicate-from"),
        (&["--ingest"], "--quorum-timeout-ms", "--followers or --replicate-from"),
        (&["--ingest"], "--epoch", "--followers"),
        (&FOLLOWER, "--epoch", "--followers"),
    ] {
        // The directory does not exist: the refusal must come before any load.
        let args = [&["serve", "/nonexistent/artifact"][..], mode, &[flag, "1"]].concat();
        assert_eq!(refusal(&args), format!("rrre-serve: {flag} needs {needs}"), "{args:?}");
    }
}

/// A numeric flag that parses but has no meaning is refused by name before
/// any work starts, never left to panic deeper down.
#[test]
fn nonsensical_numeric_flags_are_refused_by_name_before_any_work() {
    for (args, message) in [
        (&["train", "/nonexistent/ckpt", "--every", "0"][..], "--every must be ≥ 1"),
        (&["train", "/nonexistent/ckpt", "--scale", "0"], "--scale must be > 0"),
        (&["train", "/nonexistent/ckpt", "--scale", "-1"], "--scale must be > 0"),
        (&["demo", "/nonexistent/artifact", "--scale", "0"], "--scale must be > 0"),
        (&["demo", "/nonexistent/artifact", "--scale", "NaN"], "--scale must be > 0"),
        (&["attack-eval", "--scale", "0"], "--scale must be > 0"),
        (&["attack-eval", "--scale", "-0.5"], "--scale must be > 0"),
    ] {
        assert_eq!(refusal(args), format!("rrre-serve: {message}"), "{args:?}");
    }
}

#[test]
fn operational_failures_exit_with_status_1() {
    let out = rrre_serve(&["serve", "/nonexistent/artifact"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("failed to load artifact"));
}

// ---- the spawn helper's own contract ---------------------------------------

#[test]
#[should_panic(expected = "failed to load artifact")]
fn a_server_that_dies_before_listening_fails_the_test_with_its_stderr() {
    serve(&["/nonexistent/artifact"]);
}

#[test]
#[should_panic(expected = "no `listening on` line within")]
fn a_child_that_never_listens_fails_the_test_at_the_deadline() {
    // A listener that accepts and never answers keeps `query` alive and silent.
    let hole = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = hole.local_addr().unwrap().to_string();
    let mut stuck = Proc::spawn(&["query", &addr, r#"{"op":"Health"}"#, "--timeout-ms", "30000"]);
    stuck.listening_within(Duration::from_millis(300));
}

// ---- wiring smokes ---------------------------------------------------------

#[test]
fn train_abort_exits_137_and_resume_on_three_threads_reprints_the_uninterrupted_bits() {
    let tmp = TempDir::new("cli-train");
    let (full, ckpt) = (tmp.file("full"), tmp.file("ckpt"));
    let (full, ckpt) = (full.to_str().unwrap(), ckpt.to_str().unwrap());
    let uninterrupted = summary(&["train", full, "--epochs", "4"]);
    assert!(uninterrupted.starts_with("final epochs=4 ") && uninterrupted.contains(" bits="));
    // One checkpoint: the manifest and the two payloads it lists.
    let latest = std::fs::read_to_string(Path::new(full).join("latest.json")).unwrap();
    assert!(latest.contains("\"model.4.rrrp\"") && latest.contains("\"adam.4.rrrp\""), "{latest}");
    assert_eq!(listing(Path::new(full)), ["adam.4.rrrp", "latest.json", "model.4.rrrp"]);

    let aborted = rrre_serve(&["train", ckpt, "--epochs", "4", "--abort-after-epoch", "2"]);
    assert_eq!(aborted.status.code(), Some(137));
    let resumed = summary(&["train", ckpt, "--epochs", "4", "--resume", "--threads", "3"]);
    assert_eq!(resumed, uninterrupted, "resuming on another thread count must not move a bit");
}

#[test]
fn burst_against_one_spawned_server_reports_no_failures() {
    let tmp = TempDir::new("cli-burst");
    let (_server, addr) = serve(&[demo(&tmp, "model", &[]).as_str(), "--addr", "127.0.0.1:0"]);
    let report = summary(&["burst", "--replicas", &addr, "--requests", "5"]);
    assert!(report.starts_with("burst ") && report.contains(" requests=5 ok=5 failed=0 "), "{report}");
}

#[test]
fn attack_eval_emits_the_committed_header_and_one_row_per_cell() {
    let out = rrre_serve(&["attack-eval", "--families", "template", "--strengths", "0.1", "--epochs", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let csv = String::from_utf8_lossy(&out.stdout).into_owned();
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/adversarial_grid.csv");
    let committed = std::fs::read_to_string(committed).expect("the committed grid");
    let rows: Vec<&str> = csv.lines().collect();
    assert_eq!(rows.len(), 2, "header plus one row for the one cell:\n{csv}");
    assert_eq!(rows[0], committed.lines().next().unwrap(), "grid schema drift");
    assert!(rows[1].starts_with("template,0.1"), "{}", rows[1]);
    assert_eq!(rows[1].split(',').count(), rows[0].split(',').count());
}

#[test]
fn demo_shards_serve_shardmap_and_a_scatter_gathered_query_wire_together() {
    let tmp = TempDir::new("cli-shards");
    let dir = demo(&tmp, "model", &["--shards", "3"]);
    let fleet: Vec<(Proc, String)> =
        ["0", "1", "2"].map(|shard| serve(&[dir.as_str(), "--addr", "127.0.0.1:0", "--shard-id", shard])).into();
    let lists = fleet.iter().map(|(_, addr)| addr.as_str()).collect::<Vec<_>>().join(";");
    let map = tmp.file("shardmap.json");
    std::fs::write(&map, summary(&["shardmap", &dir, "--replicas", &lists])).unwrap();

    let resp = query(&["--shard-map", map.to_str().unwrap()], r#"{"op":"Recommend","user":0,"k":3}"#);
    assert!(resp.ok, "{:?}", resp.error);
    assert_ne!(resp.degraded, Some(true), "all three shards are up");
    assert!(!resp.recommendations.expect("a ranking").is_empty());
    for (shard, (_, addr)) in fleet.iter().enumerate() {
        let s = stats(addr);
        assert_eq!((s.shard_id, s.cross_shard_rejects), (Some(shard as u32), 0));
        assert!(s.scatter_fanout > 0, "shard {shard} served no scatter leg");
    }
}

// ---- process drills ------------------------------------------------------

const TWELVE: [&str; 8] = ["--count", "12", "--users", "2", "--items", "2", "--timeout-ms", "5000"];

/// The `ingest` verb derives each review from its seq, so re-running the
/// identical command IS the client retry.
fn ingest(addr: &str, flags: &[&str]) -> String {
    summary(&[&["ingest", addr][..], flags].concat())
}

/// Exactly-once across a real process death: 12 reviews are acked, the
/// server is SIGKILLed with no chance to flush anything beyond the WAL, and
/// the restarted server must know every acked seq — a lost ack would
/// re-ingest fresh, a double application would fold more than 12.
#[test]
fn durable_ingest_survives_sigkill_exactly_once_and_a_flipped_wal_byte_refuses_to_start() {
    let tmp = TempDir::new("cli-durable-ingest");
    let dir = demo(&tmp, "model", &[]);
    let ingesting = [dir.as_str(), "--addr", "127.0.0.1:0", "--ingest"];

    let (mut server, addr) = serve(&ingesting);
    assert_eq!(ingest(&addr, &TWELVE), "ingested total=12 new=12 dup=0 failed=0");
    server.kill();

    let (mut server, addr) = serve(&ingesting);
    assert_eq!(ingest(&addr, &TWELVE), "ingested total=12 new=0 dup=12 failed=0");
    assert_eq!(summary(&["compact", &addr, "--timeout-ms", "5000"]), "compacted folded=12 generation=2");
    let s = stats(&addr);
    assert_eq!((s.generation, s.ingested, s.ingest_duplicates), (2, 0, 12), "nothing applied twice");
    assert_artifact_layout(&dir, &[]);

    // Fail closed: land 3 more records so a WAL segment is live again,
    // SIGKILL, flip one byte inside the first record's payload (offset 10
    // sits mid-JSON, past the length/CRC header) — the restart must refuse
    // to serve rather than replay records it cannot trust.
    let more = ["--count", "3", "--seq-start", "100", "--users", "2", "--items", "2"];
    assert_eq!(ingest(&addr, &more), "ingested total=3 new=3 dup=0 failed=0");
    server.kill();
    let mut segments: Vec<_> = std::fs::read_dir(Path::new(&dir).join("wal"))
        .expect("wal dir")
        .map(|e| e.unwrap().path())
        .filter(|p| p.metadata().unwrap().len() > 10)
        .collect();
    segments.sort();
    let segment = segments.first().expect("a live WAL segment");
    let mut bytes = std::fs::read(segment).unwrap();
    bytes[10] = bytes[10].wrapping_add(1);
    std::fs::write(segment, bytes).unwrap();
    let refused = rrre_serve(&[&["serve"][..], &ingesting[..]].concat());
    assert_eq!(refused.status.code(), Some(1), "a corrupt mid-WAL record must refuse to serve");
    assert!(String::from_utf8_lossy(&refused.stderr).contains("for ingest"));
}

/// Distinct loopback addresses reserved by binding port 0: replication
/// needs every address up front (the leader lists its followers, followers
/// name the leader).
fn reserve_addrs<const N: usize>() -> [String; N] {
    let held: [TcpListener; N] = std::array::from_fn(|_| TcpListener::bind("127.0.0.1:0").unwrap());
    held.map(|l| l.local_addr().unwrap().to_string())
}

/// Kill the leader: 12 reviews acked at quorum, both followers converge,
/// the leader is SIGKILLed, a follower is promoted under a fencing term,
/// the identical resend dedups against the new leader, and compacting both
/// survivors folds exactly those 12 into byte-identical artifacts.
#[test]
fn kill_the_leader_then_promote_dedups_the_resend_and_survivors_compact_byte_identically() {
    let tmp = TempDir::new("cli-kill-the-leader");
    // `demo` is deterministic: three runs are three copies of one artifact.
    let dirs = ["r0", "r1", "r2"].map(|name| demo(&tmp, name, &[]));
    let [leader_addr, f1, f2] = reserve_addrs();

    // Followers boot first (the leader's shippers dial them), then the leader.
    let _followers = [(&dirs[1], &f1), (&dirs[2], &f2)]
        .map(|(dir, addr)| serve(&[dir.as_str(), "--addr", addr, "--ingest", "--replicate-from", &leader_addr]));
    let followers = format!("{f1},{f2}");
    let (mut leader, _) =
        serve(&[dirs[0].as_str(), "--addr", &leader_addr, "--ingest", "--followers", &followers, "--ack", "quorum"]);
    assert_eq!(ingest(&leader_addr, &TWELVE), "ingested total=12 new=12 dup=0 failed=0");

    // Quorum only guarantees leader + one follower; wait until BOTH report
    // the full log so whichever one is promoted is provably caught up.
    let deadline = Instant::now() + Duration::from_secs(10);
    for follower in [&f1, &f2] {
        while stats(follower).replicated_seq != 12 {
            assert!(Instant::now() < deadline, "follower {follower} never converged to replicated_seq=12");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    leader.kill();
    let promoted = summary(&["promote", &f1, "--epoch", "2", "--peers", &f2, "--timeout-ms", "5000"]);
    assert_eq!(promoted, "promoted epoch=2");
    assert_eq!(stats(&f1).epoch, 2);
    assert_eq!(ingest(&f1, &TWELVE), "ingested total=12 new=0 dup=12 failed=0");

    for survivor in [&f1, &f2] {
        let folded = summary(&["compact", survivor, "--timeout-ms", "10000"]);
        assert_eq!(folded, "compacted folded=12 generation=2", "survivor {survivor}");
    }
    let (a, b) = (artifact_fingerprint(Path::new(&dirs[1])), artifact_fingerprint(Path::new(&dirs[2])));
    assert!(a.len() >= 4, "only {} artifact files compared — the fleet dirs look wrong", a.len());
    assert!(
        a.iter().any(|(file, _)| rrre_tensor::serialize::stem(file) == "reviews"),
        "the survivors' independently written review vectors must be compared too"
    );
    assert_eq!(a, b, "a duplicate application would have changed the survivors' bytes");
    for dir in &dirs[1..] {
        assert_artifact_layout(dir, &["repl_epoch"]);
    }
}

/// The entries of `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> =
        std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name().to_string_lossy().into_owned()).collect();
    names.sort();
    names
}

/// An artifact directory holds exactly its manifest, the four payloads
/// that manifest lists, `wal/` and the `operational` files: no staging
/// directory, no ledger, no previous generation.
fn assert_artifact_layout(dir: &str, operational: &[&str]) {
    let manifest = rrre_serve::ArtifactManifest::read(Path::new(dir)).expect("a committed manifest");
    let mut want: Vec<String> = manifest.checksums.iter().map(|c| c.file.clone()).collect();
    assert_eq!(want.len(), 4, "{want:?}");
    want.extend(["manifest.json", "wal"].iter().chain(operational).map(|name| name.to_string()));
    want.sort();
    assert_eq!(listing(Path::new(dir)), want, "{dir}");
}
