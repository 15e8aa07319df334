//! `rrre-serve` — train, serve and query RRRE artifacts from the shell.
//!
//! ```text
//! rrre-serve demo <dir> [--scale F]          train a small model, save an artifact
//! rrre-serve train <dir> [...]               crash-safe training with checkpoints
//! rrre-serve serve <dir> [--addr A] [...]    serve an artifact over TCP (NDJSON)
//! rrre-serve query <addr> <json-line>        send one request, resiliently
//! rrre-serve oneshot <dir> <json-line>       answer one request in-process, no server
//! rrre-serve burst --replicas a,b,c [...]    drive a request burst through the client
//! rrre-serve attack-eval [--out FILE] [...]  robustness grid under fraud campaigns
//! ```

use rrre_client::{Client, ClientConfig, ClientError, IngestSequencer, ShardedClient};
use rrre_core::{run_robustness_sweep, AttackEvalConfig, CheckpointConfig, EpochStats, Rrre, RrreConfig};
use rrre_data::synth::{generate, AttackCampaign, AttackFamily, SynthConfig};
use rrre_data::{CorpusConfig, Dataset, EncodedCorpus};
use rrre_serve::{
    AckLevel, Engine, EngineConfig, IngestConfig, ModelArtifact, ReplRole, ReplicationConfig,
    Server, ServerConfig,
};
use rrre_shard::ShardTopology;
use rrre_text::word2vec::Word2VecConfig;
use rrre_wire::{decode_request, encode_response, Request, Response, ShardSpec};
use std::io::{BufRead, IsTerminal};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
rrre-serve: inference serving for the RRRE model

USAGE:
  rrre-serve demo <dir> [--scale F] [--shards N]
      Generate a synthetic YelpChi-like dataset (default --scale 0.05),
      train a small RRRE model and write a serving artifact to <dir>.
      --shards N (default 1) records an N-way consistent-hash shard spec
      in the manifest; every shard's replicas serve from this one artifact.

  rrre-serve train <dir> [--scale F] [--epochs N] [--every N] [--threads N]
                         [--resume] [--abort-after-epoch N]
      Crash-safe training over the same synthetic dataset: atomic
      checkpoints into <dir> every --every epochs (default 1). --resume
      continues from the newest checkpoint in <dir>, bit-identically to an
      uninterrupted run. --abort-after-epoch N exits with status 137 right
      after epoch N's checkpoint lands — a scripted SIGKILL for crash
      drills. --threads N (default $RRRE_THREADS, else 1) trains
      data-parallel; every thread count yields the same bits, so a run may
      resume with a different count. The final stdout line carries the
      exact loss bits.

  rrre-serve serve <dir> [--addr HOST:PORT] [--shard-id N] [--workers N]
                         [--max-batch N] [--max-wait-ms N] [--queue-cap N]
                         [--max-conns N] [--read-timeout-ms N] [--drain-ms N]
                         [--idle-timeout-ms N] [--max-inflight N]
                         [--write-buf-kb N] [--ingest] [--segment-kb N]
                         [--refresh-every N] [--cold-start-min N]
                         [--followers a,b | --replicate-from ADDR]
                         [--ack leader|quorum] [--epoch N]
                         [--quorum-timeout-ms N]
      Load the artifact in <dir> and serve newline-delimited JSON over TCP
      (default --addr 127.0.0.1:7878). One epoll event loop multiplexes
      every connection; requests pipeline per connection up to
      --max-inflight (default 64), --write-buf-kb (default 256) bounds
      queued response bytes per connection before reads pause, and
      --idle-timeout-ms reaps silent connections (default: never).
      --shard-id N scopes this replica to
      shard N of the manifest's shard map: it answers only for entities it
      owns (WrongShard otherwise) and scores only its own catalog slice on
      Recommend; omit it for the whole-model fallback. --ingest enables
      durable streaming ingest: IngestReview appends to a checksummed WAL
      under <dir>/wal (fsync per record; an ack is a durability promise),
      refreshed into the serving towers every --refresh-every records
      (default 1; 0 = only on Compact), and Compact folds the WAL into a
      new artifact generation. On startup --ingest replays the WAL (torn
      tails repaired, mid-log corruption refuses to start) and completes
      any interrupted compaction. --segment-kb sets WAL rotation (default
      4096).
      --cold-start-min N answers thin pairs (either side under N reviews)
      with a calibrated reliability prior instead of the head score.
      Replication (needs --ingest): --followers a,b starts this replica as
      the shard's ingest leader, shipping its WAL to the listed follower
      addresses; --replicate-from ADDR starts it as a follower of ADDR
      (refuses client ingest with NotLeader, applies Replicate shipments,
      pulls catch-up ranges after restart). --ack quorum (the default when
      replicating) releases each ingest ack only once a majority of the
      replica set holds the record durably; --ack leader keeps single-copy
      acks. --epoch N (default 1) sets the leader's starting term — a
      higher persisted term from a previous incarnation always wins — and
      --quorum-timeout-ms (default 5000) bounds how long an ack may wait
      for quorum before refusing Unavailable (retry-safe: the record stays
      durable on the leader and the retry dedups).
      Stdin verbs: `quit` stops the server gracefully, `reload` hot-swaps
      the artifact from <dir>, `compact` folds the WAL now, `stats` prints
      the counters, `health` prints liveness/readiness. On stdin EOF
      (detached/daemonized) it keeps serving until killed.

  rrre-serve shardmap <dir> --replicas \"a,b;c,d;e,f\"
      Print a shard-topology JSON document (for --shard-map) binding the
      artifact's shard spec to replica endpoints: shard lists separated by
      `;`, replicas within a shard by `,`. The list count must match the
      manifest's shard count.

  rrre-serve ingest (<addr> | --replicas a,b,c | --shard-map FILE)
                    --count N [--seq-start S] [--users N] [--items N]
                    [--campaign FAMILY] [--attack-seed N] [CLIENT FLAGS]
      Stream N reviews through the resilient client with the ingest
      sequencer: review k carries seq S+k (default S=0) and a payload
      derived deterministically from its seq, so re-running the same
      command replays byte-identical reviews — the server acks replays as
      duplicates without re-applying (exactly-once drills). Prints one
      `seq=K duplicate=BOOL` line per ack and a machine-readable summary.
      Exits nonzero if any review failed to ack.
      --campaign FAMILY (template|ramp|burst|mimicry) replaces the bland
      seq-derived payloads with a seeded fraud campaign confined to the
      --users/--items id space (sybils squat the tail of the user range) —
      the ingest-under-attack drill for the serving tier's cold-start
      prior and incremental refresh. --attack-seed N (default 0xA77AC4)
      pins the campaign; payloads stay a pure function of the flags, so
      replays still dedup.

  rrre-serve attack-eval [--out FILE] [--scale F] [--families a,b,c]
                         [--strengths x,y,z] [--epochs N] [--threads N]
                         [--seed N]
      Train-on-poisoned / evaluate-on-clean robustness sweep: for every
      attack family × strength cell, inject a seeded fraud campaign into
      the synthetic YelpChi-like base (default --scale 0.05), re-train the
      model on the label-poisoned corpus, and evaluate on the clean
      held-out test set. Emits the Table-IV-style CSV grid (reliability-AP
      degradation and rating-RMSE poisoning per cell) to stdout and, with
      --out, to FILE. Families default to all four
      (template,ramp,burst,mimicry), strengths to 0.1,0.25,0.5, --seed
      (default 0xA77AC4) pins the campaigns. The sweep is bit-identical
      per seed at every --threads count; CI diffs the emitted grid against
      the committed results/adversarial_grid.csv.

  rrre-serve compact (<addr> | --replicas a,b,c | --shard-map FILE)
                     [CLIENT FLAGS]
      Fold the WAL into a new artifact generation on every shard
      (broadcast) and print what was folded.

  rrre-serve promote <addr> --epoch N [--peers a,b] [CLIENT FLAGS]
      Install the replica at <addr> as its shard's ingest leader under
      term N (which must exceed its current term), shipping to the
      --peers follower addresses. The new term fences the old leader:
      its Replicate/IngestReview traffic is refused with StaleEpoch.

  rrre-serve query <addr> <json-line> [CLIENT FLAGS]
  rrre-serve query --replicas a,b,c <json-line> [CLIENT FLAGS]
      Send one request through the resilient client (retries, failover,
      breakers) and print the response. With --replicas, the request fails
      over across all listed endpoints instead of targeting one <addr>.

  rrre-serve oneshot <dir> <json-line>
  rrre-serve oneshot --replicas a,b,c <json-line> [CLIENT FLAGS]
      Answer a single request: in-process from the artifact in <dir>, or —
      with --replicas — over the network through the resilient client.

  rrre-serve burst (--replicas a,b,c | --shard-map FILE)
                   [--requests N] [--gap-ms N] [--users N] [--items N]
                   [--recommend-k K] [--probe-interval-ms N] [CLIENT FLAGS]
      Drive N requests (default 100; Predicts cycling under --users/--items,
      or Recommends with --recommend-k K) through the resilient client —
      flat with --replicas, shard-routed scatter-gather with --shard-map —
      one at a time, closed-loop, --gap-ms (default 2) between completions.
      A failover drill, not a load generator: numbers come from benchmark/.
      Prints per-replica lines and a summary with p50/p99 latency. Exits
      nonzero if any request failed client-visibly (degraded answers are
      not failures). Health probes are on by default (100 ms).

  CLIENT FLAGS (query/oneshot/burst):
      --replicas a,b,c      comma-separated replica endpoints
      --shard-map FILE      shard-topology JSON (see `shardmap`); routes by
                            shard and scatter-gathers ranking queries
      --retries N           extra attempts per request (default 2)
      --timeout-ms N        per-attempt timeout, also sent as deadline_ms
                            (a scatter splits it across its sub-requests)
      --hedge-after-ms N    hedge idempotent requests after this latency
      --seed N              jitter-RNG seed (fixed seed = fixed schedule)

PROTOCOL (one JSON object per line):
  {\"op\":\"Predict\",\"user\":3,\"item\":7}
  {\"op\":\"Recommend\",\"user\":3,\"k\":5}
  {\"op\":\"Explain\",\"item\":7,\"k\":3}
  {\"op\":\"Invalidate\",\"user\":3}
  {\"op\":\"Reload\"}
  {\"op\":\"Stats\"}
  {\"op\":\"Health\"}
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("rrre-serve: {msg}\n\n{USAGE}");
    ExitCode::FAILURE
}

/// Operator-facing error: print cleanly, no panic backtrace.
fn die(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("rrre-serve: {msg}");
    ExitCode::FAILURE
}

/// Pulls `--flag value` out of `args`, leaving positional arguments.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("rrre-serve: {flag} needs a value");
        std::process::exit(2);
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

/// Pulls a bare `--flag` out of `args`, returning whether it was present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    }
}

/// Parses a flag value, or exits with a clean message instead of a panic.
fn parse_flag<T: std::str::FromStr>(value: Option<String>, flag: &str, default: T) -> T {
    match value {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("rrre-serve: {flag} got `{s}`, which does not parse");
            std::process::exit(2);
        }),
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return fail("missing subcommand");
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "demo" => cmd_demo(args),
        "train" => cmd_train(args),
        "serve" => cmd_serve(args),
        "shardmap" => cmd_shardmap(args),
        "ingest" => cmd_ingest(args),
        "attack-eval" => cmd_attack_eval(args),
        "compact" => cmd_compact(args),
        "promote" => cmd_promote(args),
        "query" => cmd_query(args),
        "oneshot" => cmd_oneshot(args),
        "burst" => cmd_burst(args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => fail(&format!("unknown subcommand `{other}`")),
    }
}

/// The deterministic synthetic training setup shared by `demo` and `train`
/// — both runs of a crash drill must see the identical dataset and corpus.
fn synth_corpus(scale: f64, max_len: usize, dim: usize, w2v_epochs: usize) -> (Dataset, EncodedCorpus, u64) {
    let ds = generate(&SynthConfig::yelp_chi().scaled(scale));
    let corpus_cfg = CorpusConfig {
        max_len,
        word2vec: Word2VecConfig { dim, epochs: w2v_epochs, ..Default::default() },
        ..Default::default()
    };
    let corpus = EncodedCorpus::build(&ds, &corpus_cfg);
    (ds, corpus, corpus_cfg.min_count)
}

fn cmd_demo(mut args: Vec<String>) -> ExitCode {
    let scale: f64 = parse_flag(take_flag(&mut args, "--scale"), "--scale", 0.05);
    let shards: u32 = parse_flag(take_flag(&mut args, "--shards"), "--shards", 1);
    if shards == 0 {
        return fail("--shards must be ≥ 1");
    }
    let [dir] = args.as_slice() else {
        return fail("demo needs exactly one <dir>");
    };

    eprintln!("generating synthetic dataset (scale {scale})...");
    let (ds, corpus, min_count) = synth_corpus(scale, 16, 16, 2);
    eprintln!(
        "training on {} reviews ({} users x {} items)...",
        ds.len(),
        ds.n_users,
        ds.n_items
    );
    let train: Vec<usize> = (0..ds.len()).collect();
    let model = Rrre::fit(&ds, &corpus, &train, RrreConfig { epochs: 5, ..RrreConfig::tiny() });
    let spec = ShardSpec::with_shards(shards);
    if let Err(e) = ModelArtifact::save_with_shards(dir, &ds, &corpus, &model, min_count, spec) {
        return die(format!("failed to write artifact to `{dir}`: {e}"));
    }
    if shards > 1 {
        println!("artifact written to {dir} ({shards}-way shard map, version {})", spec.version);
    } else {
        println!("artifact written to {dir}");
    }
    println!("next: rrre-serve serve {dir}");
    println!("then: rrre-serve query 127.0.0.1:7878 '{{\"op\":\"Recommend\",\"user\":0,\"k\":3}}'");
    ExitCode::SUCCESS
}

fn cmd_train(mut args: Vec<String>) -> ExitCode {
    let scale: f64 = parse_flag(take_flag(&mut args, "--scale"), "--scale", 0.04);
    let epochs: usize = parse_flag(take_flag(&mut args, "--epochs"), "--epochs", 4);
    let every: usize = parse_flag(take_flag(&mut args, "--every"), "--every", 1);
    let abort_after: Option<usize> =
        take_flag(&mut args, "--abort-after-epoch").map(|s| parse_flag(Some(s), "--abort-after-epoch", 0));
    let threads: usize = parse_flag(
        take_flag(&mut args, "--threads"),
        "--threads",
        RrreConfig::env_threads().unwrap_or(1),
    );
    let resume = take_switch(&mut args, "--resume");
    let [dir] = args.as_slice() else {
        return fail("train needs exactly one <dir>");
    };
    if threads == 0 {
        return fail("--threads must be ≥ 1");
    }

    eprintln!("generating synthetic dataset (scale {scale})...");
    let (ds, corpus, _) = synth_corpus(scale, 12, 8, 1);
    let train: Vec<usize> = (0..ds.len()).collect();
    let cfg = RrreConfig { epochs, threads, ..RrreConfig::tiny() };
    let ckpt = CheckpointConfig { dir: PathBuf::from(dir), every, keep: 3 };

    let mut last: Option<EpochStats> = None;
    // The hook runs *after* the epoch's checkpoint (if any) is on disk, so
    // exiting here is a faithful stand-in for a SIGKILL between epochs.
    let hook = |stats: EpochStats, _model: &Rrre| {
        eprintln!("epoch {} loss {:.6}", stats.epoch, stats.loss);
        last = Some(stats);
        if abort_after == Some(stats.epoch + 1) {
            eprintln!("aborting after epoch {} (checkpoint is on disk)", stats.epoch + 1);
            std::process::exit(137);
        }
    };
    let outcome = if resume {
        Rrre::resume(&ds, &corpus, &train, cfg, &ckpt, hook)
    } else {
        Rrre::fit_checkpointed(&ds, &corpus, &train, cfg, &ckpt, hook)
    };
    match outcome {
        Ok(out) => {
            if let Some(from) = out.resumed_from {
                eprintln!("resumed from checkpoint at {from} completed epochs");
            }
            if let Some(at) = out.diverged_at {
                eprintln!(
                    "training diverged at epoch {at}; rolled back to the checkpoint at {} epochs",
                    out.completed_epochs
                );
            }
            // `bits` pins the exact f32, so crash-drill scripts can compare
            // runs without any float-formatting slack.
            let (loss, bits) = last.map_or((f32::NAN, 0), |s| (s.loss, s.loss.to_bits()));
            println!("final epochs={} loss={loss:.6} bits={bits:08x}", out.completed_epochs);
            ExitCode::SUCCESS
        }
        Err(e) => die(format!("training failed: {e}")),
    }
}

fn cmd_serve(mut args: Vec<String>) -> ExitCode {
    let addr = take_flag(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".into());
    let mut cfg = EngineConfig::default();
    cfg.shard_id = take_flag(&mut args, "--shard-id").map(|s| parse_flag(Some(s), "--shard-id", 0));
    cfg.workers = parse_flag(take_flag(&mut args, "--workers"), "--workers", cfg.workers);
    cfg.max_batch = parse_flag(take_flag(&mut args, "--max-batch"), "--max-batch", cfg.max_batch);
    if let Some(ms) = take_flag(&mut args, "--max-wait-ms") {
        cfg.max_wait = Duration::from_millis(parse_flag(Some(ms), "--max-wait-ms", 2));
    }
    cfg.queue_cap = parse_flag(take_flag(&mut args, "--queue-cap"), "--queue-cap", cfg.queue_cap);
    let mut server_cfg = ServerConfig::default();
    server_cfg.max_connections =
        parse_flag(take_flag(&mut args, "--max-conns"), "--max-conns", server_cfg.max_connections);
    if let Some(ms) = take_flag(&mut args, "--read-timeout-ms") {
        server_cfg.read_timeout = Duration::from_millis(parse_flag(Some(ms), "--read-timeout-ms", 100));
    }
    if let Some(ms) = take_flag(&mut args, "--drain-ms") {
        server_cfg.drain_deadline = Duration::from_millis(parse_flag(Some(ms), "--drain-ms", 2000));
    }
    if let Some(ms) = take_flag(&mut args, "--idle-timeout-ms") {
        server_cfg.idle_timeout =
            Some(Duration::from_millis(parse_flag(Some(ms), "--idle-timeout-ms", 30_000)));
    }
    server_cfg.max_inflight_per_conn = parse_flag(
        take_flag(&mut args, "--max-inflight"),
        "--max-inflight",
        server_cfg.max_inflight_per_conn,
    );
    if let Some(kb) = take_flag(&mut args, "--write-buf-kb") {
        server_cfg.write_buffer_cap = parse_flag::<usize>(Some(kb), "--write-buf-kb", 256) * 1024;
    }
    let ingest_on = take_switch(&mut args, "--ingest");
    let mut ingest_cfg = IngestConfig::default();
    ingest_cfg.segment_bytes =
        parse_flag::<u64>(take_flag(&mut args, "--segment-kb"), "--segment-kb", 4096) * 1024;
    ingest_cfg.refresh_every = parse_flag(
        take_flag(&mut args, "--refresh-every"),
        "--refresh-every",
        ingest_cfg.refresh_every,
    );
    ingest_cfg.cold_start_min = parse_flag(
        take_flag(&mut args, "--cold-start-min"),
        "--cold-start-min",
        ingest_cfg.cold_start_min,
    );
    let followers = take_flag(&mut args, "--followers").map(|s| {
        s.split(',').map(|x| x.trim().to_string()).filter(|x| !x.is_empty()).collect::<Vec<_>>()
    });
    let replicate_from = take_flag(&mut args, "--replicate-from");
    let ack_flag = take_flag(&mut args, "--ack");
    let epoch: u64 = parse_flag(take_flag(&mut args, "--epoch"), "--epoch", 1);
    let quorum_timeout_ms: u64 =
        parse_flag(take_flag(&mut args, "--quorum-timeout-ms"), "--quorum-timeout-ms", 5000);
    if followers.is_some() && replicate_from.is_some() {
        return fail("--followers and --replicate-from are mutually exclusive");
    }
    let repl_cfg = match (followers, replicate_from) {
        (None, None) => {
            if ack_flag.is_some() {
                return fail("--ack needs replication (--followers or --replicate-from)");
            }
            None
        }
        (followers, leader) => {
            if !ingest_on {
                return fail("replication (--followers/--replicate-from) needs --ingest");
            }
            let ack = match ack_flag.as_deref() {
                None | Some("quorum") => AckLevel::Quorum,
                Some("leader") => AckLevel::Leader,
                Some(other) => return fail(&format!("--ack got `{other}`, want leader|quorum")),
            };
            let role = match followers {
                Some(followers) => ReplRole::Leader { followers, epoch },
                None => ReplRole::Follower { leader },
            };
            Some(ReplicationConfig {
                role,
                ack,
                quorum_timeout: Duration::from_millis(quorum_timeout_ms),
                self_addr: Some(addr.clone()),
                ..ReplicationConfig::default()
            })
        }
    };
    // Every known flag has been taken by now, so the first bare word is
    // the directory and anything left over is named in the refusal.
    let Some(pos) = args.iter().position(|a| !a.starts_with("--")) else {
        return fail("serve needs exactly one <dir>");
    };
    let dir = &args.remove(pos);
    if !args.is_empty() {
        return fail(&format!("serve got unrecognised arguments: {args:?}"));
    }

    // Validate --shard-id against the manifest *before* constructing the
    // engine (whose own range assert is a panic, not an operator message).
    if let Some(shard) = cfg.shard_id {
        let manifest_path = PathBuf::from(dir).join(rrre_serve::artifact::MANIFEST_FILE);
        if let Ok(json) = std::fs::read_to_string(&manifest_path) {
            if let Ok(m) = serde_json::from_str::<rrre_serve::ArtifactManifest>(&json) {
                if shard >= m.shard_spec.shards {
                    return die(format!(
                        "--shard-id {shard} out of range: artifact `{dir}` declares {} shard(s)",
                        m.shard_spec.shards
                    ));
                }
            }
        }
    }
    eprintln!("loading artifact from {dir}...");
    let engine = if let Some(repl) = repl_cfg {
        match Engine::open_replicated(dir, cfg, ingest_cfg, repl) {
            Ok(e) => Arc::new(e),
            Err(e) => return die(format!("failed to open artifact `{dir}` replicated: {e}")),
        }
    } else if ingest_on {
        match Engine::open_with_ingest(dir, cfg, ingest_cfg) {
            Ok(e) => Arc::new(e),
            Err(e) => return die(format!("failed to open artifact `{dir}` for ingest: {e}")),
        }
    } else {
        let artifact = match ModelArtifact::load(dir) {
            Ok(a) => a,
            Err(e) => return die(format!("failed to load artifact `{dir}`: {e}")),
        };
        Arc::new(Engine::new(artifact, cfg))
    };
    {
        let generation = engine.generation();
        let manifest = &generation.artifact.manifest;
        if let Some(shard) = cfg.shard_id {
            let spec = manifest.shard_spec;
            eprintln!(
                "serving `{}` as shard {shard}/{} (map version {}) with {} workers",
                manifest.dataset_name, spec.shards, spec.version, cfg.workers
            );
        } else {
            eprintln!(
                "serving `{}` ({} users, {} items) with {} workers",
                manifest.dataset_name, manifest.n_users, manifest.n_items, cfg.workers
            );
        }
        if ingest_on {
            let s = engine.stats();
            eprintln!(
                "ingest enabled: wal={}/wal wal_bytes={} replayed_recoveries={} \
                 refresh_every={} fsync={:?}",
                dir, s.wal_bytes, s.wal_recoveries, ingest_cfg.refresh_every, ingest_cfg.fsync
            );
        }
        if let Some(repl) = engine.replication() {
            let (epoch, count, _) = repl.stats();
            let role = if repl.is_leader() { "leader" } else { "follower" };
            eprintln!("replication enabled: role={role} epoch={epoch} replicated_seq={count}");
        }
    }
    let mut server = match Server::start_with(Arc::clone(&engine), addr.as_str(), server_cfg) {
        Ok(s) => s,
        Err(e) => {
            engine.shutdown();
            return die(format!("failed to bind {addr}: {e}"));
        }
    };
    println!("listening on {}", server.local_addr());
    println!("(stdin verbs: quit, reload, compact, stats, health)");

    let mut got_quit = false;
    for line in std::io::stdin().lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => {
                got_quit = true;
                break;
            }
            Ok(l) if l.trim() == "reload" => {
                match engine.reload() {
                    Ok(generation) => eprintln!("reloaded: now serving generation {generation}"),
                    Err(e) => eprintln!("reload failed: {e}"),
                }
            }
            Ok(l) if l.trim() == "compact" => {
                match engine.compact_now() {
                    Ok((folded, generation)) => {
                        eprintln!("compacted: folded {folded} review(s), serving generation {generation}")
                    }
                    Err(e) => eprintln!("compact failed: {e}"),
                }
            }
            Ok(l) if l.trim() == "health" => {
                let h = engine.health();
                eprintln!(
                    "live={} ready={} draining={} breaker_open={} generation={}",
                    h.live, h.ready, h.draining, h.breaker_open, h.generation
                );
            }
            Ok(l) if l.trim() == "stats" => {
                let s = engine.stats();
                let shard = s.shard_id.map_or("-".into(), |s| s.to_string());
                eprintln!(
                    "generation={} requests={} errors={} shed={} reloads={} \
                     reload_failures={} worker_panics={} breaker_open={} \
                     cache_hit_rate={:.3} shard={shard} cross_shard_rejects={} \
                     scatter_fanout={} epoch={} replicated_seq={} replication_lag={} \
                     stale_epoch_rejections={}",
                    s.generation,
                    s.requests,
                    s.errors,
                    s.shed,
                    s.reloads,
                    s.reload_failures,
                    s.worker_panics,
                    s.breaker_open,
                    s.cache_hit_rate,
                    s.cross_shard_rejects,
                    s.scatter_fanout,
                    s.epoch,
                    s.replicated_seq,
                    s.replication_lag,
                    s.stale_epoch_rejections
                );
            }
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    if !got_quit && !std::io::stdin().is_terminal() {
        // Stdin hit EOF but isn't a terminal — the server is running
        // detached (`rrre-serve serve dir &`, a supervisor, /dev/null).
        // Keep serving until the process is killed; only an interactive
        // Ctrl-D or a `quit` line shuts it down from stdin.
        eprintln!("stdin closed; serving until killed");
        loop {
            std::thread::park();
        }
    }
    eprintln!("shutting down...");
    server.stop();
    engine.shutdown();
    let stats = engine.stats();
    eprintln!(
        "served {} requests ({} errors, {} shed), cache hit rate {:.1}%",
        stats.requests,
        stats.errors,
        stats.shed,
        stats.cache_hit_rate * 100.0
    );
    ExitCode::SUCCESS
}

fn cmd_shardmap(mut args: Vec<String>) -> ExitCode {
    let Some(replicas_arg) = take_flag(&mut args, "--replicas") else {
        return fail("shardmap needs --replicas \"a,b;c,d;e,f\"");
    };
    let [dir] = args.as_slice() else {
        return fail("shardmap needs <dir> --replicas \"a,b;c,d;e,f\"");
    };
    let manifest_path = PathBuf::from(dir).join(rrre_serve::artifact::MANIFEST_FILE);
    let json = match std::fs::read_to_string(&manifest_path) {
        Ok(j) => j,
        Err(e) => return die(format!("cannot read `{}`: {e}", manifest_path.display())),
    };
    let manifest: rrre_serve::ArtifactManifest = match serde_json::from_str(&json) {
        Ok(m) => m,
        Err(e) => return die(format!("`{}` does not parse as a manifest: {e}", manifest_path.display())),
    };
    let replicas: Vec<Vec<String>> = replicas_arg
        .split(';')
        .map(|shard| {
            shard.split(',').map(|x| x.trim().to_string()).filter(|x| !x.is_empty()).collect()
        })
        .collect();
    let topology = ShardTopology { spec: manifest.shard_spec, replicas };
    if let Err(e) = topology.validate() {
        return die(format!(
            "replica lists don't fit the artifact's shard map ({} shard(s), version {}): {e}",
            manifest.shard_spec.shards, manifest.shard_spec.version
        ));
    }
    println!("{}", topology.to_json());
    ExitCode::SUCCESS
}

/// How a client command reaches the fleet: one failover pool over a flat
/// replica list, or shard-routed scatter-gather over a topology file.
enum Fleet {
    Flat(Client),
    Sharded(ShardedClient),
}

impl Fleet {
    fn request(&self, req: Request) -> Result<Response, ClientError> {
        match self {
            Fleet::Flat(c) => c.request(req),
            Fleet::Sharded(c) => c.request(req),
        }
    }

    fn shutdown(&self) {
        match self {
            Fleet::Flat(c) => c.shutdown(),
            Fleet::Sharded(c) => c.shutdown(),
        }
    }
}

/// Pulls the shared resilient-client flags (`--replicas`, `--shard-map`,
/// `--retries`, `--timeout-ms`, `--hedge-after-ms`, `--seed`) out of
/// `args`. `--replicas` and `--shard-map` are mutually exclusive.
fn client_flags(args: &mut Vec<String>) -> (Option<Vec<String>>, Option<ShardTopology>, ClientConfig) {
    let replicas = take_flag(args, "--replicas").map(|s| {
        let list: Vec<String> =
            s.split(',').map(|x| x.trim().to_string()).filter(|x| !x.is_empty()).collect();
        if list.is_empty() {
            eprintln!("rrre-serve: --replicas got an empty list");
            std::process::exit(2);
        }
        list
    });
    let topology = take_flag(args, "--shard-map").map(|path| {
        let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("rrre-serve: cannot read --shard-map `{path}`: {e}");
            std::process::exit(2);
        });
        ShardTopology::from_json(&json).unwrap_or_else(|e| {
            eprintln!("rrre-serve: --shard-map `{path}` is not a valid topology: {e}");
            std::process::exit(2);
        })
    });
    if replicas.is_some() && topology.is_some() {
        eprintln!("rrre-serve: --replicas and --shard-map are mutually exclusive");
        std::process::exit(2);
    }
    let mut cfg = ClientConfig::default();
    cfg.retries = parse_flag(take_flag(args, "--retries"), "--retries", cfg.retries);
    if let Some(ms) = take_flag(args, "--timeout-ms") {
        cfg.request_timeout = Duration::from_millis(parse_flag(Some(ms), "--timeout-ms", 2000));
    }
    if let Some(ms) = take_flag(args, "--hedge-after-ms") {
        cfg.hedge_after = Some(Duration::from_millis(parse_flag(Some(ms), "--hedge-after-ms", 50)));
    }
    cfg.seed = parse_flag(take_flag(args, "--seed"), "--seed", cfg.seed);
    (replicas, topology, cfg)
}

/// Builds the right client for whichever routing flag was given.
fn build_fleet(
    replicas: Option<Vec<String>>,
    topology: Option<ShardTopology>,
    cfg: ClientConfig,
) -> Result<Fleet, ExitCode> {
    match (replicas, topology) {
        (Some(endpoints), None) => Ok(Fleet::Flat(Client::new(endpoints, cfg))),
        (None, Some(topo)) => match ShardedClient::new(topo, cfg) {
            Ok(c) => Ok(Fleet::Sharded(c)),
            Err(e) => Err(die(format!("shard map rejected: {e}"))),
        },
        _ => unreachable!("caller checked exactly one routing flag"),
    }
}

/// Sends one decoded request through the resilient client and prints the
/// response line; the exit code reflects the response's `ok`.
fn client_roundtrip(fleet: Fleet, line: &str) -> ExitCode {
    let request = match decode_request(line) {
        Ok(r) => r,
        Err(e) => return die(format!("request line does not parse: {e}")),
    };
    let outcome = fleet.request(request);
    fleet.shutdown();
    match outcome {
        Ok(resp) => {
            println!("{}", encode_response(&resp));
            if resp.ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => die(format!("request failed: {e}")),
    }
}

fn cmd_query(mut args: Vec<String>) -> ExitCode {
    let (replicas, topology, cfg) = client_flags(&mut args);
    let (replicas, line) = match (replicas, topology.is_some(), args.as_slice()) {
        (Some(reps), false, [line]) => (Some(reps), line.clone()),
        (None, true, [line]) => (None, line.clone()),
        (None, false, [addr, line]) => (Some(vec![addr.clone()]), line.clone()),
        (_, true, _) => return fail("query with --shard-map needs exactly one <json-line>"),
        (Some(_), _, _) => return fail("query with --replicas needs exactly one <json-line>"),
        (None, _, _) => return fail("query needs <addr> <json-line>"),
    };
    match build_fleet(replicas, topology, cfg) {
        Ok(fleet) => client_roundtrip(fleet, &line),
        Err(code) => code,
    }
}

/// Resolves the `(<addr> | --replicas | --shard-map)` routing triad the
/// client verbs share: one positional address becomes a single-replica
/// flat fleet.
fn routed_fleet(
    verb: &str,
    mut args: Vec<String>,
) -> Result<(Fleet, Vec<String>), ExitCode> {
    let (mut replicas, topology, cfg) = client_flags(&mut args);
    if replicas.is_none() && topology.is_none() {
        if args.is_empty() {
            return Err(fail(&format!(
                "{verb} needs <addr>, --replicas a,b,c or --shard-map FILE"
            )));
        }
        replicas = Some(vec![args.remove(0)]);
    }
    let fleet = build_fleet(replicas, topology, cfg)?;
    Ok((fleet, args))
}

/// The train-on-poisoned / evaluate-on-clean robustness sweep. Emits the
/// Table-IV-style grid CSV; every byte is a pure function of the flags.
fn cmd_attack_eval(mut args: Vec<String>) -> ExitCode {
    let out = take_flag(&mut args, "--out");
    let scale: f64 = parse_flag(take_flag(&mut args, "--scale"), "--scale", 0.05);
    let epochs: usize = parse_flag(take_flag(&mut args, "--epochs"), "--epochs", 8);
    let threads: usize =
        parse_flag(take_flag(&mut args, "--threads"), "--threads", RrreConfig::env_threads().unwrap_or(1));
    let seed: u64 = parse_flag(take_flag(&mut args, "--seed"), "--seed", 0xA77AC4);
    let families_arg =
        take_flag(&mut args, "--families").unwrap_or_else(|| "template,ramp,burst,mimicry".into());
    let strengths_arg = take_flag(&mut args, "--strengths").unwrap_or_else(|| "0.1,0.25,0.5".into());
    if !args.is_empty() {
        return fail(&format!("attack-eval got unrecognised arguments: {args:?}"));
    }
    let mut families = Vec::new();
    for name in families_arg.split(',').filter(|s| !s.is_empty()) {
        match AttackFamily::parse(name) {
            Some(f) => families.push(f),
            None => return die(format!("unknown attack family `{name}`")),
        }
    }
    let mut strengths = Vec::new();
    for s in strengths_arg.split(',').filter(|s| !s.is_empty()) {
        match s.parse::<f64>() {
            Ok(v) if v >= 0.0 => strengths.push(v),
            _ => return die(format!("bad attack strength `{s}`")),
        }
    }
    if families.is_empty() || strengths.is_empty() {
        return die("attack-eval needs at least one family and one strength");
    }

    let mut cfg = AttackEvalConfig::small();
    cfg.base = SynthConfig::yelp_chi().scaled(scale);
    cfg.model.epochs = epochs;
    cfg.model.threads = threads.max(1);
    cfg.campaign_seed = seed;
    cfg.families = families;
    cfg.strengths = strengths;

    let started = Instant::now();
    let report = run_robustness_sweep(&cfg, |family, strength| {
        eprintln!("attack-eval: finished {family} @ strength {strength}");
    });
    let grid = report.grid();
    let csv = grid.to_csv();
    print!("{csv}");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, &csv) {
            return die(format!("cannot write {path}: {e}"));
        }
        eprintln!("attack-eval: wrote {path}");
    }
    eprintln!(
        "attack-eval: base={} reviews, clean ap={:.4} rmse={:.4}, {} cells in {:.1}s, monotone families: {}",
        report.base.len(),
        report.clean_eval.ap_benign,
        report.clean_eval.rmse,
        grid.rows().len(),
        started.elapsed().as_secs_f64(),
        {
            let m = grid.monotone_degradation_families();
            if m.is_empty() { "none".to_string() } else { m.join(",") }
        },
    );
    ExitCode::SUCCESS
}

fn cmd_ingest(args: Vec<String>) -> ExitCode {
    let (fleet, mut args) = match routed_fleet("ingest", args) {
        Ok(pair) => pair,
        Err(code) => return code,
    };
    let Some(count) = take_flag(&mut args, "--count") else {
        fleet.shutdown();
        return fail("ingest needs --count N");
    };
    let count: u64 = parse_flag(Some(count), "--count", 0);
    let seq_start: u64 = parse_flag(take_flag(&mut args, "--seq-start"), "--seq-start", 0);
    let users: u64 = parse_flag(take_flag(&mut args, "--users"), "--users", 2);
    let items: u64 = parse_flag(take_flag(&mut args, "--items"), "--items", 2);
    let campaign_arg = take_flag(&mut args, "--campaign");
    let attack_seed: u64 =
        parse_flag(take_flag(&mut args, "--attack-seed"), "--attack-seed", 0xA77AC4);
    if users == 0 || items == 0 {
        fleet.shutdown();
        return fail("ingest needs --users and --items ≥ 1");
    }
    if !args.is_empty() {
        fleet.shutdown();
        return fail(&format!("ingest got unrecognised arguments: {args:?}"));
    }
    // Campaign mode: the payload stream comes from a seeded fraud campaign
    // confined to the --users/--items id space instead of the bland
    // seq-derived reviews — still a pure function of the flags, so replays
    // dedup the same way.
    let campaign_stream = match campaign_arg {
        None => None,
        Some(name) => match AttackFamily::parse(&name) {
            Some(family) => {
                let campaign = AttackCampaign::new(family, 0.0, attack_seed);
                Some(campaign.stream(users as usize, items as usize, count as usize))
            }
            None => {
                fleet.shutdown();
                return die(format!("unknown attack family `{name}`"));
            }
        },
    };

    // Every field below is a pure function of the seq (or of the seeded
    // campaign), so re-running the same command line replays byte-identical
    // reviews — the durable unit the server's dedup needs for exactly-once
    // drills.
    let sequencer = IngestSequencer::starting_at(seq_start);
    let (mut fresh, mut dup, mut failed) = (0u64, 0u64, 0u64);
    for k in 0..count {
        let seq = sequencer.next_seq();
        let req = match &campaign_stream {
            Some(stream) => {
                let r = &stream[k as usize];
                sequencer.review(r.user.0, r.item.0, r.rating, r.text.clone(), r.timestamp)
            }
            None => sequencer.review(
                (seq % users) as u32,
                (seq % items) as u32,
                1.0 + (seq % 5) as f32,
                format!("review {seq}"),
                seq as i64,
            ),
        };
        match fleet.request(req) {
            Ok(resp) if resp.ok => match resp.ingest {
                Some(ack) => {
                    println!("seq={} duplicate={}", ack.seq, ack.duplicate);
                    if ack.duplicate {
                        dup += 1;
                    } else {
                        fresh += 1;
                    }
                }
                None => {
                    failed += 1;
                    eprintln!("seq={seq} acked without an ingest payload");
                }
            },
            Ok(resp) => {
                failed += 1;
                eprintln!("seq={seq} refused: {:?}: {:?}", resp.kind, resp.error);
            }
            Err(e) => {
                failed += 1;
                eprintln!("seq={seq} failed: {e}");
            }
        }
    }
    fleet.shutdown();
    println!("ingested total={count} new={fresh} dup={dup} failed={failed}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_compact(args: Vec<String>) -> ExitCode {
    let (fleet, args) = match routed_fleet("compact", args) {
        Ok(pair) => pair,
        Err(code) => return code,
    };
    if !args.is_empty() {
        fleet.shutdown();
        return fail(&format!("compact got unrecognised arguments: {args:?}"));
    }
    let outcome = fleet.request(Request::compact());
    fleet.shutdown();
    match outcome {
        Ok(resp) if resp.ok => {
            match &resp.compaction {
                Some(c) => println!(
                    "compacted folded={} generation={}",
                    c.folded, c.generation
                ),
                None => println!("compacted (no fold payload reported)"),
            }
            ExitCode::SUCCESS
        }
        Ok(resp) => die(format!("compact refused: {:?}: {:?}", resp.kind, resp.error)),
        Err(e) => die(format!("compact failed: {e}")),
    }
}

fn cmd_promote(mut args: Vec<String>) -> ExitCode {
    let Some(epoch_arg) = take_flag(&mut args, "--epoch") else {
        return fail("promote needs --epoch N");
    };
    let epoch: u64 = parse_flag(Some(epoch_arg), "--epoch", 0);
    let peers: Vec<String> = take_flag(&mut args, "--peers").map_or_else(Vec::new, |s| {
        s.split(',').map(|x| x.trim().to_string()).filter(|x| !x.is_empty()).collect()
    });
    let (fleet, args) = match routed_fleet("promote", args) {
        Ok(pair) => pair,
        Err(code) => return code,
    };
    if !args.is_empty() {
        fleet.shutdown();
        return fail(&format!("promote got unrecognised arguments: {args:?}"));
    }
    let outcome = fleet.request(Request::promote(epoch, peers));
    fleet.shutdown();
    match outcome {
        Ok(resp) if resp.ok => {
            println!("promoted epoch={}", resp.epoch.unwrap_or(epoch));
            ExitCode::SUCCESS
        }
        Ok(resp) => die(format!("promote refused: {:?}: {:?}", resp.kind, resp.error)),
        Err(e) => die(format!("promote failed: {e}")),
    }
}

fn cmd_oneshot(mut args: Vec<String>) -> ExitCode {
    let (replicas, topology, cfg) = client_flags(&mut args);
    if replicas.is_some() || topology.is_some() {
        // Network one-shot: same client machinery as `query`.
        let [line] = args.as_slice() else {
            return fail("oneshot with --replicas/--shard-map needs exactly one <json-line>");
        };
        let line = line.clone();
        return match build_fleet(replicas, topology, cfg) {
            Ok(fleet) => client_roundtrip(fleet, &line),
            Err(code) => code,
        };
    }
    let [dir, line] = args.as_slice() else {
        return fail("oneshot needs <dir> <json-line>");
    };
    let artifact = match ModelArtifact::load(dir) {
        Ok(a) => a,
        Err(e) => return die(format!("failed to load artifact `{dir}`: {e}")),
    };
    let engine = Engine::new(
        artifact,
        EngineConfig { workers: 1, max_wait: Duration::ZERO, ..EngineConfig::default() },
    );
    let response = engine.submit_line(line);
    println!("{}", encode_response(&response));
    engine.shutdown();
    if response.ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_burst(mut args: Vec<String>) -> ExitCode {
    let (replicas, topology, mut cfg) = client_flags(&mut args);
    if replicas.is_none() && topology.is_none() {
        return fail("burst needs --replicas a,b,c or --shard-map FILE");
    }
    let shard_count = topology.as_ref().map_or(1, |t| t.shards());
    let requests: usize = parse_flag(take_flag(&mut args, "--requests"), "--requests", 100);
    let gap_ms: u64 = parse_flag(take_flag(&mut args, "--gap-ms"), "--gap-ms", 2);
    let users: u32 = parse_flag(take_flag(&mut args, "--users"), "--users", 2);
    let items: u32 = parse_flag(take_flag(&mut args, "--items"), "--items", 2);
    let recommend_k: usize = parse_flag(take_flag(&mut args, "--recommend-k"), "--recommend-k", 0);
    let probe_ms: u64 =
        parse_flag(take_flag(&mut args, "--probe-interval-ms"), "--probe-interval-ms", 100);
    cfg.probe_interval = if probe_ms == 0 { None } else { Some(Duration::from_millis(probe_ms)) };
    if !args.is_empty() {
        return fail(&format!("burst got unrecognised arguments: {args:?}"));
    }
    if users == 0 || items == 0 {
        return fail("burst needs --users and --items ≥ 1");
    }

    let fleet = match build_fleet(replicas, topology, cfg) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let (mut ok, mut failed, mut degraded) = (0usize, 0usize, 0usize);
    let mut lats = Vec::with_capacity(requests);
    for i in 0..requests {
        // Recommends exercise the scatter-gather path end to end; Predicts
        // exercise point routing. Both are deterministic in `i`.
        let req = if recommend_k > 0 {
            Request::recommend(i as u32 % users, recommend_k)
        } else {
            Request::predict(i as u32 % users, i as u32 % items)
        };
        let fired = Instant::now();
        let outcome = fleet.request(req);
        lats.push(fired.elapsed());
        match outcome {
            Ok(resp) if resp.ok => {
                ok += 1;
                if resp.degraded == Some(true) {
                    degraded += 1;
                }
            }
            Ok(resp) => {
                failed += 1;
                eprintln!("request {i} refused: {:?}: {:?}", resp.kind, resp.error);
            }
            Err(e) => {
                failed += 1;
                eprintln!("request {i} failed: {e}");
            }
        }
        if gap_ms > 0 {
            std::thread::sleep(Duration::from_millis(gap_ms));
        }
    }
    lats.sort_unstable();
    let (p50, p99) = (percentile_ms(&lats, 0.50), percentile_ms(&lats, 0.99));

    let (retries, hedges) = match &fleet {
        Fleet::Flat(client) => {
            let snap = client.snapshot();
            for r in &snap.replicas {
                println!(
                    "replica {} attempts={} failures={} hedges={} breaker_opens={} breaker_open={} probe_ready={}",
                    r.addr, r.attempts, r.failures, r.hedges, r.breaker_opens, r.breaker_open, r.probe_ready
                );
            }
            (snap.retries, snap.hedges)
        }
        Fleet::Sharded(client) => {
            let snap = client.snapshot();
            let (mut retries, mut hedges) = (0u64, 0u64);
            for (shard, s) in snap.shards.iter().enumerate() {
                retries += s.retries;
                hedges += s.hedges;
                for r in &s.replicas {
                    println!(
                        "shard {shard} replica {} attempts={} failures={} hedges={} breaker_opens={} breaker_open={} probe_ready={}",
                        r.addr, r.attempts, r.failures, r.hedges, r.breaker_opens, r.breaker_open, r.probe_ready
                    );
                }
            }
            println!(
                "scatter fanout={} degraded_responses={}",
                snap.scatter_fanout, snap.degraded_responses
            );
            // Each shard's *server-side* counters, queried point-to-point
            // so the scatter-merge doesn't collapse them into one total:
            // scatter_fanout says how much gather traffic the shard served,
            // cross_shard_rejects says how much traffic was misrouted to it.
            for shard in 0..shard_count {
                match client.shard_client(shard).request(Request::stats()) {
                    Ok(resp) => {
                        if let Some(s) = resp.stats {
                            println!(
                                "shard {shard} server scatter_fanout={} cross_shard_rejects={}",
                                s.scatter_fanout, s.cross_shard_rejects
                            );
                        }
                    }
                    Err(e) => eprintln!("shard {shard} stats query failed: {e}"),
                }
            }
            (retries, hedges)
        }
    };

    println!(
        "burst shards={shard_count} requests={requests} ok={ok} failed={failed} \
         degraded={degraded} p50_ms={p50:.2} p99_ms={p99:.2} retries={retries} hedges={hedges}"
    );
    fleet.shutdown();
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Nearest-rank percentile (ceil(q·n) in 1-based ranks) over sorted
/// latencies, in milliseconds.
fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}
