//! `rrre-serve` — train, serve and query RRRE artifacts from the shell.
//!
//! Eleven verbs over one flag table: each verb declares its flags once in
//! [`verbs`] (name, value or switch, help, default, prerequisites), and
//! parsing, `--help` and every refusal are derived from that declaration.
//! A command line the table does not accept exits with status 2 and names
//! the offending argument; an operational failure exits with status 1.
//! `rrre-serve --help` prints the whole table.

use rrre_client::{Client, ClientConfig, ClientError, ShardedClient};
use rrre_core::{run_robustness_sweep, AttackEvalConfig, CheckpointConfig, EpochStats, Rrre, RrreConfig};
use rrre_data::synth::{generate, AttackCampaign, AttackFamily, SynthConfig};
use rrre_data::{CorpusConfig, Dataset, EncodedCorpus};
use rrre_serve::{
    AckLevel, ArtifactManifest, Engine, EngineConfig, IngestConfig, ModelArtifact, ReplRole,
    ReplicationConfig, Server, ServerConfig,
};
use rrre_shard::ShardTopology;
use rrre_text::word2vec::Word2VecConfig;
use rrre_wire::{decode_request, encode_response, Request, Response, ShardSpec};
use std::fmt::Write as _;
use std::io::{BufRead, IsTerminal};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One row of a verb's flag table.
struct Flag {
    name: &'static str,
    /// Metavariable of the value the flag takes; `None` for a bare switch.
    value: Option<&'static str>,
    help: &'static str,
    /// What leaving the flag out means: shown by `--help`, parsed by
    /// [`Args::get`], so the two cannot disagree.
    default: Option<String>,
    /// The flag only means something beside one of these.
    needs: &'static [&'static str],
}

fn val(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag { name, value: Some(value), help, default: None, needs: &[] }
}

fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag { name, value: None, help, default: None, needs: &[] }
}

impl Flag {
    fn default(mut self, default: impl ToString) -> Self {
        self.default = Some(default.to_string());
        self
    }

    fn needs(mut self, needs: &'static [&'static str]) -> Self {
        self.needs = needs;
        self
    }
}

/// Operational failure: `main` prints the message and exits with status 1.
type Outcome = Result<ExitCode, String>;

struct Verb {
    name: &'static str,
    /// Positionals and required flags, as the usage line shows them.
    synopsis: &'static str,
    about: &'static str,
    run: fn(Args) -> Outcome,
    flags: Vec<Flag>,
    /// Whether the verb also takes the shared [`client_flags`].
    client: bool,
}

/// The flag table: every verb, and every flag it accepts, declared once.
fn verbs() -> Vec<Verb> {
    let verb = |name, synopsis, run, about, flags| Verb { name, synopsis, about, run, flags, client: false };
    let client = |name, synopsis, run, about, flags| Verb { client: true, ..verb(name, synopsis, run, about, flags) };
    let threads = || {
        val("--threads", "N", "data-parallel training threads; every count yields the same bits")
            .default(RrreConfig::env_threads().unwrap_or(1))
    };
    let sweep = AttackEvalConfig::small();
    let families: Vec<&str> = sweep.families.iter().map(|f| f.name()).collect();
    let strengths: Vec<String> = sweep.strengths.iter().map(f64::to_string).collect();
    vec![
        verb("demo", "<dir> [FLAGS]", cmd_demo,
            "Generate a synthetic YelpChi-like dataset, train a small RRRE model and write a \
             serving artifact to <dir>.",
            vec![
                val("--scale", "F", "synthetic dataset scale").default(0.05),
                val("--shards", "N", "shards in the manifest's consistent-hash map; every shard's \
                     replicas serve from this one artifact").default(1),
            ]),
        verb("train", "<dir> [FLAGS]", cmd_train,
            "Crash-safe training over the same synthetic dataset, with atomic checkpoints into \
             <dir>. The final stdout line carries the exact loss bits.",
            vec![
                val("--scale", "F", "synthetic dataset scale").default(0.04),
                val("--epochs", "N", "epochs to train").default(4),
                val("--every", "N", "checkpoint every N epochs").default(1),
                threads(),
                switch("--resume", "continue from the newest checkpoint in <dir>, bit-identically to \
                     an uninterrupted run, at any --threads"),
                val("--abort-after-epoch", "N", "exit with status 137 right after epoch N's \
                     checkpoint lands: a scripted SIGKILL for crash drills"),
            ]),
        verb("serve", "<dir> [FLAGS]", cmd_serve,
            "Load the artifact in <dir> and serve newline-delimited JSON over TCP: one epoll event \
             loop multiplexes every connection, requests pipeline per connection. The stdin verb \
             `quit` stops it gracefully (every admin action is a protocol op: `query`, \
             `compact`); on stdin EOF (detached) it serves until killed.",
            serve_flags()),
        verb("shardmap", "<dir> --replicas \"a,b;c,d;e,f\"", cmd_shardmap,
            "Print the shard-topology JSON document --shard-map takes, binding the artifact's \
             shard spec to replica endpoints.",
            vec![val("--replicas", "LISTS", "required: shards separated by `;`, replicas within a \
                 shard by `,`; the shard count must match the manifest's")]),
        client("ingest", "(<addr> | --replicas a,b,c | --shard-map FILE) --count N [FLAGS] [CLIENT FLAGS]",
            cmd_ingest,
            "Stream N reviews through the resilient client. Every payload is a pure function of \
             its seq, so re-running the same command replays byte-identical reviews and the \
             server acks them as duplicates without re-applying (exactly-once drills). Prints one \
             `seq=K duplicate=BOOL` line per ack and a machine-readable summary; exits nonzero if \
             any review failed to ack.",
            vec![
                val("--count", "N", "reviews to send, required"),
                val("--seq-start", "S", "seq id of the first review").default(0),
                val("--users", "N", "user ids the reviews cycle through").default(2),
                val("--items", "N", "item ids the reviews cycle through").default(2),
                val("--campaign", "FAMILY", "send a seeded fraud campaign (template|ramp|burst|\
                     mimicry) confined to the --users/--items id space instead of the bland \
                     seq-derived payloads; replays still dedup"),
                val("--attack-seed", "N", "campaign seed").default(sweep.campaign_seed).needs(&["--campaign"]),
            ]),
        verb("attack-eval", "[FLAGS]", cmd_attack_eval,
            "Train-on-poisoned / evaluate-on-clean robustness sweep: per attack family × strength \
             cell, inject a seeded fraud campaign into the synthetic base, re-train on the \
             label-poisoned corpus, evaluate on the clean held-out test set. Emits the \
             Table-IV-style CSV grid on stdout, bit-identical per seed at every thread count; the \
             default sweep is the committed results/adversarial_grid.csv.",
            vec![
                val("--out", "FILE", "also write the grid to FILE"),
                val("--scale", "F", "synthetic dataset scale").default(0.05),
                val("--families", "a,b,c", "attack families").default(families.join(",")),
                val("--strengths", "x,y,z", "attack strengths").default(strengths.join(",")),
                val("--epochs", "N", "epochs per re-training").default(sweep.model.epochs),
                threads(),
                val("--seed", "N", "campaign seed").default(sweep.campaign_seed),
            ]),
        client("compact", "(<addr> | --replicas a,b,c | --shard-map FILE) [CLIENT FLAGS]", cmd_compact,
            "Fold the WAL into a new artifact generation on every shard (broadcast) and print \
             what was folded.",
            vec![]),
        client("promote", "(<addr> | --replicas a,b,c | --shard-map FILE) --epoch N [FLAGS] [CLIENT FLAGS]",
            cmd_promote,
            "Install the addressed replica as its shard's ingest leader. The new term fences the \
             old leader: its Replicate/IngestReview traffic is refused with StaleEpoch.",
            vec![
                val("--epoch", "N", "the new term, required; must exceed the replica's current one"),
                val("--peers", "a,b", "follower addresses the new leader ships to"),
            ]),
        client("query", "(<addr> | --replicas a,b,c | --shard-map FILE) <json-line> [CLIENT FLAGS]",
            cmd_query,
            "Send one request through the resilient client (retries, failover, breakers) and \
             print the response line.",
            vec![]),
        verb("oneshot", "<dir> <json-line>", cmd_oneshot,
            "Answer a single request in-process from the artifact in <dir>, with no socket; \
             `query` is the network path.",
            vec![]),
        client("burst", "(--replicas a,b,c | --shard-map FILE) [FLAGS] [CLIENT FLAGS]", cmd_burst,
            "Drive requests through the resilient client — flat with --replicas, shard-routed \
             scatter-gather with --shard-map — one at a time, closed-loop. A failover drill, not \
             a load generator: numbers come from benchmark/. Prints per-replica lines and a \
             summary with p50/p99 latency; exits nonzero if any request failed client-visibly \
             (degraded answers are not failures).",
            vec![
                val("--requests", "N", "requests to send").default(100),
                val("--gap-ms", "N", "pause between a completion and the next request").default(2),
                val("--users", "N", "user ids the requests cycle through").default(2),
                val("--items", "N", "item ids the Predicts cycle through").default(2),
                val("--recommend-k", "K", "send Recommends with this k; 0 sends Predicts").default(0),
                val("--probe-interval-ms", "N", "health-probe period; 0 turns probes off").default(100),
            ]),
    ]
}

fn serve_flags() -> Vec<Flag> {
    let (engine, server) = (EngineConfig::default(), ServerConfig::default());
    let (ingest, repl) = (IngestConfig::default(), ReplicationConfig::default());
    const INGEST: &[&str] = &["--ingest"];
    const REPLICATED: &[&str] = &["--followers", "--replicate-from"];
    vec![
        val("--addr", "HOST:PORT", "listen address").default("127.0.0.1:7878"),
        val("--shard-id", "N", "serve shard N of the manifest's shard map: WrongShard for entities \
             it does not own, Recommend scores its own catalog slice (default: the whole model)"),
        val("--workers", "N", "engine worker threads").default(engine.workers),
        val("--max-batch", "N", "jobs per micro-batch").default(engine.max_batch),
        val("--max-wait-ms", "N", "batch collection window").default(engine.max_wait.as_millis()),
        val("--queue-cap", "N", "queued jobs before requests are shed Overloaded").default(engine.queue_cap),
        val("--max-conns", "N", "concurrent connections; excess ones get one Unavailable and are \
             closed").default(server.max_connections),
        val("--read-timeout-ms", "N", "event-loop poll tick").default(server.read_timeout.as_millis()),
        val("--drain-ms", "N", "how long `quit` waits for in-flight work to drain")
            .default(server.drain_deadline.as_millis()),
        val("--idle-timeout-ms", "N", "reap connections silent this long (default: never)"),
        val("--max-inflight", "N", "pipelined requests per connection before reads pause")
            .default(server.max_inflight_per_conn),
        val("--write-buf-kb", "N", "queued response KiB per connection before reads pause")
            .default(server.write_buffer_cap / 1024),
        switch("--ingest", "durable streaming ingest: IngestReview appends to a checksummed WAL under \
             <dir>/wal, fsynced before the ack (an ack is a durability promise), and Compact folds \
             it into a new artifact generation; startup replays the WAL (torn tails repaired, \
             mid-log corruption refuses to start) and completes an interrupted compaction"),
        val("--segment-kb", "N", "WAL segment rotation threshold, KiB")
            .default(ingest.segment_bytes / 1024).needs(INGEST),
        val("--refresh-every", "N", "fold ingested reviews into the serving towers every N records; \
             0 folds only on open, Reload and Compact").default(ingest.refresh_every).needs(INGEST),
        val("--cold-start-min", "N", "answer pairs with either side under N reviews from the \
             calibrated reliability prior instead of the head score")
            .default(ingest.cold_start_min).needs(INGEST),
        val("--followers", "a,b", "start as the shard's ingest leader, shipping the WAL to these \
             follower addresses").needs(INGEST),
        val("--replicate-from", "ADDR", "start as a follower of ADDR: refuses client ingest with \
             NotLeader naming ADDR, and applies the Replicate shipments of whichever leader lists \
             this replica in --followers or a promote --peers set").needs(INGEST),
        val("--ack", "leader|quorum", "release an ingest ack after the leader's own fsync, or only \
             once a majority of the replica set holds the record durably")
            .default(format!("{:?}", repl.ack).to_lowercase()).needs(REPLICATED),
        val("--epoch", "N", "the leader's starting term; a higher persisted term from a previous \
             incarnation always wins").default(1).needs(&["--followers"]),
        val("--quorum-timeout-ms", "N", "how long an ack may wait for quorum before refusing \
             Unavailable (retry-safe: the record stays durable on the leader, the retry dedups)")
            .default(repl.quorum_timeout.as_millis()).needs(REPLICATED),
    ]
}

/// The resilient-client flags every client verb shares.
fn client_flags() -> Vec<Flag> {
    let client = ClientConfig::default();
    vec![
        val("--replicas", "a,b,c", "comma-separated replica endpoints"),
        val("--shard-map", "FILE", "shard-topology JSON (see `shardmap`): routes by shard and \
             scatter-gathers ranking queries"),
        val("--retries", "N", "extra attempts per request").default(client.retries),
        val("--timeout-ms", "N", "per-attempt timeout, also sent as deadline_ms (a scatter splits it \
             across its sub-requests)").default(client.request_timeout.as_millis()),
        val("--seed", "N", "jitter-RNG seed (fixed seed = fixed schedule)").default(client.seed),
    ]
}

const PROTOCOL: &str = "\
PROTOCOL (one JSON object per line):
  {\"op\":\"Predict\",\"user\":3,\"item\":7}
  {\"op\":\"Recommend\",\"user\":3,\"k\":5}
  {\"op\":\"Explain\",\"item\":7,\"k\":3}
  {\"op\":\"Reload\"}
  {\"op\":\"Stats\"}
  {\"op\":\"Health\"}
";

/// Appends `text` word-wrapped to 80 columns: the first line continues
/// whatever `out` already holds, the rest are indented by `indent`.
fn wrap(out: &mut String, text: &str, indent: usize) {
    let mut col = out.len() - out.rfind('\n').map_or(0, |nl| nl + 1);
    for word in text.split_whitespace() {
        if col + word.len() > 80 {
            out.truncate(out.trim_end().len());
            let _ = write!(out, "\n{:indent$}", "");
            col = indent;
        }
        let _ = write!(out, "{word} ");
        col += word.len() + 1;
    }
    out.truncate(out.trim_end().len());
    out.push('\n');
}

fn render_flags(out: &mut String, flags: &[Flag]) {
    for flag in flags {
        let default = flag.default.iter().map(|d| format!("default {d}"));
        let needs = (!flag.needs.is_empty()).then(|| format!("needs {}", flag.needs.join(" or ")));
        let notes: Vec<String> = default.chain(needs).collect();
        let mut help = flag.help.to_string();
        if !notes.is_empty() {
            let _ = write!(help, " ({})", notes.join("; "));
        }
        let _ = write!(out, "      {:<23}", format!("{} {}", flag.name, flag.value.unwrap_or("")));
        wrap(out, &help, 29);
    }
}

impl Verb {
    /// Usage line, description and flag rows.
    fn help(&self) -> String {
        let mut out = format!("  rrre-serve {} {}\n      ", self.name, self.synopsis);
        wrap(&mut out, self.about, 6);
        render_flags(&mut out, &self.flags);
        out
    }
}

/// The whole table: every verb with its own flags, the shared client flags
/// once, and the wire protocol.
fn usage() -> String {
    let mut out = String::from("rrre-serve: inference serving for the RRRE model\n\nUSAGE:\n");
    for verb in verbs() {
        out.push_str(&verb.help());
        out.push('\n');
    }
    out.push_str("  CLIENT FLAGS:\n");
    render_flags(&mut out, &client_flags());
    out.push('\n');
    out.push_str(PROTOCOL);
    out
}

/// Refuses the command line: the message, then the usage it violated, exit
/// status 2.
fn refuse(msg: impl std::fmt::Display, usage: &str) -> ! {
    eprintln!("rrre-serve: {msg}\n\n{usage}");
    std::process::exit(2);
}

/// A verb's parsed command line.
struct Args {
    /// The verb, its flag rows extended by the client flags if it takes them.
    verb: Verb,
    /// Flags present on the command line, with their values (`""` for
    /// switches).
    given: Vec<(&'static str, String)>,
    positional: Vec<String>,
}

impl Args {
    /// Sorts `raw` into flags and positionals against the verb's table.
    /// Prints the verb's help and exits on `--help`; refuses an unknown
    /// flag, a repeated flag, a flag in another flag's value position and a
    /// flag given without its prerequisite.
    fn parse(mut verb: Verb, raw: Vec<String>) -> Args {
        if verb.client {
            verb.flags.extend(client_flags());
        }
        let mut args = Args { verb, given: Vec::new(), positional: Vec::new() };
        let mut raw = raw.into_iter();
        while let Some(arg) = raw.next() {
            if arg == "--help" || arg == "-h" {
                println!("{}", args.verb.help());
                std::process::exit(0);
            }
            if !arg.starts_with("--") {
                args.positional.push(arg);
                continue;
            }
            let Some(flag) = args.verb.flags.iter().find(|f| f.name == arg) else {
                args.refuse(format!("{} got unrecognised arguments: [{arg:?}]", args.verb.name));
            };
            if args.has(flag.name) {
                args.refuse(format!("{arg} given more than once"));
            }
            let value = match flag.value {
                None => String::new(),
                Some(_) => match raw.next() {
                    Some(value) if !value.starts_with("--") => value,
                    Some(next) => args.refuse(format!(
                        "{arg} needs a value, but the next argument is the flag `{next}`"
                    )),
                    None => args.refuse(format!("{arg} needs a value")),
                },
            };
            args.given.push((flag.name, value));
        }
        for flag in &args.verb.flags {
            if args.has(flag.name) && !flag.needs.is_empty() && !flag.needs.iter().any(|n| args.has(n)) {
                args.refuse(format!("{} needs {}", flag.name, flag.needs.join(" or ")));
            }
        }
        args
    }

    fn refuse(&self, msg: impl std::fmt::Display) -> ! {
        refuse(msg, &self.verb.help())
    }

    fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The flag's value — from the command line, else its declared default,
    /// else `None`. A value that does not parse is refused.
    fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        let flag = self.verb.flags.iter().find(|f| f.name == name).expect("flag is in the verb's table");
        let value = self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v).or(flag.default.as_ref())?;
        match value.parse() {
            Ok(parsed) => Some(parsed),
            Err(_) => self.refuse(format!("{name} got `{value}`, which does not parse")),
        }
    }

    /// [`Args::opt`] for a flag that declares a default.
    fn get<T: FromStr>(&self, name: &str) -> T {
        self.opt(name).expect("flag declares a default")
    }

    /// `--scale`, which must be a positive factor.
    fn scale(&self) -> f64 {
        let scale: f64 = self.get("--scale");
        if scale.is_nan() || scale <= 0.0 {
            self.refuse("--scale must be > 0");
        }
        scale
    }

    /// [`Args::opt`] for a required flag.
    fn required<T: FromStr>(&self, name: &str) -> T {
        self.opt(name).unwrap_or_else(|| self.refuse(format!("{} needs {name}", self.verb.name)))
    }

    /// A comma-separated flag value, which must name at least one entry.
    fn list(&self, name: &str) -> Option<Vec<String>> {
        let list = split_list(&self.opt::<String>(name)?, ',');
        if list.is_empty() {
            self.refuse(format!("{name} got an empty list"));
        }
        Some(list)
    }

    /// The positionals, which must number exactly `N`.
    fn positionals<const N: usize>(&self, what: &str) -> &[String; N] {
        self.positional.as_slice().try_into().unwrap_or_else(|_| {
            self.refuse(format!("{} needs {what}, got {:?}", self.verb.name, self.positional))
        })
    }
}

fn split_list(s: &str, sep: char) -> Vec<String> {
    s.split(sep).map(|x| x.trim().to_string()).filter(|x| !x.is_empty()).collect()
}

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        refuse("missing subcommand", &usage());
    }
    let name = raw.remove(0);
    if matches!(name.as_str(), "--help" | "-h" | "help") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(verb) = verbs().into_iter().find(|v| v.name == name) else {
        refuse(format!("unknown subcommand `{name}`"), &usage());
    };
    let run = verb.run;
    run(Args::parse(verb, raw)).unwrap_or_else(|msg| {
        eprintln!("rrre-serve: {msg}");
        ExitCode::FAILURE
    })
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

fn cmd_demo(args: Args) -> Outcome {
    let scale = args.scale();
    let shards: u32 = args.get("--shards");
    if shards == 0 {
        args.refuse("--shards must be ≥ 1");
    }
    let [dir] = args.positionals("exactly one <dir>");

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
    ModelArtifact::save_with_shards(dir, &ds, &corpus, &model, min_count, spec)
        .map_err(|e| format!("failed to write artifact to `{dir}`: {e}"))?;
    if shards > 1 {
        println!("artifact written to {dir} ({shards}-way shard map, version {})", spec.version);
    } else {
        println!("artifact written to {dir}");
    }
    println!("next: rrre-serve serve {dir}");
    println!("then: rrre-serve query 127.0.0.1:7878 '{{\"op\":\"Recommend\",\"user\":0,\"k\":3}}'");
    Ok(ExitCode::SUCCESS)
}

fn cmd_train(args: Args) -> Outcome {
    let scale = args.scale();
    let abort_after: Option<usize> = args.opt("--abort-after-epoch");
    let cfg = RrreConfig { epochs: args.get("--epochs"), threads: args.get("--threads"), ..RrreConfig::tiny() };
    if cfg.threads == 0 {
        args.refuse("--threads must be ≥ 1");
    }
    let [dir] = args.positionals("exactly one <dir>");
    let ckpt = CheckpointConfig { dir: PathBuf::from(dir), every: args.get("--every") };
    if ckpt.every == 0 {
        args.refuse("--every must be ≥ 1");
    }

    eprintln!("generating synthetic dataset (scale {scale})...");
    let (ds, corpus, _) = synth_corpus(scale, 12, 8, 1);
    let train: Vec<usize> = (0..ds.len()).collect();

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
    let out = if args.has("--resume") {
        Rrre::resume(&ds, &corpus, &train, cfg, &ckpt, hook)
    } else {
        Rrre::fit_checkpointed(&ds, &corpus, &train, cfg, &ckpt, hook)
    }
    .map_err(|e| format!("training failed: {e}"))?;
    if let Some(from) = out.resumed_from {
        eprintln!("resumed from checkpoint at {from} completed epochs");
    }
    if let Some(at) = out.diverged_at {
        eprintln!(
            "training diverged at epoch {at}; rolled back to the checkpoint at {} epochs",
            out.completed_epochs
        );
    }
    // `bits` pins the exact f32, so crash drills can compare runs without
    // any float-formatting slack.
    let (loss, bits) = last.map_or((f32::NAN, 0), |s| (s.loss, s.loss.to_bits()));
    println!("final epochs={} loss={loss:.6} bits={bits:08x}", out.completed_epochs);
    Ok(ExitCode::SUCCESS)
}

fn cmd_serve(args: Args) -> Outcome {
    let addr: String = args.get("--addr");
    let cfg = EngineConfig {
        shard_id: args.opt("--shard-id"),
        workers: args.get("--workers"),
        max_batch: args.get("--max-batch"),
        max_wait: Duration::from_millis(args.get("--max-wait-ms")),
        queue_cap: args.get("--queue-cap"),
        ..EngineConfig::default()
    };
    let server_cfg = ServerConfig {
        max_connections: args.get("--max-conns"),
        read_timeout: Duration::from_millis(args.get("--read-timeout-ms")),
        drain_deadline: Duration::from_millis(args.get("--drain-ms")),
        idle_timeout: args.opt("--idle-timeout-ms").map(Duration::from_millis),
        max_inflight_per_conn: args.get("--max-inflight"),
        write_buffer_cap: args.get::<usize>("--write-buf-kb") * 1024,
    };
    let ingest_on = args.has("--ingest");
    let ingest_cfg = IngestConfig {
        segment_bytes: args.get::<u64>("--segment-kb") * 1024,
        refresh_every: args.get("--refresh-every"),
        cold_start_min: args.get("--cold-start-min"),
    };
    if args.has("--followers") && args.has("--replicate-from") {
        args.refuse("--followers and --replicate-from are mutually exclusive");
    }
    let role = match (args.list("--followers"), args.opt("--replicate-from")) {
        (Some(followers), _) => Some(ReplRole::Leader { followers, epoch: args.get("--epoch") }),
        (None, Some(leader)) => Some(ReplRole::Follower { leader: Some(leader) }),
        (None, None) => None,
    };
    let repl_cfg = role.map(|role| ReplicationConfig {
        role,
        ack: match args.get::<String>("--ack").as_str() {
            "quorum" => AckLevel::Quorum,
            "leader" => AckLevel::Leader,
            other => args.refuse(format!("--ack got `{other}`, want leader|quorum")),
        },
        quorum_timeout: Duration::from_millis(args.get("--quorum-timeout-ms")),
        self_addr: Some(addr.clone()),
    });
    let [dir] = args.positionals("exactly one <dir>");

    // Validate --shard-id against the manifest *before* constructing the
    // engine (whose own range assert is a panic, not an operator message).
    if let Some(shard) = cfg.shard_id {
        if let Some(m) = ArtifactManifest::read(Path::new(dir)).ok().filter(|m| shard >= m.shard_spec.shards) {
            return Err(format!(
                "--shard-id {shard} out of range: artifact `{dir}` declares {} shard(s)",
                m.shard_spec.shards
            ));
        }
    }
    eprintln!("loading artifact from {dir}...");
    let engine = Arc::new(if let Some(repl) = repl_cfg {
        Engine::open_replicated(dir, cfg, ingest_cfg, repl)
            .map_err(|e| format!("failed to open artifact `{dir}` replicated: {e}"))?
    } else if ingest_on {
        Engine::open_with_ingest(dir, cfg, ingest_cfg)
            .map_err(|e| format!("failed to open artifact `{dir}` for ingest: {e}"))?
    } else {
        let artifact =
            ModelArtifact::load(dir).map_err(|e| format!("failed to load artifact `{dir}`: {e}"))?;
        Engine::new(artifact, cfg)
    });
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
                 refresh_every={}",
                dir, s.wal_bytes, s.wal_recoveries, ingest_cfg.refresh_every
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
            return Err(format!("failed to bind {addr}: {e}"));
        }
    };
    println!("listening on {}", server.local_addr());
    println!("(stdin verb: quit)");

    let got_quit = std::io::stdin().lock().lines().map_while(Result::ok).any(|l| l.trim() == "quit");
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
    Ok(ExitCode::SUCCESS)
}

fn cmd_shardmap(args: Args) -> Outcome {
    let replicas_arg: String = args.required("--replicas");
    let [dir] = args.positionals("exactly one <dir>");
    let manifest = ArtifactManifest::read(Path::new(dir))
        .map_err(|e| format!("cannot read the manifest of `{dir}`: {e}"))?;
    let replicas = split_list(&replicas_arg, ';').iter().map(|shard| split_list(shard, ',')).collect();
    let topology = ShardTopology { spec: manifest.shard_spec, replicas };
    topology.validate().map_err(|e| {
        format!(
            "replica lists don't fit the artifact's shard map ({} shard(s), version {}): {e}",
            manifest.shard_spec.shards, manifest.shard_spec.version
        )
    })?;
    println!("{}", topology.to_json());
    Ok(ExitCode::SUCCESS)
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

/// The resilient-client configuration the shared client flags describe.
fn client_config(args: &Args) -> ClientConfig {
    ClientConfig {
        retries: args.get("--retries"),
        request_timeout: Duration::from_millis(args.get("--timeout-ms")),
        seed: args.get("--seed"),
        ..ClientConfig::default()
    }
}

/// Resolves the `(<addr> | --replicas | --shard-map)` routing triad the
/// client verbs share — one positional address becomes a single-replica
/// flat fleet — and returns the positionals after it, which must be the
/// ones `rest` names.
fn routed_fleet<'a>(args: &'a Args, cfg: ClientConfig, rest: &[&str]) -> Result<(Fleet, &'a [String]), String> {
    if args.has("--replicas") && args.has("--shard-map") {
        args.refuse("--replicas and --shard-map are mutually exclusive");
    }
    let flagged = args.has("--replicas") || args.has("--shard-map");
    let want: Vec<&str> = (!flagged).then_some("<addr>").into_iter().chain(rest.iter().copied()).collect();
    if args.positional.len() != want.len() {
        args.refuse(format!(
            "{} needs {}, got {:?}",
            args.verb.name,
            if want.is_empty() { "no positional argument".into() } else { want.join(" ") },
            args.positional
        ));
    }
    let (addr, rest) = args.positional.split_at(want.len() - rest.len());
    let fleet = match args.opt::<String>("--shard-map") {
        Some(path) => {
            let json = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read --shard-map `{path}`: {e}"))?;
            let topology = ShardTopology::from_json(&json)
                .map_err(|e| format!("--shard-map `{path}` is not a valid topology: {e}"))?;
            Fleet::Sharded(ShardedClient::new(topology, cfg).map_err(|e| format!("shard map rejected: {e}"))?)
        }
        None => Fleet::Flat(Client::new(args.list("--replicas").unwrap_or_else(|| addr.to_vec()), cfg)),
    };
    Ok((fleet, rest))
}

/// Sends one request line through the resilient client and prints the
/// response line; the exit code reflects the response's `ok`.
fn cmd_query(args: Args) -> Outcome {
    let (fleet, rest) = routed_fleet(&args, client_config(&args), &["<json-line>"])?;
    let outcome = decode_request(&rest[0])
        .map_err(|e| format!("request line does not parse: {e}"))
        .and_then(|request| fleet.request(request).map_err(|e| format!("request failed: {e}")));
    fleet.shutdown();
    let resp = outcome?;
    println!("{}", encode_response(&resp));
    Ok(if resp.ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The train-on-poisoned / evaluate-on-clean robustness sweep. Emits the
/// Table-IV-style grid CSV; every byte is a pure function of the flags.
fn cmd_attack_eval(args: Args) -> Outcome {
    args.positionals::<0>("no positional argument");
    let mut cfg = AttackEvalConfig::small();
    cfg.base = SynthConfig::yelp_chi().scaled(args.scale());
    cfg.model.epochs = args.get("--epochs");
    cfg.model.threads = args.get::<usize>("--threads").max(1);
    cfg.campaign_seed = args.get("--seed");
    cfg.families = args
        .list("--families")
        .expect("declares a default")
        .iter()
        .map(|name| AttackFamily::parse(name).ok_or_else(|| format!("unknown attack family `{name}`")))
        .collect::<Result<_, _>>()?;
    cfg.strengths = args
        .list("--strengths")
        .expect("declares a default")
        .iter()
        .map(|s| s.parse().ok().filter(|v| *v >= 0.0).ok_or_else(|| format!("bad attack strength `{s}`")))
        .collect::<Result<_, _>>()?;

    let started = Instant::now();
    let report = run_robustness_sweep(&cfg, |family, strength| {
        eprintln!("attack-eval: finished {family} @ strength {strength}");
    });
    let grid = report.grid();
    let csv = grid.to_csv();
    print!("{csv}");
    if let Some(path) = args.opt::<String>("--out") {
        std::fs::write(&path, &csv).map_err(|e| format!("cannot write {path}: {e}"))?;
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
    Ok(ExitCode::SUCCESS)
}

fn cmd_ingest(args: Args) -> Outcome {
    let count: u64 = args.required("--count");
    let users: u64 = args.get("--users");
    let items: u64 = args.get("--items");
    if users == 0 || items == 0 {
        args.refuse("ingest needs --users and --items ≥ 1");
    }
    // Campaign mode: the payload stream comes from a seeded fraud campaign
    // confined to the --users/--items id space instead of the bland
    // seq-derived reviews — still a pure function of the flags, so replays
    // dedup the same way.
    let campaign_stream = match args.opt::<String>("--campaign") {
        None => None,
        Some(name) => {
            let family =
                AttackFamily::parse(&name).ok_or_else(|| format!("unknown attack family `{name}`"))?;
            let campaign = AttackCampaign::new(family, 0.0, args.get("--attack-seed"));
            Some(campaign.stream(users as usize, items as usize, count as usize))
        }
    };
    let seq_start: u64 = args.get("--seq-start");
    let (fleet, _) = routed_fleet(&args, client_config(&args), &[])?;

    // Every field below is a pure function of the seq (or of the seeded
    // campaign), so re-running the same command line replays byte-identical
    // reviews — the durable unit the server's dedup needs for exactly-once
    // drills.
    let (mut fresh, mut dup, mut failed) = (0u64, 0u64, 0u64);
    for k in 0..count {
        let seq = seq_start + k;
        let req = match &campaign_stream {
            Some(stream) => {
                let r = &stream[k as usize];
                Request::ingest_review(seq, r.user.0, r.item.0, r.rating, r.text.clone(), r.timestamp)
            }
            None => Request::ingest_review(
                seq,
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
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Sends one admin request and returns the `ok` response, or the refusal
/// as an operational failure naming `what`.
fn admin_request(args: &Args, what: &str, req: Request) -> Result<Response, String> {
    let (fleet, _) = routed_fleet(args, client_config(args), &[])?;
    let outcome = fleet.request(req);
    fleet.shutdown();
    match outcome {
        Ok(resp) if resp.ok => Ok(resp),
        Ok(resp) => Err(format!("{what} refused: {:?}: {:?}", resp.kind, resp.error)),
        Err(e) => Err(format!("{what} failed: {e}")),
    }
}

fn cmd_compact(args: Args) -> Outcome {
    match admin_request(&args, "compact", Request::compact())?.compaction {
        Some(c) => println!("compacted folded={} generation={}", c.folded, c.generation),
        None => println!("compacted (no fold payload reported)"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_promote(args: Args) -> Outcome {
    let epoch: u64 = args.required("--epoch");
    let peers = args.list("--peers").unwrap_or_default();
    let resp = admin_request(&args, "promote", Request::promote(epoch, peers))?;
    println!("promoted epoch={}", resp.epoch.unwrap_or(epoch));
    Ok(ExitCode::SUCCESS)
}

fn cmd_oneshot(args: Args) -> Outcome {
    let [dir, line] = args.positionals("<dir> <json-line>");
    let artifact = ModelArtifact::load(dir).map_err(|e| format!("failed to load artifact `{dir}`: {e}"))?;
    let engine = Engine::new(
        artifact,
        EngineConfig { workers: 1, max_wait: Duration::ZERO, ..EngineConfig::default() },
    );
    let response = engine.submit_line(line);
    println!("{}", encode_response(&response));
    engine.shutdown();
    Ok(if response.ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cmd_burst(args: Args) -> Outcome {
    if !args.has("--replicas") && !args.has("--shard-map") {
        args.refuse("burst needs --replicas a,b,c or --shard-map FILE");
    }
    let requests: usize = args.get("--requests");
    let gap_ms: u64 = args.get("--gap-ms");
    let users: u32 = args.get("--users");
    let items: u32 = args.get("--items");
    let recommend_k: usize = args.get("--recommend-k");
    let probe_ms: u64 = args.get("--probe-interval-ms");
    if users == 0 || items == 0 {
        args.refuse("burst needs --users and --items ≥ 1");
    }
    let cfg = ClientConfig {
        probe_interval: (probe_ms > 0).then(|| Duration::from_millis(probe_ms)),
        ..client_config(&args)
    };
    let (fleet, _) = routed_fleet(&args, cfg, &[])?;

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

    let report = |shard: &str, r: &rrre_client::ReplicaSnapshot| {
        println!(
            "{shard}replica {} attempts={} failures={} breaker_opens={} breaker_open={} probe_ready={}",
            r.addr, r.attempts, r.failures, r.breaker_opens, r.breaker_open, r.probe_ready
        );
    };
    let (shard_count, retries) = match &fleet {
        Fleet::Flat(client) => {
            let snap = client.snapshot();
            snap.replicas.iter().for_each(|r| report("", r));
            (1, snap.retries)
        }
        Fleet::Sharded(client) => {
            let snap = client.snapshot();
            let mut retries = 0u64;
            for (shard, s) in snap.shards.iter().enumerate() {
                retries += s.retries;
                s.replicas.iter().for_each(|r| report(&format!("shard {shard} "), r));
            }
            println!(
                "scatter fanout={} degraded_responses={}",
                snap.scatter_fanout, snap.degraded_responses
            );
            // Each shard's *server-side* counters, queried point-to-point
            // so the scatter-merge doesn't collapse them into one total:
            // scatter_fanout says how much gather traffic the shard served,
            // cross_shard_rejects says how much traffic was misrouted to it.
            for shard in 0..snap.shards.len() as u32 {
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
            (snap.shards.len(), retries)
        }
    };

    println!(
        "burst shards={shard_count} requests={requests} ok={ok} failed={failed} \
         degraded={degraded} p50_ms={p50:.2} p99_ms={p99:.2} retries={retries}"
    );
    fleet.shutdown();
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
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
