//! The request engine: a supervised worker pool over a bounded micro-batch
//! queue, serving generation-swapped artifacts.
//!
//! Request flow: `submit` claims a slot in the bounded queue (refusing with
//! a structured `overloaded` response when full, or `unavailable` while the
//! panic circuit breaker is open), wraps the request in a [`Job`] with a
//! private reply channel, and pushes it onto the queue; a worker drains a
//! batch, answers each job against the *current generation*, and sends the
//! responses back.
//!
//! **Generations.** The serving state — artifact plus its tower caches —
//! lives in an `Arc<Generation>` behind an `RwLock`. Workers take the read
//! lock only long enough to clone the `Arc`, so a hot reload
//! ([`Engine::reload`] or the `Reload` protocol verb) fully loads and
//! validates the *next* generation off to the side, then swaps the pointer:
//! in-flight requests finish on the generation they started on and no
//! request ever observes a torn or partially validated artifact. A failed
//! load leaves the current generation serving and only bumps the
//! `reload_failures` counter.
//!
//! **Supervision.** Each job runs under `catch_unwind`: a panic becomes a
//! structured `internal` error for that client, feeds the circuit breaker,
//! and backs the worker off briefly. If the breaker sees
//! `breaker_threshold` panics within `breaker_window`, `submit` answers
//! `unavailable` until the window slides past — clients get fast, honest
//! refusals instead of hung connections, and the breaker closes on its own.
//!
//! **The scoring seam.** The engine owns one per-pair scorer,
//! `predict_pair`: towers through the generation's caches, heads recomputed,
//! reliability gated by the cold-start prior. `Predict` is that scorer;
//! `Recommend` and `Explain` are validation plus one call into
//! [`rrre_core::recommend_with`] / [`rrre_core::explain_with`] with it, over
//! the shard's owned item slice and the model's review index, so the
//! ranking procedure is core's by construction. The scorer reproduces
//! `Rrre::predict` bit for bit (the same `infer_user_tower` /
//! `infer_item_tower` / `infer_heads` decomposition; `tests/parity_oracle.rs`
//! holds it to that), so with the prior off every answer equals a direct
//! `rrre_core` call.

use crate::artifact::{ModelArtifact, MANIFEST_FILE};
use crate::batch::{BatchConfig, BatchQueue, Completion, Job, QueuePermit};
use crate::cache::{CacheAxis, TowerCache};
use crate::replication::{self, AckLevel, QuorumError, Replication, ReplicationConfig};
use crate::stats::{EngineStats, FrontendStats, StatsSnapshot};
use crate::wal::{self, FsyncPolicy, IngestLedger, SeqSet, WalRecord, WalWriter};
use rrre_wire::{ErrorKind, HealthDto, Op, ReplRecordDto, Request, Response};
use rrre_core::{explain_with, recommend_with, ColdStartPrior, Prediction};
use rrre_shard::ShardMap;
use rrre_data::{ItemId, Label, Review, UserId};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// WAL directory name inside an ingest-enabled artifact directory.
pub const WAL_DIR: &str = "wal";

/// Engine sizing and fault-tolerance knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Maximum jobs per micro-batch.
    pub max_batch: usize,
    /// Batch collection window after the first job arrives.
    pub max_wait: Duration,
    /// Lock stripes per tower cache.
    pub cache_shards: usize,
    /// Maximum queued-but-unserved jobs before `submit` sheds with a
    /// structured `overloaded` response.
    pub queue_cap: usize,
    /// Worker panics within [`EngineConfig::breaker_window`] that trip the
    /// circuit breaker.
    pub breaker_threshold: usize,
    /// Sliding window the breaker counts panics over; it closes again once
    /// the panics age out.
    pub breaker_window: Duration,
    /// How long a worker sleeps after catching a panic before taking the
    /// next batch (damps crash loops from poison-pill request streams).
    pub panic_backoff: Duration,
    /// Accept the `Crash` protocol verb (deliberate worker panic) — for
    /// supervision drills and tests only. Defaults to off: production
    /// engines refuse the verb.
    pub fault_injection: bool,
    /// Which shard of the artifact's consistent-hash map this engine
    /// serves. `None` (the default) is the whole-model fallback: the
    /// engine answers for every entity, regardless of how many shards the
    /// manifest declares. `Some(s)` scopes the engine to shard `s` —
    /// requests for items another shard owns are refused with a structured
    /// `WrongShard`, and `Recommend` scores only the owned slice of the
    /// catalog (this engine's side of a scatter-gather fan-out).
    pub shard_id: Option<u32>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
            max_batch: 32,
            max_wait: Duration::from_millis(2),
            cache_shards: 16,
            queue_cap: 1024,
            breaker_threshold: 5,
            breaker_window: Duration::from_secs(10),
            panic_backoff: Duration::from_millis(10),
            fault_injection: false,
            shard_id: None,
        }
    }
}

/// Durable streaming-ingest knobs ([`Engine::open_with_ingest`]).
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// When appended records reach the platter. [`FsyncPolicy::EveryRecord`]
    /// (the default) makes every ack a durability promise;
    /// [`FsyncPolicy::Batched`] is relaxed — the WAL tests and the
    /// benchmark's no-sync append probe construct it, no CLI flag does.
    pub fsync: FsyncPolicy,
    /// Auto-refresh the serving towers once this many accepted records are
    /// pending. `1` (the default) folds every review in before its ack
    /// returns; `0` disables auto-refresh entirely — only
    /// [`Engine::refresh_now`] / [`Engine::compact_now`] fold.
    pub refresh_every: usize,
    /// Entity pairs where either side has fewer than this many reviews get
    /// the calibrated cold-start reliability prior instead of the
    /// reliability head's score ([`ColdStartPrior`]). `0` (the default)
    /// disables the prior.
    pub cold_start_min: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 4 << 20,
            fsync: FsyncPolicy::EveryRecord,
            refresh_every: 1,
            cold_start_min: 0,
        }
    }
}

/// Mutable ingest bookkeeping, all under one lock so the WAL's append
/// order and the dedup set can never disagree.
struct IngestInner {
    wal: WalWriter,
    /// Every sequence id ever durably accepted: the compaction ledger's
    /// set, plus WAL replay, plus live appends. Membership ⇒ the review is
    /// (or will be) applied, so a resend acks `duplicate` without side
    /// effects.
    accepted: SeqSet,
    /// Accepted records not yet folded into the on-disk artifact, in WAL
    /// append order. Compaction drains a prefix of this.
    unfolded: Vec<WalRecord>,
    /// Prefix of `unfolded` already published into the serving towers.
    /// Reset to zero whenever the serving pointer is replaced by a
    /// *loaded* generation (reload/compaction), which reflects only the
    /// on-disk dataset.
    refreshed: usize,
    /// The durable compaction ledger as of the last committed fold.
    ledger: IngestLedger,
}

/// The engine's ingest half: WAL, dedup state and the maintenance lock
/// that serializes refreshes with compactions.
struct IngestState {
    cfg: IngestConfig,
    wal_dir: PathBuf,
    inner: Mutex<IngestInner>,
    /// Held across a whole refresh or compaction. Lock order:
    /// `maintenance` → `inner` → `current` (write); never acquire left
    /// after right.
    maintenance: Mutex<()>,
}

/// One immutable serving state: an artifact and the tower caches built
/// against it. Swapped wholesale on reload — caches never outlive the
/// weights they were computed from.
pub struct Generation {
    /// Monotonic generation number (the first load is generation 1).
    pub id: u64,
    /// The artifact this generation serves.
    pub artifact: ModelArtifact,
    /// The consistent-hash map built from the manifest's shard spec. Kept
    /// on the generation so the map version swaps atomically with the
    /// weights on reload — ownership decisions and the data they are made
    /// over can never disagree.
    pub shard_map: ShardMap,
    /// The calibrated cold-start reliability prior, when the engine was
    /// opened with [`IngestConfig::cold_start_min`] `> 0`. Thin pairs get
    /// its reliability instead of the head score.
    pub prior: Option<ColdStartPrior>,
    pub(crate) user_cache: TowerCache,
    pub(crate) item_cache: TowerCache,
}

impl Generation {
    /// A generation over `artifact` with empty tower caches and, when
    /// `cold_start_min > 0`, the prior calibrated on the artifact's dataset.
    fn new(
        id: u64,
        artifact: ModelArtifact,
        shard_map: ShardMap,
        cache_shards: usize,
        cold_start_min: usize,
    ) -> Self {
        let prior = (cold_start_min > 0)
            .then(|| ColdStartPrior::calibrate(&artifact.dataset, cold_start_min));
        Self {
            id,
            artifact,
            shard_map,
            prior,
            user_cache: TowerCache::new(CacheAxis::User, cache_shards),
            item_cache: TowerCache::new(CacheAxis::Item, cache_shards),
        }
    }
}

/// State shared between the engine handle and its workers.
struct Shared {
    current: RwLock<Arc<Generation>>,
    stats: EngineStats,
    /// Front-end (event loop) counters, held here so `Op::Stats` can
    /// report them; the TCP server updates them through
    /// [`Engine::frontend_stats`]. All zero on engines served without a
    /// front end.
    frontend: Arc<FrontendStats>,
    cfg: EngineConfig,
    queue_depth: Arc<AtomicUsize>,
    next_generation: AtomicU64,
    /// `Some` when the engine accepts `IngestReview`/`Compact`.
    ingest: Option<IngestState>,
    /// Timestamps of recent worker panics (pruned to `breaker_window`).
    breaker: Mutex<Vec<Instant>>,
    /// Set when the front end begins draining for shutdown: the engine
    /// keeps answering (in-flight and pipelined requests finish) but
    /// reports not-ready so health-aware clients route elsewhere.
    draining: AtomicBool,
    /// `Some` when this engine is one replica of a replicated shard
    /// ([`Engine::open_replicated`]): leader-term fencing, the replication
    /// log, shippers and quorum acks all hang off this.
    repl: Option<Arc<Replication>>,
}

impl Shared {
    /// Clones the current generation pointer (the only read-lock hold).
    fn generation(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    fn record_panic(&self) {
        let now = Instant::now();
        let mut panics = self.breaker.lock().unwrap_or_else(|e| e.into_inner());
        panics.push(now);
        let window = self.cfg.breaker_window;
        panics.retain(|&t| now.duration_since(t) <= window);
    }

    fn breaker_open(&self) -> bool {
        let now = Instant::now();
        let mut panics = self.breaker.lock().unwrap_or_else(|e| e.into_inner());
        let window = self.cfg.breaker_window;
        panics.retain(|&t| now.duration_since(t) <= window);
        panics.len() >= self.cfg.breaker_threshold
    }
}

/// A running inference engine. Cheap to share (`&Engine` is `Sync`);
/// dropped or explicitly [`Engine::shutdown`], it drains and joins its
/// workers.
pub struct Engine {
    shared: Arc<Shared>,
    tx: Mutex<Option<Sender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Engine {
    /// Spawns the worker pool over a loaded artifact.
    ///
    /// # Panics
    /// Panics if the artifact's model has no frozen cache (loads via
    /// [`ModelArtifact::load`] always do) or `cfg.workers == 0`.
    pub fn new(artifact: ModelArtifact, cfg: EngineConfig) -> Self {
        Self::build(artifact, cfg, None, None)
    }

    /// Opens an artifact directory for *durable streaming ingest*: rolls
    /// any interrupted compaction forward (or back) from its staging
    /// directory, loads the artifact, replays and repairs the WAL, then
    /// folds every replayed record back into the serving towers — exactly
    /// once, deduplicated against the compaction ledger. After this
    /// returns, every review whose ingest was ever acknowledged is visible
    /// to predictions again.
    ///
    /// Mid-log WAL corruption (a bytewise-complete record failing its CRC)
    /// fails the open closed with `InvalidData` — a torn tail from a crash
    /// is repaired, bit rot is never guessed over.
    pub fn open_with_ingest(
        dir: impl AsRef<Path>,
        cfg: EngineConfig,
        ingest: IngestConfig,
    ) -> io::Result<Self> {
        let dir = dir.as_ref();
        wal::recover_staging(dir, MANIFEST_FILE)?;
        let artifact = ModelArtifact::load(dir)?;
        Self::with_ingest(artifact, cfg, ingest)
    }

    /// [`Engine::open_with_ingest`] as one replica of a replicated shard:
    /// the WAL is shipped between replicas, ingest acks honour
    /// [`ReplicationConfig`]'s ack level, and leader terms fence stale
    /// traffic. The replication log is seeded from the same replay set the
    /// towers are, so positions line up across replicas that started from
    /// the same artifact.
    pub fn open_replicated(
        dir: impl AsRef<Path>,
        cfg: EngineConfig,
        ingest: IngestConfig,
        repl: ReplicationConfig,
    ) -> io::Result<Self> {
        let dir = dir.as_ref();
        wal::recover_staging(dir, MANIFEST_FILE)?;
        let artifact = ModelArtifact::load(dir)?;
        Self::with_ingest_impl(artifact, cfg, ingest, Some(repl))
    }

    /// [`Engine::new`] plus the durable ingest path (WAL, refresh,
    /// compaction) rooted at `artifact.source_dir`. Prefer
    /// [`Engine::open_with_ingest`] when opening from disk — it also
    /// completes an interrupted compaction *before* the load reads the
    /// manifest.
    pub fn with_ingest(
        artifact: ModelArtifact,
        cfg: EngineConfig,
        ingest: IngestConfig,
    ) -> io::Result<Self> {
        Self::with_ingest_impl(artifact, cfg, ingest, None)
    }

    fn with_ingest_impl(
        artifact: ModelArtifact,
        cfg: EngineConfig,
        ingest: IngestConfig,
        repl_cfg: Option<ReplicationConfig>,
    ) -> io::Result<Self> {
        let ledger = wal::load_ledger(&artifact.source_dir)?;
        let wal_dir = artifact.source_dir.join(WAL_DIR);
        let recovery = wal::replay_and_repair(&wal_dir)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        // Rebuild the accepted set: everything the ledger says is already
        // folded, plus everything still sitting in the WAL. Replayed
        // records the ledger already covers were folded by a committed
        // compaction — applying them again would double-count.
        let mut accepted = ledger.applied.clone();
        let mut unfolded = Vec::new();
        for rec in recovery.records {
            if accepted.insert(rec.seq) {
                unfolded.push(rec);
            }
        }
        let repl = match repl_cfg {
            Some(rc) => {
                let repl = Arc::new(Replication::open(&artifact.source_dir, rc)?);
                // Seed the replication log with the replayed-but-unfolded
                // records; everything the ledger already folded sits below
                // the log base and is no longer fetchable (a follower that
                // far behind needs an artifact resync, not shipping).
                repl.seed(unfolded.clone(), ledger.applied.len());
                Some(repl)
            }
            None => None,
        };
        let writer = WalWriter::open(&wal_dir, ingest.segment_bytes, ingest.fsync)?;
        let state = IngestState {
            cfg: ingest,
            wal_dir,
            inner: Mutex::new(IngestInner {
                wal: writer,
                accepted,
                unfolded,
                refreshed: 0,
                ledger,
            }),
            maintenance: Mutex::new(()),
        };
        let engine = Self::build(artifact, cfg, Some(state), repl.clone());
        engine.shared.stats.wal_bytes.store(recovery.bytes, Ordering::Relaxed);
        engine.shared.stats.wal_recoveries.store(recovery.truncated_tails, Ordering::Relaxed);
        // Replayed-but-unfolded records go straight back into the towers:
        // an acked review survives the crash *and* answers predictions
        // again before the first post-restart request is served.
        do_refresh(&engine.shared)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if let Some(repl) = repl {
            if repl.is_leader() {
                repl.spawn_shippers();
            }
            // The catch-up thread runs on every replicated engine but only
            // acts while the replica is a follower with a known leader; it
            // exits with `Replication::stop`.
            let shared = Arc::clone(&engine.shared);
            let handle = std::thread::Builder::new()
                .name("rrre-repl-catchup".into())
                .spawn(move || catchup_loop(&shared))
                .expect("failed to spawn replication catch-up thread");
            engine.workers.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
        }
        Ok(engine)
    }

    fn build(
        artifact: ModelArtifact,
        cfg: EngineConfig,
        ingest: Option<IngestState>,
        repl: Option<Arc<Replication>>,
    ) -> Self {
        assert!(cfg.workers >= 1, "Engine: need at least one worker");
        assert!(cfg.queue_cap >= 1, "Engine: queue_cap must be ≥ 1");
        assert!(cfg.breaker_threshold >= 1, "Engine: breaker_threshold must be ≥ 1");
        assert!(
            artifact.model.has_frozen_cache(),
            "Engine: artifact model is not frozen for inference"
        );
        let shard_map = ShardMap::new(artifact.manifest.shard_spec)
            .expect("Engine: artifact manifest carries an invalid shard spec");
        if let Some(shard) = cfg.shard_id {
            assert!(
                shard < shard_map.shards(),
                "Engine: shard_id {shard} out of range (artifact declares {} shards)",
                shard_map.shards()
            );
        }
        let cold_start_min = ingest.as_ref().map_or(0, |s| s.cfg.cold_start_min);
        let generation =
            Arc::new(Generation::new(1, artifact, shard_map, cfg.cache_shards, cold_start_min));
        let shared = Arc::new(Shared {
            current: RwLock::new(generation),
            stats: EngineStats::default(),
            frontend: Arc::new(FrontendStats::default()),
            cfg,
            queue_depth: Arc::new(AtomicUsize::new(0)),
            next_generation: AtomicU64::new(2),
            ingest,
            breaker: Mutex::new(Vec::new()),
            draining: AtomicBool::new(false),
            repl,
        });
        let (tx, queue) = BatchQueue::new(BatchConfig {
            max_batch: cfg.max_batch,
            max_wait: cfg.max_wait,
        });
        let queue = Arc::new(queue);
        let workers = (0..cfg.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("rrre-serve-worker-{w}"))
                    .spawn(move || supervised_worker(&shared, &queue))
                    .expect("failed to spawn engine worker")
            })
            .collect();
        Self { shared, tx: Mutex::new(Some(tx)), workers: Mutex::new(workers) }
    }

    /// Submits one request and blocks for its response. Never hangs: a full
    /// queue sheds immediately, an open breaker refuses immediately, and a
    /// worker panic mid-request still produces a structured reply.
    pub fn submit(&self, request: Request) -> Response {
        let id = request.id;
        let (reply_tx, reply_rx) = mpsc::channel();
        self.submit_async(request, move |response| {
            let _ = reply_tx.send(response);
        });
        reply_rx
            .recv()
            .unwrap_or_else(|_| Response::internal(id, "engine dropped the request"))
    }

    /// Submits one request without blocking: `complete` fires exactly once
    /// with the response — immediately on the calling thread for refusals
    /// (breaker open, queue full, shutdown) and the inline `Health`
    /// answer, or on a worker thread otherwise. This is the event loop's
    /// path: thousands of in-flight requests without a parked thread each.
    pub fn submit_async(&self, request: Request, complete: impl FnOnce(Response) + Send + 'static) {
        let id = request.id;
        self.submit_with(request, Completion::new(Box::new(complete), id));
    }

    /// The non-generic body of [`Engine::submit_async`]:
    /// shed/breaker/health interception, then the bounded queue.
    fn submit_with(&self, request: Request, completion: Completion) {
        let id = request.id;
        // Health bypasses the queue, the shed gate and the breaker: a
        // replica must stay observable precisely when it is refusing
        // work, and the answer is a handful of atomic loads.
        if request.op == Op::Health {
            let mut resp = Response::ok(id);
            let health = self.health();
            resp.generation = Some(health.generation);
            resp.health = Some(health);
            completion.complete(resp);
            return;
        }
        if self.shared.breaker_open() {
            self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            completion.complete(Response::unavailable(
                id,
                "circuit breaker open after repeated worker panics, retry with backoff",
            ));
            return;
        }
        let Some(permit) = QueuePermit::acquire(&self.shared.queue_depth, self.shared.cfg.queue_cap)
        else {
            self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            completion.complete(Response::overloaded(id));
            return;
        };
        let guard = self.tx.lock().unwrap_or_else(|e| e.into_inner());
        match guard.as_ref() {
            Some(tx) => {
                if let Err(refused) = tx.send(Job::with_permit(request, completion, permit)) {
                    // The queue disconnected under us; the job comes back
                    // whole, so answer it honestly (dropping the permit
                    // with the rest of the job).
                    let Job { reply, .. } = refused.0;
                    reply.complete(Response::unavailable(id, "engine is shut down"));
                }
            }
            None => {
                drop(permit);
                completion.complete(Response::unavailable(id, "engine is shut down"));
            }
        }
    }

    /// Parses one protocol line and submits it; parse failures become
    /// error responses rather than dropped connections.
    pub fn submit_line(&self, line: &str) -> Response {
        match rrre_wire::decode_request(line) {
            Ok(req) => self.submit(req),
            // Even an undecodable request should correlate its error when
            // possible: pipelining clients match replies by id, and a
            // `null`-id error desynchronises their whole window.
            Err(e) => Response::error_kind(
                rrre_wire::extract_id(line),
                ErrorKind::BadRequest,
                e,
            ),
        }
    }

    /// [`Engine::submit_line`] for the nonblocking path: parse failures
    /// complete immediately on the calling thread with the same structured
    /// `BadRequest` (and best-effort id recovery) the blocking path
    /// produces.
    pub fn submit_line_async(&self, line: &str, complete: impl FnOnce(Response) + Send + 'static) {
        match rrre_wire::decode_request(line) {
            Ok(req) => self.submit_async(req, complete),
            Err(e) => complete(Response::error_kind(
                rrre_wire::extract_id(line),
                ErrorKind::BadRequest,
                e,
            )),
        }
    }

    /// The front-end counter block shared with the TCP server (the event
    /// loop updates it; `Op::Stats` reads it).
    pub fn frontend_stats(&self) -> Arc<FrontendStats> {
        Arc::clone(&self.shared.frontend)
    }

    /// The liveness/readiness split (also served by `Op::Health`): ready
    /// means not draining and breaker closed, with a validated generation
    /// loaded. A *failed* reload never clears readiness — the previous
    /// generation keeps serving unimpaired.
    pub fn health(&self) -> HealthDto {
        let draining = self.shared.draining.load(Ordering::SeqCst);
        let breaker_open = self.shared.breaker_open();
        HealthDto {
            live: true,
            ready: !draining && !breaker_open,
            draining,
            breaker_open,
            generation: self.shared.generation().id,
        }
    }

    /// Marks the engine as draining (or not). Set by the TCP front end
    /// when shutdown begins so health probes steer traffic away before
    /// the listener disappears.
    pub fn set_draining(&self, draining: bool) {
        self.shared.draining.store(draining, Ordering::SeqCst);
    }

    /// Point-in-time engine counters (also served by `Op::Stats`).
    pub fn stats(&self) -> StatsSnapshot {
        snapshot(&self.shared)
    }

    /// The generation currently serving (artifact + caches). In-flight
    /// requests may still be finishing on an older generation for a moment
    /// after a reload.
    pub fn generation(&self) -> Arc<Generation> {
        self.shared.generation()
    }

    /// Re-loads the artifact from the directory the current generation was
    /// loaded from and atomically swaps it in. The load runs to completion
    /// — checksums, manifest cross-checks, model restore — before the swap,
    /// so a corrupt artifact on disk never serves; the old generation keeps
    /// serving and the error is returned (and counted in
    /// `reload_failures`).
    pub fn reload(&self) -> Result<u64, String> {
        do_reload(&self.shared)
    }

    /// Whether this engine accepts `IngestReview`/`Compact` (opened via
    /// [`Engine::open_with_ingest`]).
    pub fn ingest_enabled(&self) -> bool {
        self.shared.ingest.is_some()
    }

    /// The replication state, when this engine was opened via
    /// [`Engine::open_replicated`].
    pub fn replication(&self) -> Option<Arc<Replication>> {
        self.shared.repl.clone()
    }

    /// Synchronously folds every accepted-but-unapplied WAL record into
    /// the serving towers: a frozen-encoder incremental refresh that
    /// re-encodes only the new reviews and republishes under the *same*
    /// generation id. Returns how many records were applied (`0` when the
    /// towers are already current). Errors when ingest is not enabled.
    pub fn refresh_now(&self) -> Result<usize, String> {
        do_refresh(&self.shared)
    }

    /// Synchronously compacts the WAL into a new artifact generation:
    /// stages the folded dataset beside the artifact directory, seals it
    /// with a fsync'd `COMMIT` marker, promotes it atomically (manifest
    /// last), hot-reloads, then truncates the folded segments. Crash-safe
    /// at every step — recovery either completes or undoes the fold.
    /// Returns `(records folded, serving generation id)`.
    pub fn compact_now(&self) -> Result<(u64, u64), String> {
        do_compact(&self.shared)
    }

    /// Graceful shutdown: stop accepting, let queued jobs finish, join the
    /// workers. Idempotent; `Drop` calls it too.
    pub fn shutdown(&self) {
        // Replication threads (shippers, catch-up) park on condvars and
        // sleeps; stop them first so the join below cannot hang.
        if let Some(repl) = self.shared.repl.as_deref() {
            repl.stop();
        }
        drop(self.tx.lock().unwrap_or_else(|e| e.into_inner()).take());
        let workers =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in workers {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Loads the next generation off to the side and swaps it in, or keeps the
/// current one on any failure. Shared by [`Engine::reload`] and the
/// `Reload` protocol verb.
fn do_reload(shared: &Shared) -> Result<u64, String> {
    shared.stats.reloads.fetch_add(1, Ordering::Relaxed);
    let (dir, current_id, current_map_version) = {
        let current = shared.generation();
        (current.artifact.source_dir.clone(), current.id, current.shard_map.version())
    };
    // Full staging-area validation: `ModelArtifact::load` verifies every
    // checksum and cross-check before we ever touch the serving pointer.
    match ModelArtifact::load(&dir) {
        Ok(artifact) => {
            // The reloaded manifest may carry a *new* shard spec (topology
            // change shipped with the weights); this engine must still be a
            // member of it, or the old generation keeps serving.
            let shard_map = match ShardMap::new(artifact.manifest.shard_spec) {
                Ok(map) => map,
                Err(e) => {
                    shared.stats.reload_failures.fetch_add(1, Ordering::Relaxed);
                    return Err(format!(
                        "reload from {} failed (bad shard spec: {e}); generation {current_id} \
                         keeps serving",
                        dir.display()
                    ));
                }
            };
            if let Some(shard) = shared.cfg.shard_id {
                if shard >= shard_map.shards() {
                    shared.stats.reload_failures.fetch_add(1, Ordering::Relaxed);
                    return Err(format!(
                        "reload from {} failed (this engine serves shard {shard} but the new \
                         manifest declares only {} shards); generation {current_id} keeps serving",
                        dir.display(),
                        shard_map.shards()
                    ));
                }
            }
            // The map version is the fleet's topology clock: clients and
            // the scatter-gather tier treat a higher version as newer, so
            // a manifest whose version goes *backwards* (a stale artifact
            // restored over a newer one) must never start serving — it
            // would make every current client look "from the future".
            if shard_map.version() < current_map_version {
                shared.stats.reload_failures.fetch_add(1, Ordering::Relaxed);
                return Err(format!(
                    "reload from {} refused: manifest shard-map version {} is behind the \
                     serving version {current_map_version} (topology versions must never \
                     roll backwards); generation {current_id} keeps serving",
                    dir.display(),
                    shard_map.version()
                ));
            }
            let id = shared.next_generation.fetch_add(1, Ordering::Relaxed);
            let cold_start_min = shared.ingest.as_ref().map_or(0, |s| s.cfg.cold_start_min);
            let generation =
                Generation::new(id, artifact, shard_map, shared.cfg.cache_shards, cold_start_min);
            publish_loaded(shared, Arc::new(generation));
            Ok(id)
        }
        Err(e) => {
            shared.stats.reload_failures.fetch_add(1, Ordering::Relaxed);
            Err(format!(
                "reload from {} failed ({e}); generation {current_id} keeps serving",
                dir.display()
            ))
        }
    }
}

/// Swaps the serving pointer to a generation *loaded from disk*. When
/// ingest is enabled, the swap and the refresh low-water mark move
/// together (lock order: ingest `inner` → `current`): a loaded generation
/// reflects only the on-disk dataset, so every un-compacted WAL record
/// must be re-applied by the next refresh.
fn publish_loaded(shared: &Shared, generation: Arc<Generation>) {
    let mut inner_guard = shared
        .ingest
        .as_ref()
        .map(|s| s.inner.lock().unwrap_or_else(|e| e.into_inner()));
    *shared.current.write().unwrap_or_else(|e| e.into_inner()) = generation;
    if let Some(inner) = inner_guard.as_deref_mut() {
        inner.refreshed = 0;
    }
}

/// [`Engine::refresh_now`] behind the maintenance lock.
fn do_refresh(shared: &Shared) -> Result<usize, String> {
    let state =
        shared.ingest.as_ref().ok_or("ingest is not enabled on this engine")?;
    let _serialize = state.maintenance.lock().unwrap_or_else(|e| e.into_inner());
    refresh_locked(shared, state)
}

/// Folds every accepted-but-unapplied WAL record into a copy-on-write
/// clone of the current generation and republishes it under the *same*
/// generation id. The encoder stays frozen: each new review is encoded
/// with the exact per-review path a full re-encode would take, so the
/// refreshed towers are bit-identical to rebuilding from scratch. Caller
/// holds the maintenance lock.
fn refresh_locked(shared: &Shared, state: &IngestState) -> Result<usize, String> {
    loop {
        let (batch, start) = {
            let inner = state.inner.lock().unwrap_or_else(|e| e.into_inner());
            (inner.unfolded[inner.refreshed..].to_vec(), inner.refreshed)
        };
        if batch.is_empty() {
            return Ok(0);
        }
        let base = shared.generation();
        let disk_len = base.artifact.manifest.n_reviews;
        if base.artifact.dataset.len() != disk_len + start {
            return Err(format!(
                "refresh invariant broken: serving dataset has {} reviews, expected {disk_len} \
                 on-disk + {start} refreshed",
                base.artifact.dataset.len()
            ));
        }
        let mut dataset = base.artifact.dataset.clone();
        let mut corpus = base.artifact.corpus.clone();
        let mut model = base.artifact.model.clone();
        let first_new = dataset.len();
        for rec in &batch {
            dataset.append_review(Review {
                user: UserId(rec.user),
                item: ItemId(rec.item),
                rating: rec.rating,
                // Ground truth is unknowable at ingest time; labels only
                // matter to a future training run over the folded dataset,
                // and the cold-start prior covers the reliability
                // uncertainty until then.
                label: Label::Benign,
                timestamp: rec.ts,
                text: rec.text.clone(),
            })?;
            corpus.append_doc(&rec.text);
        }
        model.refresh_towers(&dataset, &corpus, first_new)?;
        let artifact = ModelArtifact {
            manifest: base.artifact.manifest.clone(),
            dataset,
            corpus,
            model,
            source_dir: base.artifact.source_dir.clone(),
        };
        // Same id: a refresh updates towers in place, it is not a
        // generation swap — clients see no reload. Fresh caches =
        // conservative entity invalidation. The touched entities' towers
        // changed; a cache *shared* with the old generation could be
        // repopulated with stale towers by in-flight jobs still pinned to
        // it. Untouched entries recompute to bit-identical values on their
        // next request.
        let generation = Arc::new(Generation::new(
            base.id,
            artifact,
            base.shard_map.clone(),
            shared.cfg.cache_shards,
            state.cfg.cold_start_min,
        ));
        {
            let mut inner = state.inner.lock().unwrap_or_else(|e| e.into_inner());
            let mut cur = shared.current.write().unwrap_or_else(|e| e.into_inner());
            if !Arc::ptr_eq(&*cur, &base) {
                // A reload swapped the pointer while we encoded; the clone
                // is stale. Re-read the low-water mark and redo the fold.
                continue;
            }
            *cur = generation;
            inner.refreshed = start + batch.len();
        }
        shared.stats.refreshes.fetch_add(1, Ordering::Relaxed);
        return Ok(batch.len());
    }
}

/// [`Engine::compact_now`]: fold the WAL into a new artifact generation
/// via the two-phase staging protocol, reload, truncate folded segments.
fn do_compact(shared: &Shared) -> Result<(u64, u64), String> {
    let state =
        shared.ingest.as_ref().ok_or("ingest is not enabled on this engine")?;
    let _serialize = state.maintenance.lock().unwrap_or_else(|e| e.into_inner());

    // Snapshot under the ingest lock: rotate first so every snapshotted
    // record lives in a segment below the new watermark; appends arriving
    // after the rotation land in the fresh segment and simply miss this
    // compaction.
    let (snapshot, watermark, mut ledger) = {
        let mut inner = state.inner.lock().unwrap_or_else(|e| e.into_inner());
        let watermark =
            inner.wal.rotate().map_err(|e| format!("wal rotate failed: {e}"))?;
        (inner.unfolded.clone(), watermark, inner.ledger.clone())
    };
    if snapshot.is_empty() {
        return Ok((0, shared.generation().id));
    }
    let base = shared.generation();
    let manifest = &base.artifact.manifest;
    let disk_len = manifest.n_reviews;
    // The fold set is on-disk reviews + the whole snapshot; the serving
    // dataset may already include a *refreshed* prefix of the snapshot, so
    // truncate back to the durable base before re-appending.
    let mut dataset = base.artifact.dataset.clone();
    dataset.reviews.truncate(disk_len);
    let mut corpus = base.artifact.corpus.clone();
    corpus.docs.truncate(disk_len);
    for rec in &snapshot {
        dataset
            .append_review(Review {
                user: UserId(rec.user),
                item: ItemId(rec.item),
                rating: rec.rating,
                label: Label::Benign,
                timestamp: rec.ts,
                text: rec.text.clone(),
            })
            .map_err(|e| format!("compaction fold failed: {e}"))?;
        corpus.append_doc(&rec.text);
    }

    // Phase one: stage the folded artifact plus its ledger beside the
    // artifact directory, then seal with a fsync'd COMMIT marker. Nothing
    // under the serving directory moves until the fold is fully decided.
    let staging = wal::staging_dir(&base.artifact.source_dir);
    let _ = std::fs::remove_dir_all(&staging); // stale uncommitted attempt
    ModelArtifact::save_pinned(
        &staging,
        &dataset,
        &corpus,
        &base.artifact.model,
        manifest.min_count,
        manifest.shard_spec,
        manifest.vocab_reviews,
    )
    .map_err(|e| format!("compaction stage failed: {e}"))?;
    for rec in &snapshot {
        ledger.applied.insert(rec.seq);
    }
    ledger.segment_watermark = watermark;
    wal::save_ledger(&staging, &ledger)
        .map_err(|e| format!("compaction ledger write failed: {e}"))?;
    wal::seal_staging(&staging).map_err(|e| format!("compaction seal failed: {e}"))?;

    // Phase two: promote (manifest last) and hot-reload. A crash anywhere
    // in here is rolled forward by `recover_staging` on the next open —
    // the COMMIT marker has decided the fold.
    wal::promote_staging(&base.artifact.source_dir, MANIFEST_FILE)
        .map_err(|e| format!("compaction promote failed: {e}"))?;
    let generation = do_reload(shared)?;
    {
        let mut inner = state.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.unfolded.drain(..snapshot.len());
        inner.refreshed = 0;
        inner.ledger = ledger;
        // The folded prefix leaves the in-memory replication log too (lock
        // order ingest `inner` → repl, matching the append paths; the log
        // and `unfolded` grow in lockstep, so the drained prefixes match).
        // `base` advances by the same amount, keeping every replica's
        // absolute position — and the followers' acked watermarks — intact;
        // positions below the new base are no longer fetchable, and
        // shippers already park on a follower that far behind (it needs an
        // artifact resync, not shipping).
        if let Some(repl) = shared.repl.as_deref() {
            let mut rinner = repl.lock();
            rinner.log.drain(..snapshot.len());
            rinner.base += snapshot.len() as u64;
        }
    }
    // Folded segments are garbage: their records live in the artifact and
    // the ledger remembers their seq ids. Best-effort — leftovers replay
    // harmlessly through the ledger dedup.
    let _ = wal::remove_segments_below(&state.wal_dir, watermark);
    let on_disk: u64 = wal::list_segments(&state.wal_dir)
        .map(|segs| {
            segs.iter()
                .filter_map(|(_, p)| std::fs::metadata(p).ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    shared.stats.wal_bytes.store(on_disk, Ordering::Relaxed);
    shared.stats.compactions.fetch_add(1, Ordering::Relaxed);
    // Records that arrived mid-fold go back into the towers immediately.
    refresh_locked(shared, state)?;
    Ok((snapshot.len() as u64, generation))
}

fn snapshot(shared: &Shared) -> StatsSnapshot {
    // The replication gauges live on the replication state; fold them into
    // the atomic block here so one snapshot call reads everything.
    if let Some(repl) = shared.repl.as_deref() {
        let (epoch, count, lag) = repl.stats();
        shared.stats.epoch.store(epoch, Ordering::Relaxed);
        shared.stats.replicated_seq.store(count, Ordering::Relaxed);
        shared.stats.replication_lag.store(lag, Ordering::Relaxed);
    }
    let generation = shared.generation();
    shared.stats.snapshot(
        &generation.user_cache,
        &generation.item_cache,
        generation.id,
        shared.breaker_open(),
        shared.draining.load(Ordering::SeqCst),
        shared.cfg.shard_id,
        &shared.frontend,
    )
}

/// Applies a contiguous run of replicated records starting at log position
/// `from` — the shared core of the `Replicate` push path and follower
/// catch-up. Re-delivery is idempotent twice over: positions at or below
/// the local count are skipped wholesale, and a skipped-position record
/// whose seq is nonetheless already in the dedup set is a *divergence*
/// (same position, different history) that fails closed rather than
/// guessing. Returns the new durable count.
fn apply_replicated(shared: &Shared, from: u64, records: &[ReplRecordDto]) -> Result<u64, String> {
    let state = shared.ingest.as_ref().ok_or("ingest is not enabled on this engine")?;
    let repl = shared.repl.as_deref().ok_or("replication is not enabled on this engine")?;
    let (new_count, pending) = {
        // Lock order: ingest `inner` → `repl` inner, same as the leader's
        // append path, so WAL order and log order can never disagree.
        let mut inner = state.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut rinner = repl.lock();
        let count = rinner.count();
        if from > count {
            // A gap: the leader is shipping ahead of us. Don't apply —
            // reporting our (unchanged) count makes the leader rewind.
            return Ok(count);
        }
        let skip = (count - from) as usize;
        for dto in records.iter().skip(skip) {
            if !dto.verify() {
                return Err(format!("replicated record seq {} failed its CRC in transit", dto.seq));
            }
            if inner.accepted.contains(dto.seq) {
                // This position is new but the seq is not: the replicas'
                // histories disagree. Applying would double-count and
                // silently fork the shard — refuse instead.
                return Err(format!(
                    "replication divergence: seq {} already applied at an earlier position; \
                     this replica needs a resync",
                    dto.seq
                ));
            }
            let rec = WalRecord {
                seq: dto.seq,
                user: dto.user,
                item: dto.item,
                rating: dto.rating,
                ts: dto.ts,
                text: dto.text.clone(),
            };
            let bytes = inner.wal.append(&rec).map_err(|e| format!("wal append failed: {e}"))?;
            shared.stats.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
            inner.accepted.insert(dto.seq);
            inner.unfolded.push(rec.clone());
            rinner.log.push(rec);
        }
        (rinner.count(), inner.unfolded.len() - inner.refreshed)
    };
    repl.notify();
    if state.cfg.refresh_every > 0 && pending >= state.cfg.refresh_every {
        // Same contract as client ingest: durability is decided, a refresh
        // failure must not retract it.
        if let Err(e) = do_refresh(shared) {
            eprintln!("rrre-serve: deferred replication refresh failed: {e}");
        }
    }
    Ok(new_count)
}

/// Follower catch-up: pulls missing log positions from the last known
/// leader with `FetchWal` until level, then idles. Runs on every
/// replicated engine but no-ops while this replica is the leader. The push
/// path self-heals ongoing gaps; this loop exists for restart recovery,
/// when a follower may be arbitrarily far behind before the leader's
/// shipper even learns its address.
///
/// Every fetch is epoch-fenced end to end: the request carries this
/// replica's term, a stale serving replica (a deposed leader the hint
/// still names) refuses rather than hand out records its fenced term never
/// committed, and nothing from a response whose epoch is *below* ours is
/// ever applied. A higher response term is adopted (persisted) before the
/// records are — catch-up can move this replica's term forward, never let
/// a fenced log leak in.
fn catchup_loop(shared: &Arc<Shared>) {
    let Some(repl) = shared.repl.clone() else { return };
    let mut conn = None;
    let mut link_failures = 0u64;
    let idle = Duration::from_millis(200);
    loop {
        if repl.stopping() {
            return;
        }
        let (is_follower, hint, my_count, my_epoch) = {
            let inner = repl.lock();
            (!inner.leader, inner.leader_hint.clone(), inner.count(), inner.epoch)
        };
        let Some(addr) = hint.filter(|_| is_follower) else {
            std::thread::sleep(idle);
            continue;
        };
        let req = Request::fetch_wal(my_epoch, my_count, 16);
        match replication::exchange_on(&mut conn, &addr, &req, Duration::from_secs(2)) {
            Ok(resp) if resp.ok => {
                link_failures = 0;
                match resp.epoch {
                    Some(e) if e < my_epoch => {
                        // A replica still serving a term below ours — its
                        // log may contain fenced records. Never apply.
                        std::thread::sleep(idle);
                        continue;
                    }
                    Some(e) if e > my_epoch => {
                        // The leader moved terms; persist the new one
                        // before applying anything shipped under it.
                        if let Err(err) = repl.adopt_epoch(e, Some(addr.clone())) {
                            eprintln!(
                                "rrre-serve: catch-up failed to persist adopted epoch {e}: {err}"
                            );
                            std::thread::sleep(idle);
                            continue;
                        }
                    }
                    _ => {}
                }
                let records = resp.records.unwrap_or_default();
                if records.is_empty() {
                    std::thread::sleep(idle);
                    continue;
                }
                if let Err(e) = apply_replicated(shared, my_count, &records) {
                    eprintln!("rrre-serve: replication catch-up apply failed: {e}");
                    std::thread::sleep(idle);
                }
                // Applied a batch: loop straight back for the next range.
            }
            Ok(resp) => {
                link_failures = 0;
                // `StaleEpoch` with a higher term means *we* were behind
                // (a new leader we had not heard of): adopt it so the next
                // fetch passes the fence. A lower term means the hint
                // still names a fenced replica — do nothing and wait for
                // the real leader's traffic to refresh the hint. Other
                // refusals (e.g. compacted below our position) just back
                // off.
                if resp.kind == Some(ErrorKind::StaleEpoch) {
                    if let Some(e) = resp.epoch.filter(|&e| e > my_epoch) {
                        if let Err(err) = repl.adopt_epoch(e, None) {
                            eprintln!(
                                "rrre-serve: catch-up failed to persist adopted epoch {e}: {err}"
                            );
                        }
                    }
                }
                std::thread::sleep(idle);
            }
            Err(e) => {
                replication::log_link_failure(&mut link_failures, "catch-up", &addr, &e);
                std::thread::sleep(idle);
            }
        }
    }
}

/// Outer supervision shell: respawns the worker loop if it ever panics
/// outside the per-job guard (queue bookkeeping, batch accounting). A clean
/// return means the queue disconnected — normal shutdown.
fn supervised_worker(shared: &Shared, queue: &BatchQueue) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(shared, queue))) {
            Ok(()) => break,
            Err(_) => {
                shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                shared.record_panic();
                std::thread::sleep(shared.cfg.panic_backoff);
            }
        }
    }
}

fn worker_loop(shared: &Shared, queue: &BatchQueue) {
    while let Some(batch) = queue.next_batch() {
        shared.stats.record_batch(batch.len());
        let mut panicked = false;
        for job in batch {
            // Pin the generation per job: a reload mid-batch must not mix
            // weights between jobs, let alone within one.
            let generation = shared.generation();
            let response =
                match catch_unwind(AssertUnwindSafe(|| process(shared, &generation, &job))) {
                    Ok(response) => response,
                    Err(_) => {
                        panicked = true;
                        shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                        shared.record_panic();
                        Response::internal(
                            job.request.id,
                            "worker panicked while processing this request",
                        )
                    }
                };
            shared.stats.latency.record(job.enqueued.elapsed());
            if !response.ok {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            }
            // Release the queue slot *before* replying: a client that has
            // seen its response must be able to resubmit immediately
            // without racing the permit drop for its own old slot.
            let Job { reply, permit, .. } = job;
            drop(permit);
            reply.complete(response);
        }
        if panicked {
            std::thread::sleep(shared.cfg.panic_backoff);
        }
    }
}

/// The cached frozen prediction: tower representations through the
/// generation's caches, heads recomputed (they depend on nothing cacheable
/// but the pair).
fn predict_pair(stats: &EngineStats, generation: &Generation, user: u32, item: u32) -> Prediction {
    let model = &generation.artifact.model;
    let (u, i) = (UserId(user), ItemId(item));
    let x_u = generation.user_cache.get_or_compute(user, item, || {
        stats.tower_evals.fetch_add(1, Ordering::Relaxed);
        model.infer_user_tower(u, i)
    });
    let y_i = generation.item_cache.get_or_compute(user, item, || {
        stats.tower_evals.fetch_add(1, Ordering::Relaxed);
        model.infer_item_tower(u, i)
    });
    let pred = model.infer_heads(u, i, &x_u, &y_i);
    match generation.prior {
        // Thin pairs (either side below the evidence threshold) get the
        // calibrated cold-start reliability instead of a head score the
        // model had almost no reviews to ground; the rating passes
        // through. Degrees come from the model's live index, which the
        // incremental refresh keeps current.
        Some(prior) => {
            let index = model.index();
            prior.gate(pred, index.user_degree(u), index.item_degree(i))
        }
        None => pred,
    }
}

fn require(field: Option<u32>, name: &str, bound: usize) -> Result<u32, String> {
    let v = field.ok_or_else(|| format!("missing required field `{name}`"))?;
    if (v as usize) < bound {
        Ok(v)
    } else {
        Err(format!("{name} {v} out of range (dataset has {bound})"))
    }
}

fn bad_request(id: Option<u64>, message: impl Into<String>) -> Response {
    Response::error_kind(id, ErrorKind::BadRequest, message)
}

/// Blocks an ingest ack on quorum durability of `target`, mapping each
/// failure to its structured refusal. A timeout is `Unavailable` — the
/// honest retryable: the record *is* durable here, and the retry's
/// duplicate path re-proves quorum.
fn await_quorum(id: Option<u64>, repl: &Replication, target: u64) -> Result<(), Response> {
    match repl.quorum_wait(target) {
        Ok(()) => Ok(()),
        Err(QuorumError::Deposed(hint)) => Err(Response::not_leader(id, hint)),
        Err(QuorumError::Timeout) => Err(Response::unavailable(
            id,
            "replication quorum not reached before the timeout; the record is durable on the \
             leader — retry with the same seq",
        )),
    }
}

/// Ownership gate for shard-scoped engines: `Err` carries the structured
/// `WrongShard` refusal (owner + map version, so a stale client can tell a
/// misroute from a topology change) when `item` belongs to another shard.
/// Whole-model engines (`shard_id: None`) own everything.
fn check_owned(
    shared: &Shared,
    generation: &Generation,
    id: Option<u64>,
    item: u32,
) -> Result<(), Response> {
    if let Some(shard) = shared.cfg.shard_id {
        let owner = generation.shard_map.shard_of_item(item);
        if owner != shard {
            shared.stats.cross_shard_rejects.fetch_add(1, Ordering::Relaxed);
            return Err(Response::wrong_shard(id, owner, generation.shard_map.version()));
        }
    }
    Ok(())
}

fn process(shared: &Shared, generation: &Generation, job: &Job) -> Response {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    let req = &job.request;

    if let Some(deadline_ms) = req.deadline_ms {
        // `>=` so a zero deadline is expired by definition — tests can
        // exercise the miss path without sleeping to outrun the clock.
        if job.enqueued.elapsed() >= Duration::from_millis(deadline_ms) {
            shared.stats.deadline_misses.fetch_add(1, Ordering::Relaxed);
            return Response::error_kind(
                req.id,
                ErrorKind::DeadlineExceeded,
                "deadline exceeded while queued",
            );
        }
    }

    let ds = &generation.artifact.dataset;
    let mut response = match req.op {
        Op::Predict => {
            let (user, item) = match (
                require(req.user, "user", ds.n_users),
                require(req.item, "item", ds.n_items),
            ) {
                (Ok(u), Ok(i)) => (u, i),
                (Err(e), _) | (_, Err(e)) => return bad_request(req.id, e),
            };
            if let Err(resp) = check_owned(shared, generation, req.id, item) {
                return resp;
            }
            let mut resp = Response::ok(req.id);
            resp.prediction = Some(predict_pair(&shared.stats, generation, user, item).into());
            resp
        }
        Op::Recommend => {
            let user = match require(req.user, "user", ds.n_users) {
                Ok(u) => u,
                Err(e) => return bad_request(req.id, e),
            };
            let k = match req.k {
                Some(k) if k > 0 => k,
                _ => return bad_request(req.id, "missing or zero field `k`"),
            };
            // A shard-scoped engine scores only the catalog slice it owns —
            // its side of a scatter-gather fan-out. The gather side re-runs
            // the same two-stage ordering over the union of slices, which
            // reproduces the whole-model answer bit for bit.
            if shared.cfg.shard_id.is_some() {
                shared.stats.scatter_fanout.fetch_add(1, Ordering::Relaxed);
            }
            let owned = (0..ds.n_items as u32)
                .filter(|&i| {
                    shared.cfg.shard_id.map_or(true, |s| generation.shard_map.owns_item(s, i))
                })
                .map(ItemId);
            let recs = recommend_with(ds, UserId(user), owned, k, |u, i| {
                predict_pair(&shared.stats, generation, u.0, i.0)
            });
            let mut resp = Response::ok(req.id);
            resp.recommendations = Some(recs.into_iter().map(Into::into).collect());
            resp
        }
        Op::Explain => {
            let item = match require(req.item, "item", ds.n_items) {
                Ok(i) => i,
                Err(e) => return bad_request(req.id, e),
            };
            if let Err(resp) = check_owned(shared, generation, req.id, item) {
                return resp;
            }
            let k = match req.k {
                Some(k) if k > 0 => k,
                _ => return bad_request(req.id, "missing or zero field `k`"),
            };
            let index = generation.artifact.model.index();
            let explanations = explain_with(ds, index, ItemId(item), k, |u, i| {
                predict_pair(&shared.stats, generation, u.0, i.0)
            });
            let mut resp = Response::ok(req.id);
            resp.explanations = Some(explanations.into_iter().map(Into::into).collect());
            resp
        }
        Op::Stats => {
            let mut resp = Response::ok(req.id);
            resp.stats = Some(snapshot(shared));
            resp
        }
        Op::Health => {
            // Normally intercepted in `submit` before queueing; answered
            // here too so a directly-processed job is never unreachable.
            let breaker_open = shared.breaker_open();
            let draining = shared.draining.load(Ordering::SeqCst);
            let mut resp = Response::ok(req.id);
            resp.health = Some(HealthDto {
                live: true,
                ready: !draining && !breaker_open,
                draining,
                breaker_open,
                generation: generation.id,
            });
            resp
        }
        Op::Invalidate => {
            if req.user.is_none() && req.item.is_none() {
                return bad_request(req.id, "Invalidate needs `user` and/or `item`");
            }
            // Item eviction is owner-scoped like any item op; user-only
            // eviction runs anywhere (every shard may cache that user's
            // tower for its own items, so clients broadcast it).
            if let Some(item) = req.item {
                if let Err(resp) = check_owned(shared, generation, req.id, item) {
                    return resp;
                }
            }
            let mut evicted = 0usize;
            if let Some(u) = req.user {
                evicted += generation.user_cache.invalidate(u);
            }
            if let Some(i) = req.item {
                evicted += generation.item_cache.invalidate(i);
            }
            let mut resp = Response::ok(req.id);
            resp.evicted = Some(evicted as u64);
            resp
        }
        Op::Reload => match do_reload(shared) {
            Ok(new_id) => {
                let mut resp = Response::ok(req.id);
                resp.generation = Some(new_id);
                return resp;
            }
            Err(e) => return Response::internal(req.id, e),
        },
        Op::IngestReview => {
            let Some(state) = shared.ingest.as_ref() else {
                return bad_request(
                    req.id,
                    "IngestReview needs an ingest-enabled engine (open_with_ingest)",
                );
            };
            // Replication fencing before any validation: a stale-term
            // client is refused outright, and only the acting leader ever
            // accepts a write (a follower redirects, a deposed leader
            // must never ack something the new term's quorum lacks).
            if let Some(repl) = shared.repl.as_deref() {
                let current = repl.current_epoch();
                if let Some(epoch) = req.epoch {
                    if epoch < current {
                        shared.stats.stale_epoch_rejections.fetch_add(1, Ordering::Relaxed);
                        return Response::stale_epoch(req.id, epoch, current);
                    }
                }
                if !repl.is_leader() {
                    return Response::not_leader(req.id, repl.leader_hint());
                }
            }
            let Some(seq) = req.seq else {
                return bad_request(req.id, "missing required field `seq`");
            };
            // Ingest stays inside the artifact's id space: the embedding
            // tables are sized at training time, so a brand-new entity
            // needs a retrain, not a WAL append.
            let (user, item) = match (
                require(req.user, "user", ds.n_users),
                require(req.item, "item", ds.n_items),
            ) {
                (Ok(u), Ok(i)) => (u, i),
                (Err(e), _) | (_, Err(e)) => return bad_request(req.id, e),
            };
            if let Err(resp) = check_owned(shared, generation, req.id, item) {
                return resp;
            }
            let rating = match req.rating {
                Some(r) if (1.0..=5.0).contains(&r) => r,
                Some(r) => return bad_request(req.id, format!("rating {r} outside [1, 5]")),
                None => return bad_request(req.id, "missing required field `rating`"),
            };
            let rec = WalRecord {
                seq,
                user,
                item,
                rating,
                ts: req.ts.unwrap_or(0),
                text: req.text.clone().unwrap_or_default(),
            };
            let mut inner = state.inner.lock().unwrap_or_else(|e| e.into_inner());
            if inner.accepted.contains(seq) {
                // Exactly-once: this seq was durably accepted before (the
                // ack may have been lost to a crash or timeout). Ack again
                // without re-applying anything — but at quorum ack level,
                // re-prove quorum durability of everything up to the
                // current count first: the original attempt may have timed
                // out precisely because followers were behind.
                shared.stats.ingest_duplicates.fetch_add(1, Ordering::Relaxed);
                let quorum_target =
                    shared.repl.as_deref().map(|repl| repl.lock().count());
                drop(inner);
                if let (Some(repl), Some(target)) =
                    (shared.repl.as_deref(), quorum_target)
                {
                    if repl.ack == AckLevel::Quorum {
                        if let Err(resp) = await_quorum(req.id, repl, target) {
                            return resp;
                        }
                    }
                }
                let mut resp = Response::ok(req.id);
                resp.ingest = Some(rrre_wire::IngestDto { seq, duplicate: true });
                resp
            } else {
                match inner.wal.append(&rec) {
                    Err(e) => {
                        // No ack without durability: the bytes may or may
                        // not have reached the platter, so the client must
                        // retry with the same seq and let dedup decide.
                        return Response::internal(
                            req.id,
                            format!("wal append failed: {e}; retry with the same seq"),
                        );
                    }
                    Ok(bytes) => {
                        shared.stats.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
                        shared.stats.ingested.fetch_add(1, Ordering::Relaxed);
                        inner.accepted.insert(seq);
                        // Push onto the replication log while still holding
                        // the ingest lock (lock order `inner` → repl), so
                        // log positions follow WAL append order exactly.
                        let quorum_target = shared.repl.as_deref().map(|repl| {
                            let mut rinner = repl.lock();
                            rinner.log.push(rec.clone());
                            rinner.count()
                        });
                        inner.unfolded.push(rec);
                        let pending = inner.unfolded.len() - inner.refreshed;
                        drop(inner);
                        if let Some(repl) = shared.repl.as_deref() {
                            // Wake the shippers for the fresh position.
                            repl.notify();
                        }
                        if state.cfg.refresh_every > 0 && pending >= state.cfg.refresh_every {
                            // Durability is already decided; a refresh
                            // failure must not retract the ack. The records
                            // stay pending for the next refresh/compaction.
                            if let Err(e) = do_refresh(shared) {
                                eprintln!("rrre-serve: deferred ingest refresh failed: {e}");
                            }
                        }
                        if let (Some(repl), Some(target)) =
                            (shared.repl.as_deref(), quorum_target)
                        {
                            if repl.ack == AckLevel::Quorum {
                                if let Err(resp) = await_quorum(req.id, repl, target) {
                                    return resp;
                                }
                            }
                        }
                        let mut resp = Response::ok(req.id);
                        resp.ingest =
                            Some(rrre_wire::IngestDto { seq, duplicate: false });
                        resp
                    }
                }
            }
        }
        Op::Compact => match do_compact(shared) {
            Ok((folded, new_generation)) => {
                let mut resp = Response::ok(req.id);
                resp.compaction = Some(rrre_wire::CompactionDto {
                    folded,
                    generation: new_generation,
                });
                // Stamp the *post*-compaction generation: the one this job
                // pinned is already obsolete.
                resp.generation = Some(new_generation);
                if let Some(shard) = shared.cfg.shard_id {
                    resp.shard = Some(shard);
                    resp.map_version = Some(generation.shard_map.version());
                }
                return resp;
            }
            Err(e) => return Response::internal(req.id, e),
        },
        Op::Replicate => {
            let Some(repl) = shared.repl.as_deref() else {
                return bad_request(
                    req.id,
                    "Replicate needs a replication-enabled engine (open_replicated)",
                );
            };
            let Some(epoch) = req.epoch else {
                return bad_request(req.id, "missing required field `epoch`");
            };
            let current = repl.current_epoch();
            if epoch < current {
                shared.stats.stale_epoch_rejections.fetch_add(1, Ordering::Relaxed);
                return Response::stale_epoch(req.id, epoch, current);
            }
            // peers[0] is the shipping leader's advertised address — the
            // redirect hint this follower hands to misrouted clients.
            let hint = req.peers.as_ref().and_then(|p| p.first().cloned());
            if epoch > current {
                // A higher term on the wire deposes any local leadership
                // and is persisted before a single record is applied.
                if let Err(e) = repl.adopt_epoch(epoch, hint) {
                    return Response::internal(
                        req.id,
                        format!("failed to persist adopted epoch {epoch}: {e}"),
                    );
                }
            } else {
                if repl.is_leader() {
                    // Two leaders sharing a term is a protocol violation,
                    // not something to paper over.
                    return Response::internal(
                        req.id,
                        format!("Replicate at epoch {epoch} reached the acting leader of that term"),
                    );
                }
                if let Some(hint) = hint {
                    repl.lock().leader_hint = Some(hint);
                }
            }
            let Some(from) = req.from else {
                return bad_request(req.id, "missing required field `from`");
            };
            let records = req.records.as_deref().unwrap_or(&[]);
            match apply_replicated(shared, from, records) {
                Ok(count) => {
                    let mut resp = Response::ok(req.id);
                    resp.replicated = Some(count);
                    resp.epoch = Some(repl.current_epoch());
                    return resp;
                }
                Err(e) => return Response::internal(req.id, e),
            }
        }
        Op::FetchWal => {
            let Some(repl) = shared.repl.as_deref() else {
                return bad_request(
                    req.id,
                    "FetchWal needs a replication-enabled engine (open_replicated)",
                );
            };
            // Fence the catch-up path in both directions. A requester
            // carrying a *higher* term proves this replica was fenced — a
            // deposed leader's log may hold records the new term never
            // committed, and serving them would replicate that divergence
            // into the follower. Adopt the higher term (persisting it, and
            // deposing any local leadership) and refuse; the response
            // carries the term we were fenced at so the caller can see how
            // stale we were. A requester *behind* our term is refused the
            // standard way, learning the current term from the response.
            if let Some(req_epoch) = req.epoch {
                let current = repl.current_epoch();
                if req_epoch > current {
                    shared.stats.stale_epoch_rejections.fetch_add(1, Ordering::Relaxed);
                    if let Err(e) = repl.adopt_epoch(req_epoch, None) {
                        return Response::internal(
                            req.id,
                            format!("failed to persist adopted epoch {req_epoch}: {e}"),
                        );
                    }
                    let mut resp = Response::stale_epoch(req.id, current, req_epoch);
                    // Override the constructor's "current term" stamp: the
                    // stale party here is *us*, and the requester must see
                    // the term this log was last written under.
                    resp.epoch = Some(current);
                    return resp;
                }
                if req_epoch < current {
                    shared.stats.stale_epoch_rejections.fetch_add(1, Ordering::Relaxed);
                    return Response::stale_epoch(req.id, req_epoch, current);
                }
            }
            let Some(from) = req.from else {
                return bad_request(req.id, "missing required field `from`");
            };
            let limit = req.limit.unwrap_or(16).clamp(1, 16) as usize;
            let rinner = repl.lock();
            if from < rinner.base {
                return bad_request(
                    req.id,
                    format!(
                        "position {from} was compacted below the log base {}; a full artifact \
                         resync is required",
                        rinner.base
                    ),
                );
            }
            let start = (from - rinner.base) as usize;
            let records: Vec<ReplRecordDto> = rinner
                .log
                .get(start..)
                .unwrap_or(&[])
                .iter()
                .take(limit)
                .map(|r| ReplRecordDto::sealed(r.seq, r.user, r.item, r.rating, r.ts, r.text.clone()))
                .collect();
            let (count, epoch) = (rinner.count(), rinner.epoch);
            drop(rinner);
            let mut resp = Response::ok(req.id);
            resp.records = Some(records);
            resp.replicated = Some(count);
            resp.epoch = Some(epoch);
            return resp;
        }
        Op::Promote => {
            let Some(repl) = shared.repl.clone() else {
                return bad_request(
                    req.id,
                    "Promote needs a replication-enabled engine (open_replicated)",
                );
            };
            let Some(epoch) = req.epoch else {
                return bad_request(req.id, "missing required field `epoch`");
            };
            let current = repl.current_epoch();
            // The term must strictly advance — except that re-promoting
            // the *acting* leader at its own term just refreshes the peer
            // set (a follower came back at a new address). A same-term
            // promote on anything else is a split-brain attempt.
            let peer_refresh = epoch == current && repl.is_leader();
            if epoch < current || (epoch == current && !peer_refresh) {
                shared.stats.stale_epoch_rejections.fetch_add(1, Ordering::Relaxed);
                return Response::stale_epoch(req.id, epoch, current);
            }
            let peers = req.peers.clone().unwrap_or_default();
            if let Err(e) = repl.promote(epoch, peers) {
                return Response::internal(
                    req.id,
                    format!("failed to persist promotion to epoch {epoch}: {e}"),
                );
            }
            let mut resp = Response::ok(req.id);
            resp.epoch = Some(epoch);
            return resp;
        }
        Op::Crash => {
            if !shared.cfg.fault_injection {
                return bad_request(
                    req.id,
                    "Crash is a drill verb; enable EngineConfig.fault_injection to use it",
                );
            }
            panic!("deliberate panic requested by the Crash protocol verb");
        }
    };
    response.generation = Some(generation.id);
    // A scoped engine stamps every answer with its shard and the map
    // version it routed under, so gather sides and debugging humans can
    // always tell which slice produced what.
    if let Some(shard) = shared.cfg.shard_id {
        response.shard = Some(shard);
        response.map_version = Some(generation.shard_map.version());
    }
    response
}
