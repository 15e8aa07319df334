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
//! **Supervision.** Each job runs under `catch_unwind`: a panic becomes a
//! structured `internal` error for that client, feeds the circuit breaker,
//! and backs the worker off briefly. If the breaker sees
//! `breaker_threshold` panics within `breaker_window`, `submit` answers
//! `unavailable` until the window slides past — clients get fast, honest
//! refusals instead of hung connections, and the breaker closes on its own.
//!
//! The engine answers the read verbs against the generation each job pinned
//! ([`crate::generation`]); the write verbs go to its [`crate::ingest`] half.

use crate::artifact::ModelArtifact;
use crate::batch::{BatchConfig, BatchQueue, Completion, Job, QueuePermit};
use crate::generation::{predict_pair, Generation, Serving};
use crate::ingest::{Ingest, IngestConfig};
use crate::replication::{Replication, ReplicationConfig};
use crate::stats::{EngineStats, FrontendStats, StatsSnapshot};
use rrre_core::{explain_with, recommend_with};
use rrre_data::{ItemId, UserId};
use rrre_wire::{ErrorKind, HealthDto, Op, Request, Response};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// State shared between the engine handle and its workers.
struct Shared {
    serving: Serving,
    stats: EngineStats,
    /// Front-end (event loop) counters, held here so `Op::Stats` can
    /// report them; the TCP server updates them through
    /// [`Engine::frontend_stats`]. All zero on engines served without a
    /// front end.
    frontend: Arc<FrontendStats>,
    cfg: EngineConfig,
    queue_depth: Arc<AtomicUsize>,
    /// `Some` when the engine accepts the write verbs.
    ingest: Option<Ingest>,
    /// Timestamps of recent worker panics (trimmed to `breaker_window`).
    breaker: Mutex<Vec<Instant>>,
    /// Set when the front end begins draining for shutdown: the engine
    /// keeps answering (in-flight and pipelined requests finish) but
    /// reports not-ready so health-aware clients route elsewhere.
    draining: AtomicBool,
}

impl Shared {
    /// The write path, or why this engine has none.
    fn ingest(&self) -> Result<&Ingest, &'static str> {
        self.ingest.as_ref().ok_or("ingest is not enabled on this engine")
    }

    /// [`Engine::reload`], which the `Reload` verb runs too.
    fn reload(&self) -> Result<u64, String> {
        match &self.ingest {
            Some(ingest) => ingest.reload(&self.serving, &self.stats),
            None => self.serving.reload(&self.stats, |next| self.serving.publish(next)),
        }
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
        Self::build(artifact, cfg, None)
    }

    /// Opens an artifact directory for *durable streaming ingest*: loads
    /// the artifact its manifest commits, replays and repairs the WAL, then
    /// folds every replayed record back into the serving towers — exactly
    /// once, deduplicated against the manifest's folded seqs. After this
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
        Self::open_ingest(dir.as_ref(), cfg, ingest, None)
    }

    /// [`Engine::open_with_ingest`] as one replica of a replicated shard:
    /// the WAL is shipped between replicas, ingest acks honour
    /// [`ReplicationConfig`]'s ack level, and leader terms fence stale
    /// traffic. Log positions count from the same replay set the towers
    /// fold, so they line up across replicas that started from the same
    /// artifact.
    pub fn open_replicated(
        dir: impl AsRef<Path>,
        cfg: EngineConfig,
        ingest: IngestConfig,
        repl: ReplicationConfig,
    ) -> io::Result<Self> {
        Self::open_ingest(dir.as_ref(), cfg, ingest, Some(repl))
    }

    fn open_ingest(
        dir: &Path,
        cfg: EngineConfig,
        ingest: IngestConfig,
        repl: Option<ReplicationConfig>,
    ) -> io::Result<Self> {
        let (ingest, artifact, (wal_bytes, torn_tails)) = Ingest::open(dir, ingest, repl)?;
        let engine = Self::build(artifact, cfg, Some(ingest));
        let shared = &engine.shared;
        shared.stats.wal_bytes.store(wal_bytes, Ordering::Relaxed);
        shared.stats.wal_recoveries.store(torn_tails, Ordering::Relaxed);
        // Replayed-but-unfolded records go straight back into the towers:
        // an acked review survives the crash *and* answers predictions
        // again before the first post-restart request is served.
        engine.refresh_now().map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if let Some(repl) = engine.replication().filter(|r| r.is_leader()) {
            repl.spawn_shippers();
        }
        Ok(engine)
    }

    fn build(artifact: ModelArtifact, cfg: EngineConfig, ingest: Option<Ingest>) -> Self {
        assert!(cfg.workers >= 1, "Engine: need at least one worker");
        assert!(cfg.queue_cap >= 1, "Engine: queue_cap must be ≥ 1");
        assert!(cfg.breaker_threshold >= 1, "Engine: breaker_threshold must be ≥ 1");
        assert!(
            artifact.model.has_frozen_cache(),
            "Engine: artifact model is not frozen for inference"
        );
        let cold_start_min = ingest.as_ref().map_or(0, |i| i.cfg.cold_start_min);
        let shared = Arc::new(Shared {
            serving: Serving::new(artifact, &cfg, cold_start_min),
            stats: EngineStats::default(),
            frontend: Arc::new(FrontendStats::default()),
            cfg,
            queue_depth: Arc::new(AtomicUsize::new(0)),
            ingest,
            breaker: Mutex::new(Vec::new()),
            draining: AtomicBool::new(false),
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
        health(&self.shared)
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
        self.shared.serving.current()
    }

    /// Re-loads the artifact from the directory the current generation was
    /// loaded from and atomically swaps it in. The load runs to completion
    /// — checksums, manifest cross-checks, model restore — before the swap,
    /// so a corrupt artifact on disk never serves; the old generation keeps
    /// serving and the error is returned (and counted in
    /// `reload_failures`). On an ingest engine the WAL's unfolded records
    /// are folded back in before this returns, so a reload serves what a
    /// restart would.
    pub fn reload(&self) -> Result<u64, String> {
        self.shared.reload()
    }

    /// The replication state, when this engine was opened via
    /// [`Engine::open_replicated`].
    pub fn replication(&self) -> Option<Arc<Replication>> {
        self.shared.ingest.as_ref()?.repl.clone()
    }

    /// Synchronously folds every accepted-but-unapplied WAL record into
    /// the serving towers: a frozen-encoder incremental refresh that
    /// re-encodes only the new reviews and republishes under the *same*
    /// generation id. Returns how many records were applied (`0` when the
    /// towers are already current). Errors when ingest is not enabled.
    pub fn refresh_now(&self) -> Result<usize, String> {
        let shared = &self.shared;
        shared.ingest()?.refresh(&shared.serving, &shared.stats)
    }

    /// Synchronously compacts the WAL into a new artifact generation:
    /// commits the folded dataset and its seqs into the artifact directory
    /// by one durable manifest replace, hot-reloads, then truncates the
    /// folded segments. Crash-safe at every step — a crash before the
    /// replace leaves the old generation and the WAL, one after it leaves
    /// WAL records the new manifest dedups. Returns `(records folded,
    /// serving generation id)`.
    pub fn compact_now(&self) -> Result<(u64, u64), String> {
        let shared = &self.shared;
        shared.ingest()?.compact(&shared.serving, &shared.stats)
    }

    /// Graceful shutdown: stop accepting, let queued jobs finish, join the
    /// workers. Idempotent; `Drop` calls it too.
    pub fn shutdown(&self) {
        // Shippers park on condvars and sleeps; stop them first so the
        // join below cannot hang.
        if let Some(repl) = self.replication() {
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

fn snapshot(shared: &Shared) -> StatsSnapshot {
    let mut snap = shared.stats.snapshot(
        &shared.serving.current(),
        shared.breaker_open(),
        shared.draining.load(Ordering::SeqCst),
        shared.cfg.shard_id,
        &shared.frontend,
    );
    if let Some(repl) = shared.ingest.as_ref().and_then(|i| i.repl.as_deref()) {
        (snap.epoch, snap.replicated_seq, snap.replication_lag) = repl.stats();
    }
    snap
}

/// [`Engine::health`], which `Op::Health` answers too.
fn health(shared: &Shared) -> HealthDto {
    let draining = shared.draining.load(Ordering::SeqCst);
    let breaker_open = shared.breaker_open();
    HealthDto {
        live: true,
        ready: !draining && !breaker_open,
        draining,
        breaker_open,
        generation: shared.serving.current().id,
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
            let generation = shared.serving.current();
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

/// `field`, present and below `bound`, or why not.
pub(crate) fn require(field: Option<u32>, name: &str, bound: usize) -> Result<u32, String> {
    let v = field.ok_or_else(|| format!("missing required field `{name}`"))?;
    if (v as usize) < bound {
        Ok(v)
    } else {
        Err(format!("{name} {v} out of range (dataset has {bound})"))
    }
}

pub(crate) fn bad_request(id: Option<u64>, message: impl Into<String>) -> Response {
    Response::error_kind(id, ErrorKind::BadRequest, message)
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

    let (serving, stats) = (&shared.serving, &shared.stats);
    let ds = &generation.artifact.dataset;
    let mut response = Response::ok(req.id);
    match req.op {
        Op::Predict => {
            let (user, item) = match (
                require(req.user, "user", ds.n_users),
                require(req.item, "item", ds.n_items),
            ) {
                (Ok(u), Ok(i)) => (u, i),
                (Err(e), _) | (_, Err(e)) => return bad_request(req.id, e),
            };
            if let Some(refusal) = serving.check_owned(stats, generation, req.id, item) {
                return refusal;
            }
            response.prediction = Some(predict_pair(stats, generation, user, item).into());
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
                stats.scatter_fanout.fetch_add(1, Ordering::Relaxed);
            }
            let owned = (0..ds.n_items as u32)
                .filter(|&i| {
                    shared.cfg.shard_id.is_none_or(|s| generation.shard_map.owns_item(s, i))
                })
                .map(ItemId);
            let recs = recommend_with(ds, UserId(user), owned, k, |u, i| {
                predict_pair(stats, generation, u.0, i.0)
            });
            response.recommendations = Some(recs.into_iter().map(Into::into).collect());
        }
        Op::Explain => {
            let item = match require(req.item, "item", ds.n_items) {
                Ok(i) => i,
                Err(e) => return bad_request(req.id, e),
            };
            if let Some(refusal) = serving.check_owned(stats, generation, req.id, item) {
                return refusal;
            }
            let k = match req.k {
                Some(k) if k > 0 => k,
                _ => return bad_request(req.id, "missing or zero field `k`"),
            };
            let index = generation.artifact.model.index();
            let explanations = explain_with(ds, index, ItemId(item), k, |u, i| {
                predict_pair(stats, generation, u.0, i.0)
            });
            response.explanations = Some(explanations.into_iter().map(Into::into).collect());
        }
        Op::Stats => response.stats = Some(snapshot(shared)),
        // Normally intercepted in `submit` before queueing; answered here
        // too so a directly-processed job is never unreachable.
        Op::Health => response.health = Some(health(shared)),
        Op::Reload => {
            return match shared.reload() {
                Ok(new_id) => {
                    response.generation = Some(new_id);
                    response
                }
                Err(e) => Response::internal(req.id, e),
            };
        }
        Op::IngestReview | Op::Compact | Op::Replicate | Op::Promote => {
            return match shared.ingest() {
                Ok(ingest) => ingest.process(serving, stats, generation, req),
                Err(e) => bad_request(req.id, e),
            };
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
    }
    serving.stamp(generation, response)
}
