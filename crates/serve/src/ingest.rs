//! The write path: durable ingest, the in-memory log of unfolded records,
//! replication, refresh and compaction, owned by one `Ingest`.
//!
//! A client's `IngestReview` and a record replicated from the leader take
//! the same `Ingest::append` into the one store of unfolded records,
//! `IngestLog`, which refresh, compaction, the shippers and `Stats` read.
//! A reload — the `Reload` verb, or the one a compaction ends with —
//! refolds that store into the artifact it loads, so it serves what a
//! restart would.
//!
//! Every protocol decision is the sans-IO [`crate::replica::ReplicaState`]'s:
//! every term read off the wire is judged by it before its verb acts
//! ([`crate::replication`] holds it), and what an append does with a batch
//! is its [`ReplicaState::plan_append`]. This module only does what the
//! answer names: append and fsync, push, wake, refresh.
//!
//! **Lock order:** `maintenance` → the WAL `writer` → replication state
//! (the `ReplicaState`) → the ingest log → the serving pointer.
//! `maintenance` is held across every refresh, reload and compaction, so on
//! an ingest engine the serving pointer only ever moves under it. An
//! append's plan is made, and its WAL writes and fsyncs run, under `writer`
//! alone (reading the log's seqs under the log lock), which no shipper or
//! quorum waiter takes; the one fsync under the replication lock is a term
//! change's epoch file. An append wakes the shippers by notifying under the
//! replication lock after the push — the lock they read the log count
//! under — so no wakeup is lost.

use crate::artifact::ModelArtifact;
use crate::engine::{bad_request, require};
use crate::generation::{Generation, Serving};
use crate::replica::{Plan, Refusal, ReplicaState, Stop, Traffic};
use crate::replication::{self, AckLevel, QuorumError, Replication, ReplicationConfig};
use crate::stats::EngineStats;
use crate::wal::{self, FsyncPolicy, SeqSet, WalRecord, WalWriter};
use rrre_data::{Dataset, EncodedCorpus, ItemId, Label, Review, UserId};
use rrre_wire::{Op, ReplRecordDto, Request, Response, MAX_LINE_BYTES};
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// WAL directory name inside an ingest-enabled artifact directory.
pub const WAL_DIR: &str = "wal";

/// Durable streaming-ingest knobs ([`crate::Engine::open_with_ingest`]).
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Auto-refresh the serving towers once this many accepted records are
    /// pending. `1` (the default) folds every review in before its ack
    /// returns; `0` disables auto-refresh — only
    /// [`crate::Engine::refresh_now`] / [`crate::Engine::compact_now`] fold
    /// new appends, though an open and a reload still fold every record
    /// the WAL holds.
    pub refresh_every: usize,
    /// Entity pairs where either side has fewer than this many reviews get
    /// the calibrated cold-start reliability prior instead of the
    /// reliability head's score ([`rrre_core::ColdStartPrior`]). `0` (the
    /// default) disables the prior.
    pub cold_start_min: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 4 << 20,
            refresh_every: 1,
            cold_start_min: 0,
        }
    }
}

/// The WAL writer and the dedup set, under one lock so the WAL's append
/// order, the dedup set and the log's order can never disagree.
struct WalState {
    wal: WalWriter,
    /// Every sequence id ever durably accepted: the manifest's folded
    /// set, plus WAL replay, plus live appends. Membership ⇒ the review is
    /// (or will be) applied, so a resend acks `duplicate` without side
    /// effects.
    accepted: SeqSet,
}

/// An engine's write path: the WAL, the dedup set, the log of unfolded
/// records, the maintenance lock and, on one replica of a replicated
/// shard, the replication handle.
pub(crate) struct Ingest {
    pub(crate) cfg: IngestConfig,
    writer: Mutex<WalState>,
    log: Arc<IngestLog>,
    /// Held across a whole refresh, reload or compaction.
    maintenance: Mutex<()>,
    /// `Some` when this engine is one replica of a replicated shard
    /// ([`crate::Engine::open_replicated`]): leader-term fencing, shippers
    /// and quorum acks all hang off this.
    pub(crate) repl: Option<Arc<Replication>>,
}

/// Why [`Ingest::append`] stopped before the end of its batch.
enum AppendStop {
    /// The plan's own stop: a seq accepted before or a log mismatch.
    Plan(Stop),
    /// The WAL write failed; the record may or may not be on disk.
    Wal(io::Error),
}

impl Ingest {
    /// The recovery half of [`crate::Engine::open_with_ingest`], up to the
    /// fold: returns the write path, the artifact to serve and the WAL's
    /// `(intact bytes, torn tails repaired)`.
    pub(crate) fn open(
        dir: &Path,
        cfg: IngestConfig,
        repl: Option<ReplicationConfig>,
    ) -> io::Result<(Self, ModelArtifact, (u64, u64))> {
        let artifact = ModelArtifact::load(dir)?;
        let folded = &artifact.manifest.folded;
        let wal_dir = artifact.source_dir.join(WAL_DIR);
        let recovery = wal::replay_and_repair(&wal_dir)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        // Rebuild the accepted set: everything the manifest says is already
        // folded, plus everything still sitting in the WAL. Replayed
        // records the manifest already covers were folded by a committed
        // compaction — applying them again would double-count. What was
        // folded sits below the log base and can no longer be shipped (a
        // follower that far behind needs an artifact resync).
        let mut accepted = folded.clone();
        let unfolded = recovery.records.into_iter().filter(|rec| accepted.insert(rec.seq));
        let log = Arc::new(IngestLog::new(folded.len(), unfolded.collect()));
        let repl = repl
            .map(|rc| Replication::open(&artifact.source_dir, rc, Arc::clone(&log)).map(Arc::new))
            .transpose()?;
        // Every append is fsync'd before its ack: an ack is a durability promise.
        let wal = WalWriter::open(&wal_dir, cfg.segment_bytes, FsyncPolicy::EveryRecord)?;
        let ingest = Self {
            cfg,
            writer: Mutex::new(WalState { wal, accepted }),
            log,
            maintenance: Mutex::new(()),
            repl,
        };
        Ok((ingest, artifact, (recovery.bytes, recovery.truncated_tails)))
    }

    /// Answers the write verbs — `IngestReview`, `Compact`, `Replicate`,
    /// `Promote` — against the generation the job pinned.
    pub(crate) fn process(
        &self,
        serving: &Serving,
        stats: &EngineStats,
        generation: &Generation,
        req: &Request,
    ) -> Response {
        let mut resp = Response::ok(req.id);
        match req.op {
            Op::IngestReview => {
                // Replication fencing before any validation: a stale-term
                // client is refused outright, and only the acting leader
                // ever accepts a write (a follower redirects, a deposed
                // leader must never ack something the new term's quorum
                // lacks).
                if let Some(repl) = self.repl.as_deref() {
                    if let Err(refusal) = repl.fence(req.epoch, Traffic::Ingest) {
                        return refused(stats, req.id, refusal);
                    }
                }
                let Some(seq) = req.seq else {
                    return bad_request(req.id, "missing required field `seq`");
                };
                // Ingest stays inside the artifact's id space: the embedding
                // tables are sized at training time, so a brand-new entity
                // needs a retrain, not a WAL append.
                let ds = &generation.artifact.dataset;
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
                // A record no follower could take would stall every quorum
                // ack behind it, so it never reaches the WAL.
                let self_addr = self.repl.as_deref().and_then(|r| r.self_addr.as_deref());
                if !replication::fits_one_replicate(&rec, self_addr) {
                    return bad_request(
                        req.id,
                        format!(
                            "review too long: its one-record Replicate line could exceed \
                             {MAX_LINE_BYTES} bytes"
                        ),
                    );
                }
                let (count, stop) = self.append(serving, stats, None, vec![rec]);
                let duplicate = match stop {
                    None => {
                        stats.ingested.fetch_add(1, Ordering::Relaxed);
                        false
                    }
                    // Exactly-once: this seq was durably accepted before (the
                    // ack may have been lost to a crash or timeout). Ack
                    // again without re-applying anything.
                    Some(AppendStop::Plan(_)) => {
                        stats.ingest_duplicates.fetch_add(1, Ordering::Relaxed);
                        true
                    }
                    // No ack without durability: the bytes may or may not
                    // have reached the platter, so the client must retry
                    // with the same seq and let dedup decide.
                    Some(AppendStop::Wal(e)) => {
                        return Response::internal(
                            req.id,
                            format!("wal append failed: {e}; retry with the same seq"),
                        );
                    }
                };
                // At quorum ack level, prove quorum durability of everything
                // up to `count` — a duplicate too: its first attempt may have
                // timed out precisely because followers were behind.
                if let Some(repl) = self.repl.as_deref().filter(|r| r.ack == AckLevel::Quorum) {
                    if let Some(refusal) = await_quorum(req.id, repl, count) {
                        return refusal;
                    }
                }
                resp.ingest = Some(rrre_wire::IngestDto { seq, duplicate });
                serving.stamp(generation, resp)
            }
            Op::Compact => match self.compact(serving, stats) {
                Ok((folded, new_generation)) => {
                    resp.compaction =
                        Some(rrre_wire::CompactionDto { folded, generation: new_generation });
                    // Stamp the *post*-compaction generation: the one this
                    // job pinned is already obsolete.
                    let mut resp = serving.stamp(generation, resp);
                    resp.generation = Some(new_generation);
                    resp
                }
                Err(e) => Response::internal(req.id, e),
            },
            Op::Replicate => {
                let Some(repl) = self.repl.as_deref() else { return needs_replication(req) };
                let (Some(epoch), Some(from)) = (req.epoch, req.from) else {
                    return bad_request(req.id, "Replicate needs `epoch` and `from`");
                };
                // peers[0] is the shipping leader's advertised address — the
                // redirect hint this follower hands to misrouted clients. A
                // higher term is persisted before a single record is applied.
                let hint = req.peers.as_ref().and_then(|p| p.first().cloned());
                let epoch = match repl.fence(Some(epoch), Traffic::Peer(hint)) {
                    Ok(epoch) => epoch,
                    Err(refusal) => return refused(stats, req.id, refusal),
                };
                // The batch is a contiguous run of records from log position
                // `from`, CRC-checked whole before anything is applied; the
                // plan skips the positions held (and matching), applies
                // nothing across a gap — our unchanged count makes the
                // leader rewind — and fails closed on a divergence.
                let records = req.records.as_deref().unwrap_or(&[]);
                if let Some(bad) = records.iter().find(|r| !r.verify()) {
                    let e = format!("replicated record seq {} failed its CRC in transit", bad.seq);
                    return Response::internal(req.id, e);
                }
                let records: Vec<WalRecord> = records.iter().map(WalRecord::from).collect();
                let (count, stop) = self.append(serving, stats, Some(from), records);
                match stop {
                    None => {
                        resp.replicated = Some(count);
                        resp.epoch = Some(epoch);
                        resp
                    }
                    // Applying would double-count and silently fork the shard.
                    Some(AppendStop::Plan(stop)) => {
                        let why = match stop {
                            Stop::Duplicate(seq) => format!("seq {seq} already applied earlier"),
                            Stop::Mismatch(at) => format!("another record held at position {at}"),
                        };
                        let e = format!("replication divergence: {why}; it needs a resync");
                        Response::internal(req.id, e)
                    }
                    Some(AppendStop::Wal(e)) => {
                        Response::internal(req.id, format!("wal append failed: {e}"))
                    }
                }
            }
            Op::Promote => {
                let Some(repl) = self.repl.as_ref() else { return needs_replication(req) };
                let Some(epoch) = req.epoch else {
                    return bad_request(req.id, "missing required field `epoch`");
                };
                // The term must strictly advance — except that re-promoting
                // the *acting* leader at its own term just refreshes the peer
                // set (a follower came back at a new address).
                if let Err(refusal) = repl.promote(epoch, req.peers.clone().unwrap_or_default()) {
                    return refused(stats, req.id, refusal);
                }
                resp.epoch = Some(epoch);
                resp
            }
            other => Response::internal(req.id, format!("{other:?} is not a write verb")),
        }
    }

    /// The one append path, for client ingest (`from` absent: the next
    /// position) and replicated apply alike. Under the writer lock the
    /// replica state plans the batch against the log; each record it takes
    /// goes to the WAL (fsync'd), then into the dedup set and the log — the
    /// only push site. The plan's stop, or the first WAL failure, ends the
    /// batch. Then, with the writer lock released, the shippers are woken
    /// and the towers refreshed once `refresh_every` records wait. Returns
    /// the log count after the last push (the quorum target) and why the
    /// batch stopped short, if it did.
    fn append(
        &self,
        serving: &Serving,
        stats: &EngineStats,
        from: Option<u64>,
        records: Vec<WalRecord>,
    ) -> (u64, Option<AppendStop>) {
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let mut count = self.log.count();
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        let Plan { skip, take, stop } = ReplicaState::plan_append(
            count,
            from.unwrap_or(count),
            &seqs,
            |position| self.log.seq_at(position),
            |seq| writer.accepted.contains(seq),
        );
        let (mut pending, mut stop) = (0, stop.map(AppendStop::Plan));
        for rec in records.into_iter().skip(skip).take(take) {
            match writer.wal.append(&rec) {
                Ok(bytes) => stats.wal_bytes.fetch_add(bytes, Ordering::Relaxed),
                Err(e) => {
                    stop = Some(AppendStop::Wal(e));
                    break;
                }
            };
            writer.accepted.insert(rec.seq);
            (count, pending) = self.log.push(rec);
        }
        drop(writer);
        if pending > 0 {
            if let Some(repl) = self.repl.as_deref() {
                repl.notify();
            }
            if self.cfg.refresh_every > 0 && pending >= self.cfg.refresh_every {
                // Durability is decided; a refresh failure must not retract
                // it. The records stay pending for the next refresh or
                // compaction.
                if let Err(e) = self.refresh(serving, stats) {
                    eprintln!("rrre-serve: deferred ingest refresh failed: {e}");
                }
            }
        }
        (count, stop)
    }

    /// [`Ingest::refresh_locked`] behind the maintenance lock.
    pub(crate) fn refresh(&self, serving: &Serving, stats: &EngineStats) -> Result<usize, String> {
        let _serialize = self.maintenance.lock().unwrap_or_else(|e| e.into_inner());
        self.refresh_locked(serving, stats)
    }

    /// Folds every accepted-but-unapplied record into a copy-on-write clone
    /// of the current generation and republishes it under the *same*
    /// generation id. The encoder stays frozen: each new review is encoded
    /// with the exact per-review path a full re-encode would take, so the
    /// refreshed towers are bit-identical to rebuilding from scratch. Caller
    /// holds the maintenance lock, so the serving pointer cannot move under
    /// the fold. Returns how many records were folded.
    fn refresh_locked(&self, serving: &Serving, stats: &EngineStats) -> Result<usize, String> {
        let (batch, start) = self.log.unrefreshed();
        if batch.is_empty() {
            return Ok(0);
        }
        let base = serving.current();
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
        fold(&mut dataset, &mut corpus, &batch)?;
        model.refresh_towers(&dataset, &corpus, first_new)?;
        let artifact = ModelArtifact {
            manifest: base.artifact.manifest.clone(),
            dataset,
            corpus,
            model,
            source_dir: base.artifact.source_dir.clone(),
        };
        let generation = serving.refreshed(&base, artifact);
        self.log.published(0, start + batch.len(), || serving.publish(generation));
        stats.refreshes.fetch_add(1, Ordering::Relaxed);
        Ok(batch.len())
    }

    /// [`crate::Engine::reload`] on an ingest engine: under the maintenance
    /// lock, publish the on-disk artifact, then fold every unfolded record
    /// back in — what a restart serves. Returns the new generation's id.
    pub(crate) fn reload(&self, serving: &Serving, stats: &EngineStats) -> Result<u64, String> {
        let _serialize = self.maintenance.lock().unwrap_or_else(|e| e.into_inner());
        let id = serving.reload(stats, |next| self.log.published(0, 0, || serving.publish(next)))?;
        self.refresh_locked(serving, stats)?;
        Ok(id)
    }

    /// [`crate::Engine::compact_now`]: commits the WAL's records into the
    /// serving directory as the artifact's next generation, reloads it and
    /// truncates the folded segments. Returns `(records folded, serving
    /// generation id)`.
    pub(crate) fn compact(
        &self,
        serving: &Serving,
        stats: &EngineStats,
    ) -> Result<(u64, u64), String> {
        let _serialize = self.maintenance.lock().unwrap_or_else(|e| e.into_inner());

        // Snapshot under the writer lock: rotate first so every snapshotted
        // record lives in a segment below the new one; appends arriving
        // after the rotation land in the fresh segment and simply miss this
        // compaction.
        let (snapshot, first_live) = {
            let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
            let first_live = writer.wal.rotate().map_err(|e| format!("wal rotate failed: {e}"))?;
            (self.log.snapshot(), first_live)
        };
        if snapshot.is_empty() {
            return Ok((0, serving.current().id));
        }
        let base = serving.current();
        let manifest = &base.artifact.manifest;
        let disk_len = manifest.n_reviews;
        // The fold set is on-disk reviews + the whole snapshot; the serving
        // dataset may already include a *refreshed* prefix of the snapshot,
        // so truncate back to the durable base before re-appending.
        let mut dataset = base.artifact.dataset.clone();
        dataset.reviews.truncate(disk_len);
        let mut corpus = base.artifact.corpus.clone();
        corpus.docs.truncate(disk_len);
        fold(&mut dataset, &mut corpus, &snapshot)
            .map_err(|e| format!("compaction fold failed: {e}"))?;
        let mut folded = manifest.folded.clone();
        for rec in &snapshot {
            folded.insert(rec.seq);
        }

        // The commit: one durable replace of the manifest makes the folded
        // reviews and their seqs the artifact at once. A crash before it
        // leaves the old generation and the WAL; after it, the WAL's
        // folded records dedup against the new manifest.
        let dir = &base.artifact.source_dir;
        ModelArtifact::commit(
            dir,
            &dataset,
            &corpus,
            &base.artifact.model,
            manifest.min_count,
            manifest.shard_spec,
            &folded,
        )
        .map_err(|e| format!("compaction commit failed: {e}"))?;
        // Positions below the new base can no longer be shipped; shippers
        // park on a follower that far behind (it needs an artifact resync).
        let generation = serving.reload(stats, |next| {
            self.log.published(snapshot.len(), 0, || serving.publish(next));
        })?;
        // Folded segments are garbage: their records live in the artifact
        // and the manifest remembers their seq ids. Best-effort — leftovers
        // replay harmlessly through that dedup.
        let wal_dir = dir.join(WAL_DIR);
        let _ = wal::remove_segments_below(&wal_dir, first_live);
        let on_disk: u64 = wal::list_segments(&wal_dir)
            .map(|segs| {
                segs.iter()
                    .filter_map(|(_, p)| std::fs::metadata(p).ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        stats.wal_bytes.store(on_disk, Ordering::Relaxed);
        stats.compactions.fetch_add(1, Ordering::Relaxed);
        // Records that arrived mid-fold go back into the towers immediately.
        self.refresh_locked(serving, stats)?;
        Ok((snapshot.len() as u64, generation))
    }
}

/// Appends `records` to a dataset and its corpus: the one place an
/// ingested record becomes a [`Review`], for refresh and compaction alike.
fn fold(
    dataset: &mut Dataset,
    corpus: &mut EncodedCorpus,
    records: &[WalRecord],
) -> Result<(), String> {
    for rec in records {
        dataset.append_review(Review {
            user: UserId(rec.user),
            item: ItemId(rec.item),
            rating: rec.rating,
            // Ground truth is unknowable at ingest time, so every folded
            // review is benign. That is not inert: every refresh (and the
            // reload after a compaction) recalibrates the cold-start prior
            // over the served dataset, so each ingested fake raises the
            // prior's reliability. ROADMAP item 13 owns the fix.
            label: Label::Benign,
            timestamp: rec.ts,
            text: rec.text.clone(),
        })?;
        corpus.append_doc(&rec.text);
    }
    Ok(())
}

fn needs_replication(req: &Request) -> Response {
    bad_request(req.id, format!("{:?} needs a replication-enabled engine (open_replicated)", req.op))
}

/// Blocks an ingest ack on quorum durability of `target`: the structured
/// refusal when quorum is not proven, `None` when it is. A timeout is
/// `Unavailable` — the honest retryable: the record *is* durable here, and
/// the retry's duplicate path re-proves quorum.
fn await_quorum(id: Option<u64>, repl: &Replication, target: u64) -> Option<Response> {
    match repl.quorum_wait(target).err()? {
        QuorumError::Deposed(hint) => Some(Response::not_leader(id, hint)),
        QuorumError::Timeout => Some(Response::unavailable(
            id,
            "replication quorum not reached before the timeout; the record is durable on the \
             leader — retry with the same seq",
        )),
    }
}

/// The answer to a wire term the replication fence refused; a stale one is
/// counted.
fn refused(stats: &EngineStats, id: Option<u64>, refusal: Refusal) -> Response {
    match refusal {
        Refusal::Stale { got, current } => {
            stats.stale_epoch_rejections.fetch_add(1, Ordering::Relaxed);
            Response::stale_epoch(id, got, current)
        }
        Refusal::NotLeader(hint) => Response::not_leader(id, hint),
        // Two leaders sharing a term is a protocol violation, not something
        // to paper over.
        Refusal::SameTermLeader(epoch) => Response::internal(
            id,
            format!("Replicate at epoch {epoch} reached the acting leader of that term"),
        ),
        Refusal::Persist(epoch, e) => {
            Response::internal(id, format!("failed to persist epoch {epoch}: {e}"))
        }
    }
}

/// The accepted records the artifact does not yet hold, one copy per
/// replica: log position `base + i` is `records[i]`. Records enter only
/// through [`IngestLog::push`], which [`Ingest::append`] calls after the WAL
/// append under its writer lock, so positions follow WAL order. This mutex
/// is a reader's lock and is never held across a WAL append (lock order:
/// the module docs). It is the only map from a log position to a record.
pub(crate) struct IngestLog {
    inner: Mutex<LogInner>,
}

struct LogInner {
    /// Records folded into the artifact, before this process opened or by a
    /// compaction since. Positions below it can no longer be read.
    base: u64,
    /// Accepted records since `base`, in WAL append order.
    records: Vec<WalRecord>,
    /// Prefix of `records` already published into the serving towers.
    refreshed: usize,
}

impl IngestLog {
    /// A log over the replayed-but-unfolded `records` (in WAL order) above
    /// the `base` records the manifest says a compaction folded.
    pub(crate) fn new(base: u64, records: Vec<WalRecord>) -> Self {
        Self { inner: Mutex::new(LogInner { base, records, refreshed: 0 }) }
    }

    /// Records accepted in all, folded or not: the `replicated_seq`
    /// watermark, and the position the next record takes.
    pub(crate) fn count(&self) -> u64 {
        self.bounds().0
    }

    /// `(count, base)`: where the log ends and where it starts.
    pub(crate) fn bounds(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        (inner.base + inner.records.len() as u64, inner.base)
    }

    /// The seq at log `position`, or `None` below the base or past the end.
    fn seq_at(&self, position: u64) -> Option<u64> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let index = usize::try_from(position.checked_sub(inner.base)?).ok()?;
        inner.records.get(index).map(|rec| rec.seq)
    }

    /// Appends one accepted record. Returns the new count and how many
    /// records are not yet in the serving towers.
    pub(crate) fn push(&self, rec: WalRecord) -> (u64, usize) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.records.push(rec);
        (inner.base + inner.records.len() as u64, inner.records.len() - inner.refreshed)
    }

    /// Up to `max` records from position `from`, sealed for the wire, or
    /// `Err(base)` when `from` lies below the base.
    pub(crate) fn read(&self, from: u64, max: usize) -> Result<Vec<ReplRecordDto>, u64> {
        let picked: Vec<WalRecord> = {
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            let start = from.checked_sub(inner.base).ok_or(inner.base)?;
            let start = usize::try_from(start).unwrap_or(usize::MAX);
            inner.records.iter().skip(start).take(max).cloned().collect()
        };
        // Seal (CRC the text) after the lock is released.
        Ok(picked.into_iter().map(ReplRecordDto::from).collect())
    }

    /// The records not yet in the serving towers, and the refreshed mark
    /// they start at.
    fn unrefreshed(&self) -> (Vec<WalRecord>, usize) {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        (inner.records[inner.refreshed..].to_vec(), inner.refreshed)
    }

    /// Every unfolded record: what a compaction folds.
    fn snapshot(&self) -> Vec<WalRecord> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).records.clone()
    }

    /// Runs `swap`, which publishes a new serving generation, under this
    /// lock and moves the marks with it, so the pointer and the marks never
    /// disagree. The new generation's artifact holds the first `folded`
    /// records (a compaction's fold, else `0`): they drop out and the base
    /// advances by as many, so every position — and each follower's acked
    /// watermark — stays where it was. Its towers hold the next `refreshed`.
    fn published(&self, folded: usize, refreshed: usize, swap: impl FnOnce()) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        swap();
        inner.records.drain(..folded);
        inner.base += folded as u64;
        inner.refreshed = refreshed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64) -> WalRecord {
        WalRecord { seq, user: 1, item: 2, rating: 4.0, ts: 100 + seq as i64, text: format!("review {seq}") }
    }

    #[test]
    fn ingest_log_reads_from_its_base_in_wal_order() {
        // Three records folded by a compaction; three replayed above them
        // in WAL order, which is not seq order.
        let log = IngestLog::new(3, vec![rec(7), rec(5), rec(6)]);
        assert_eq!(log.count(), 6);
        let seqs = |from, max| {
            log.read(from, max).map(|batch| {
                assert!(batch.iter().all(ReplRecordDto::verify), "every record is sealed");
                batch.iter().map(|r| r.seq).collect::<Vec<_>>()
            })
        };
        assert_eq!(seqs(3, 16), Ok(vec![7, 5, 6]));
        assert_eq!(seqs(4, 1), Ok(vec![5]));
        assert_eq!(seqs(6, 16), Ok(vec![]), "the end of the log reads empty");
        assert_eq!(seqs(2, 16), Err(3), "a folded position is below the base");
    }

    #[test]
    fn drain_folded_keeps_positions_absolute_across_repeated_drains() {
        let log = IngestLog::new(0, (1..=4).map(rec).collect());
        log.published(4, 0, || ());
        assert_eq!(log.count(), 4, "folding must not rewind the count");
        assert_eq!(log.read(0, 16), Err(4));
        // The next record takes the next absolute position.
        assert_eq!(log.push(rec(5)), (5, 1));
        assert_eq!(log.read(4, 16).map(|batch| batch[0].seq), Ok(5));
        // A second drain moves the base again.
        log.published(1, 0, || ());
        assert_eq!(log.count(), 5);
        assert_eq!(log.read(4, 16), Err(5));
        assert_eq!(log.read(5, 16), Ok(vec![]));
    }
}
