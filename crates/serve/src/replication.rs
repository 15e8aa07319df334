//! Intra-shard WAL replication: the shell around [`ReplicaState`], the
//! sans-IO core that makes every protocol decision ([`crate::replica`]).
//!
//! One replica per shard is the *ingest leader*; the rest are followers.
//! The leader appends each accepted review to its own WAL, then ships it to
//! every follower through the `Replicate` wire op — batched, CRC-checked
//! per record, contiguous in *log position*. The shippers and the
//! `replicated_seq` gauge read the engine's one in-memory store of
//! unfolded records; followers apply shipped records through the engine's
//! one append path, the one client ingest takes. A record is refused at
//! ingest when its one-record `Replicate` line could exceed the wire's
//! `MAX_LINE_BYTES`; the shipper sizes each batch by its records' encoded
//! length, so every accepted record can always be shipped.
//!
//! This module holds the state under the replication lock (its place in
//! the lock order: the [`crate::ingest`] module docs) and does what the
//! state's answers name: it writes the epoch file before a term is
//! installed, runs one shipper thread per follower — each on one
//! [`rrre_client::LineConn`], redialled every `RECONNECT_BACKOFF` after any
//! error — and parks quorum waiters on a condvar every follower answer
//! pokes. At [`AckLevel::Quorum`] an ingest ack waits for a majority of the
//! replica set (leader included); one that cannot form before the timeout
//! is refused `Unavailable` *without* retracting local durability, so the
//! client retries with the same seq. Convergence is push-only: a replica
//! no leader ships to — one missing from the leader's followers and from
//! every `Promote` peer set — receives nothing.

use crate::ingest::IngestLog;
use crate::replica::{Fenced, Refusal, ReplicaState, Ship, Traffic};
use crate::wal::WalRecord;
use rrre_client::LineConn;
use rrre_tensor::serialize::replace_durably;
use rrre_wire::{ErrorKind, ReplRecordDto, Request, MAX_LINE_BYTES};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// File inside the artifact directory persisting the replication epoch.
/// Written atomically (tmp + rename + fsync) before any action under the
/// new term, so a crashed-and-restarted replica can never un-fence itself.
pub const EPOCH_FILE: &str = "repl_epoch";

/// How many records one `Replicate` batch may carry.
const BATCH_MAX: usize = 16;
/// Soft byte budget for the encoded records of one `Replicate` batch; a
/// batch always carries at least one record.
const BATCH_BYTE_BUDGET: usize = 8 * 1024;
/// Sleep between attempts on a dead or refusing follower link.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(50);
/// Bound on one dial and on each half of one `Replicate` round trip.
const SHIP_TIMEOUT: Duration = Duration::from_secs(2);

/// When an `IngestReview` ack is released to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckLevel {
    /// Ack after the leader's own fsync — single-copy durability, the
    /// pre-replication behaviour.
    Leader,
    /// Ack only once a majority of the replica set holds the record
    /// durably (leader plus `⌈(n+1)/2⌉ - 1` followers).
    Quorum,
}

/// Which side of the replication protocol this replica starts on.
#[derive(Debug, Clone)]
pub enum ReplRole {
    /// Ingest leader: accepts `IngestReview`, ships to `followers`, at
    /// term `epoch` — unless an earlier incarnation persisted a higher
    /// term, which it then only follows ([`ReplicaState::open`]).
    Leader {
        /// Follower replica addresses to ship the WAL to.
        followers: Vec<String>,
        /// Requested starting epoch (≥ 1).
        epoch: u64,
    },
    /// Follower: refuses client ingest with `NotLeader` and applies the
    /// `Replicate` shipments a leader sends it.
    Follower {
        /// Last known leader address (the `NotLeader` redirect hint);
        /// `None` when not yet known.
        leader: Option<String>,
    },
}

/// Replication knobs ([`crate::Engine::open_replicated`]).
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Starting role.
    pub role: ReplRole,
    /// Ack durability level for client ingest.
    pub ack: AckLevel,
    /// How long a quorum ack may wait before refusing `Unavailable`.
    pub quorum_timeout: Duration,
    /// This replica's own advertised address, shipped to followers so they
    /// can hand out `NotLeader` redirects that point at the right place.
    pub self_addr: Option<String>,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self {
            role: ReplRole::Follower { leader: None },
            ack: AckLevel::Quorum,
            quorum_timeout: Duration::from_secs(5),
            self_addr: None,
        }
    }
}

/// Why a quorum ack was not released.
#[derive(Debug, PartialEq, Eq)]
pub enum QuorumError {
    /// This replica was fenced mid-wait (a higher term reached it); the
    /// hint, when present, names the new leader.
    Deposed(Option<String>),
    /// The quorum did not form before the timeout. The record *is* locally
    /// durable; a client retry with the same seq waits again.
    Timeout,
}

/// Shared replication state attached to an ingest-enabled engine.
pub struct Replication {
    /// Ack level for client ingest.
    pub ack: AckLevel,
    quorum_timeout: Duration,
    /// This replica's advertised address (`peers[0]` of every shipment).
    pub(crate) self_addr: Option<String>,
    dir: PathBuf,
    /// The engine's store of unfolded records, which the shippers ship
    /// from and whose count is the `replicated_seq` watermark.
    log: Arc<IngestLog>,
    inner: Mutex<ReplicaState>,
    /// Poked on: log appends (shippers wake), follower acks (quorum
    /// waiters wake), term changes and shutdown (everyone wakes to exit).
    cv: Condvar,
    stop: AtomicBool,
    shippers: Mutex<Vec<JoinHandle<()>>>,
}

impl Replication {
    /// Builds the replication state for an artifact directory over the
    /// engine's `log`, loading (or initialising) the persisted epoch.
    pub(crate) fn open(dir: &Path, cfg: ReplicationConfig, log: Arc<IngestLog>) -> io::Result<Self> {
        let persist = |epoch| persist_epoch(dir, epoch);
        let (state, demoted) =
            ReplicaState::open(load_epoch(dir)?, &cfg.role, cfg.self_addr.clone(), persist)?;
        if let Some(why) = demoted {
            eprintln!("rrre-serve: {why}");
        }
        Ok(Self {
            ack: cfg.ack,
            quorum_timeout: cfg.quorum_timeout,
            self_addr: cfg.self_addr,
            dir: dir.to_path_buf(),
            log,
            inner: Mutex::new(state),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            shippers: Mutex::new(Vec::new()),
        })
    }

    fn lock(&self) -> MutexGuard<'_, ReplicaState> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wakes every waiter (shippers, quorum waits) to re-check state. It
    /// takes their lock first: a change made before this call (a log push
    /// included, though the log has its own lock) cannot fall between a
    /// waiter's check and its wait.
    pub(crate) fn notify(&self) {
        let _checked = self.lock();
        self.cv.notify_all();
    }

    /// Current persisted epoch.
    pub fn current_epoch(&self) -> u64 {
        self.lock().epoch()
    }

    /// Whether this replica currently acts as ingest leader (promoted and
    /// not fenced).
    pub fn is_leader(&self) -> bool {
        self.lock().is_leader()
    }

    /// The `NotLeader` redirect hint.
    pub fn leader_hint(&self) -> Option<String> {
        self.lock().hint().map(str::to_string)
    }

    /// `(epoch, replicated_seq, replication_lag)` for the stats snapshot.
    pub fn stats(&self) -> (u64, u64, u64) {
        let state = self.lock();
        let count = self.log.count();
        (state.epoch(), count, state.lag(count))
    }

    /// Blocks until `target` records are durable on a quorum of the
    /// replica set, the replica is fenced, or the timeout lapses.
    pub fn quorum_wait(&self, target: u64) -> Result<(), QuorumError> {
        let deadline = Instant::now() + self.quorum_timeout;
        let mut state = self.lock();
        loop {
            match state.quorum(target) {
                Ok(true) => return Ok(()),
                Err(hint) => return Err(QuorumError::Deposed(hint)),
                Ok(false) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(QuorumError::Timeout);
            }
            let left = deadline - now;
            state = self.cv.wait_timeout(state, left).unwrap_or_else(|e| e.into_inner()).0;
        }
    }

    /// Fences a term read off the wire (`epoch`; absent, the current term)
    /// under the replication lock: the state judges it and, for a new
    /// term, the epoch file is written before the state installs it.
    /// Returns the term in force afterwards.
    pub(crate) fn fence(&self, epoch: Option<u64>, traffic: Traffic) -> Result<u64, Refusal> {
        let mut state = self.lock();
        let term = match state.fence(epoch, &traffic)? {
            Fenced::Current(term) if !matches!(traffic, Traffic::Promote(_)) => return Ok(term),
            Fenced::Current(term) => term,
            Fenced::Adopt(term) => state.install(term, &traffic, |e| persist_epoch(&self.dir, e))?,
        };
        // Shippers of the old term and quorum waiters re-check and leave.
        self.cv.notify_all();
        Ok(term)
    }

    /// Installs this replica as leader under `epoch` (strictly higher than
    /// the current term — or the same term as a peer-set refresh on the
    /// acting leader), shipping to `peers`. Spawns a fresh shipper per
    /// follower; shippers of any earlier promotion observe the generation
    /// bump and exit on their own, so a same-term refresh replaces its
    /// shippers instead of duplicating them.
    pub(crate) fn promote(self: &Arc<Self>, epoch: u64, peers: Vec<String>) -> Result<(), Refusal> {
        self.fence(Some(epoch), Traffic::Promote(peers))?;
        self.spawn_shippers();
        Ok(())
    }

    /// Spawns one shipper thread per follower of the *current* promotion.
    pub(crate) fn spawn_shippers(self: &Arc<Self>) {
        let (epoch, gen, followers) = {
            let state = self.lock();
            let (followers, gen) = state.shipping();
            (state.epoch(), gen, followers.to_vec())
        };
        let mut handles = self.shippers.lock().unwrap_or_else(|e| e.into_inner());
        // Superseded shippers exit on their own (they check the epoch and
        // generation); reap the already-finished ones so the vec stays
        // bounded.
        handles.retain(|h| !h.is_finished());
        for addr in followers {
            let repl = Arc::clone(self);
            let handle = std::thread::Builder::new()
                .name(format!("rrre-repl-ship-{addr}"))
                .spawn(move || shipper_loop(&repl, &addr, epoch, gen))
                .expect("failed to spawn replication shipper");
            handles.push(handle);
        }
    }

    /// Stops every replication thread and joins them. Idempotent.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.notify();
        let handles = std::mem::take(&mut *self.shippers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// One follower's shipping loop: under the replication lock the state
/// names what to ship (or to wait, park or exit); the batch is read from
/// the log, sized, sent without the lock, and the follower's answer handed
/// back to the state. Exits when the state says this shipper's term,
/// promotion or leadership is gone, or the engine stops.
fn shipper_loop(repl: &Arc<Replication>, addr: &str, my_epoch: u64, my_gen: u64) {
    let mut conn: Option<LineConn> = None;
    let (mut link_failures, mut diverged) = (0u64, 0u64);
    let self_addr = repl.self_addr.as_deref();
    // Record bytes one line may carry: the soft budget, and never more than
    // the follower's line cap leaves beside the widest envelope.
    let room = MAX_LINE_BYTES
        .saturating_sub(replicate_line_len(Vec::new(), self_addr))
        .min(BATCH_BYTE_BUDGET);
    loop {
        // Decide what to ship under the lock; never hold it across I/O.
        let (from, mut batch) = {
            let mut state = repl.lock();
            loop {
                if repl.stopping() {
                    return;
                }
                let (count, base) = repl.log.bounds();
                match state.ship(addr, my_epoch, my_gen, count, base) {
                    Ship::Exit => return,
                    Ship::Send(from) => {
                        // Unreadable only if a compaction moved the base
                        // since `bounds`: wait like any follower below it.
                        if let Ok(batch) = repl.log.read(from, BATCH_MAX) {
                            break (from, batch);
                        }
                    }
                    // Caught up, or below the base: wait for appends (or
                    // exit signals).
                    Ship::Wait => {}
                }
                let wait = Duration::from_millis(200);
                state = repl.cv.wait_timeout(state, wait).unwrap_or_else(|e| e.into_inner()).0;
            }
        };
        // Size by encoded length, not text length: JSON escaping can
        // multiply a text's size. The first record always goes; ingest
        // refused any record whose one-record line could not fit.
        let mut bytes = 0usize;
        let over = batch.iter().position(|rec| {
            let len = serde_json::to_string(rec).map_or(usize::MAX, |json| json.len());
            bytes = bytes.saturating_add(len.saturating_add(1));
            bytes > room
        });
        batch.truncate(over.map_or(batch.len(), |i| i.max(1)));
        repl.lock().sent(addr, (my_epoch, my_gen), from, batch.len() as u64);
        let req = replicate_request(my_epoch, from, batch, self_addr);
        // Any error leaves the link at an unknown point: drop it, redial.
        let shipped = match conn.take() {
            Some(link) => Ok(link),
            None => LineConn::dial(addr, SHIP_TIMEOUT).map_err(|e| e.to_string()),
        }
        .and_then(|mut link| {
            let resp = link.exchange(&req, SHIP_TIMEOUT).map_err(|e| e.to_string())?;
            Ok((link, resp))
        });
        let resp = match shipped {
            Ok((link, resp)) => {
                conn = Some(link);
                resp
            }
            Err(e) => {
                log_link_failure(&mut link_failures, addr, &e);
                std::thread::sleep(RECONNECT_BACKOFF);
                continue;
            }
        };
        link_failures = 0;
        match (resp.ok, resp.replicated) {
            (true, Some(count)) => {
                let own = repl.log.count();
                let absorbed = repl.lock().absorb(addr, (my_epoch, my_gen), count, own);
                match absorbed {
                    Err(count) => {
                        let why = format!("its log diverged ({count} records to our {own})");
                        log_link_failure(&mut diverged, addr, &why);
                        std::thread::sleep(RECONNECT_BACKOFF);
                    }
                    Ok(true) => repl.notify(),
                    Ok(false) => {}
                }
            }
            // A follower already serves a higher term. Adopting it ends this
            // replica's leadership, and with it this shipper.
            _ if resp.kind == Some(ErrorKind::StaleEpoch) => {
                if let Err(refusal) = repl.fence(resp.epoch, Traffic::Peer(None)) {
                    eprintln!("rrre-serve: shipper to {addr} cannot adopt its term: {refusal:?}");
                    std::thread::sleep(RECONNECT_BACKOFF);
                }
            }
            // A refusal we cannot act on: back off and retry from the
            // follower's next report.
            _ => std::thread::sleep(RECONNECT_BACKOFF),
        }
    }
}

/// The `Replicate` request a leader ships. `peers[0]` carries its
/// advertised address so followers can hand out accurate `NotLeader`
/// redirects.
fn replicate_request(
    epoch: u64,
    from: u64,
    records: Vec<ReplRecordDto>,
    self_addr: Option<&str>,
) -> Request {
    let mut req = Request::replicate(epoch, from, records);
    req.peers = self_addr.map(|addr| vec![addr.to_string()]);
    req
}

/// Length of the `Replicate` line that ships `records`, with the epoch and
/// `from` at their widest.
fn replicate_line_len(records: Vec<ReplRecordDto>, self_addr: Option<&str>) -> usize {
    let req = replicate_request(u64::MAX, u64::MAX, records, self_addr);
    serde_json::to_string(&req).map_or(usize::MAX, |line| line.len())
}

/// Whether `rec` can always be shipped: its one-record `Replicate` line,
/// with the epoch, `from`, seq, ts and CRC at their widest, fits a
/// follower's `MAX_LINE_BYTES` — whatever term or position it ships at.
pub(crate) fn fits_one_replicate(rec: &WalRecord, self_addr: Option<&str>) -> bool {
    let widest =
        ReplRecordDto { seq: u64::MAX, ts: i64::MIN, crc: u32::MAX, ..rec.clone().into() };
    replicate_line_len(vec![widest], self_addr) <= MAX_LINE_BYTES
}

/// Logs a repeatedly-failing follower link on the first consecutive failure
/// and every 100th thereafter — a dead or misconfigured follower address is
/// visible in the logs without flooding them at the retry cadence.
fn log_link_failure(failures: &mut u64, addr: &str, err: &str) {
    *failures += 1;
    if *failures == 1 || failures.is_multiple_of(100) {
        eprintln!(
            "rrre-serve: replication shipper link to {addr} failing \
             ({} consecutive attempts): {err}",
            *failures
        );
    }
}

/// Loads the persisted epoch (absent file → 0, never been promoted).
pub fn load_epoch(dir: &Path) -> io::Result<u64> {
    match fs::read_to_string(dir.join(EPOCH_FILE)) {
        Ok(text) => text.trim().parse::<u64>().map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad {EPOCH_FILE}: {e}"))
        }),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(e),
    }
}

/// Persists the epoch atomically and durably (tmp, fsync, rename,
/// directory fsync — [`rrre_tensor::serialize::replace_durably`]): after
/// this returns, a restart can never come back up fenced at a lower term.
/// Two concurrent calls on one directory share the tmp file, so a live
/// replica makes this call only under its replication lock.
pub fn persist_epoch(dir: &Path, epoch: u64) -> io::Result<()> {
    replace_durably(dir, EPOCH_FILE, epoch.to_string().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rrre-repl-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn leader_cfg(followers: Vec<String>, epoch: u64) -> ReplicationConfig {
        ReplicationConfig {
            role: ReplRole::Leader { followers, epoch },
            quorum_timeout: Duration::from_millis(200),
            ..ReplicationConfig::default()
        }
    }

    /// Replication over an empty store.
    fn open(dir: &Path, cfg: ReplicationConfig) -> Arc<Replication> {
        Arc::new(Replication::open(dir, cfg, Arc::new(IngestLog::new(0, Vec::new()))).unwrap())
    }

    #[test]
    fn epoch_persists_and_higher_term_wins_on_reopen() {
        let dir = tmp("epoch");
        assert_eq!(load_epoch(&dir).unwrap(), 0);
        let repl = open(&dir, leader_cfg(vec![], 1));
        assert_eq!(repl.current_epoch(), 1);
        assert_eq!(load_epoch(&dir).unwrap(), 1);
        persist_epoch(&dir, 7).unwrap();
        // Reopening as leader with a stale requested epoch keeps the
        // persisted (higher) term — a fenced replica can't self-unfence —
        // and follows it: the term may be another replica's.
        let repl = open(&dir, leader_cfg(vec![], 2));
        assert_eq!(repl.current_epoch(), 7);
        assert!(!repl.is_leader());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quorum_wait_releases_on_follower_ack_and_times_out_without() {
        let dir = tmp("quorum");
        let repl = open(&dir, leader_cfg(vec!["f1".into(), "f2".into()], 1));
        // 3-replica set: quorum is 2, so one follower ack releases.
        assert_eq!(repl.quorum_wait(1), Err(QuorumError::Timeout));
        {
            let mut state = repl.lock();
            let gen = state.shipping().1;
            state.sent("f1", (1, gen), 0, 5);
            assert_eq!(state.absorb("f1", (1, gen), 5, 5), Ok(true));
        }
        repl.notify();
        assert_eq!(repl.quorum_wait(5), Ok(()));
        assert_eq!(repl.quorum_wait(6), Err(QuorumError::Timeout));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deposed_leader_fails_quorum_waits_immediately() {
        let dir = tmp("deposed");
        let repl = open(&dir, leader_cfg(vec!["f1".into()], 3));
        repl.fence(Some(4), Traffic::Peer(Some("10.0.0.9:4000".into()))).unwrap();
        assert!(!repl.is_leader());
        match repl.quorum_wait(1) {
            Err(QuorumError::Deposed(hint)) => assert_eq!(hint.as_deref(), Some("10.0.0.9:4000")),
            other => panic!("expected deposed, got {other:?}"),
        }
        assert_eq!(load_epoch(&dir).unwrap(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn promote_installs_the_new_term_and_clears_deposal() {
        let dir = tmp("promote");
        let repl = open(&dir, ReplicationConfig::default());
        assert!(!repl.is_leader());
        repl.promote(2, vec![]).unwrap();
        assert!(repl.is_leader());
        assert_eq!(repl.current_epoch(), 2);
        assert_eq!(load_epoch(&dir).unwrap(), 2);
        // Quorum of a 1-replica set is the leader alone: waits release
        // immediately.
        assert_eq!(repl.quorum_wait(10), Ok(()));
        // Fenced by a higher term, then promoted above it: leading again.
        repl.fence(Some(3), Traffic::Peer(None)).unwrap();
        assert!(!repl.is_leader());
        assert!(matches!(repl.promote(3, vec![]), Err(Refusal::Stale { got: 3, current: 3 })));
        repl.promote(4, vec![]).unwrap();
        assert!(repl.is_leader());
        repl.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_term_peer_refresh_replaces_rather_than_duplicates_shippers() {
        let dir = tmp("peer-refresh");
        let repl = open(&dir, leader_cfg(vec!["127.0.0.1:1".into()], 1));
        repl.spawn_shippers();
        // Each refresh bumps the shipper generation; superseded shippers
        // observe the bump and exit instead of running duplicates.
        for _ in 0..3 {
            repl.promote(1, vec!["127.0.0.1:1".into()]).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let live = repl
                .shippers
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .filter(|h| !h.is_finished())
                .count();
            if live <= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{live} shipper threads still live after same-term refreshes"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        repl.stop();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_report_lag_to_the_slowest_follower() {
        let dir = tmp("lag");
        let rec = |seq| WalRecord { seq, user: 0, item: 0, rating: 4.0, ts: 0, text: String::new() };
        // Ten records folded, four not: the watermark is 14.
        let log = Arc::new(IngestLog::new(10, (0..4).map(rec).collect()));
        let cfg = leader_cfg(vec!["f1".into(), "f2".into()], 1);
        let repl = Replication::open(&dir, cfg, Arc::clone(&log)).unwrap();
        {
            let mut state = repl.lock();
            let gen = state.shipping().1;
            state.sent("f1", (1, gen), 10, 4);
            state.sent("f2", (1, gen), 10, 1);
            assert_eq!(state.absorb("f1", (1, gen), 14, 14), Ok(true));
            assert_eq!(state.absorb("f2", (1, gen), 11, 14), Ok(true));
        }
        assert_eq!(repl.stats(), (1, 14, 3), "lag is to the slowest follower");
        // Replication reads the engine's store itself: one push moves it.
        log.push(rec(4));
        assert_eq!(repl.stats(), (1, 15, 4));
        fs::remove_dir_all(&dir).unwrap();
    }
}
