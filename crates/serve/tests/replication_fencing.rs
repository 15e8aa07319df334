//! Epoch fencing of every term a replica reads off the wire, and ingest-log
//! hygiene across compaction.
//!
//! Every wire term is judged by one fence under the replication lock. These
//! drills pin that contract:
//!
//! * concurrent higher terms only ever move the epoch forward, in memory and
//!   on disk alike, and every lower one is refused `StaleEpoch`;
//! * a higher-term `Replicate` deposes a leader, which then redirects
//!   ingest with `NotLeader` and keeps the term — as a follower — across a
//!   reopen with its old flags;
//! * a fenced leader never names itself as the leader, whether the higher
//!   term arrived in a `Replicate` or as a follower's refusal of its shipper;
//! * a stale-term `IngestReview` is refused before the WAL;
//! * a follower applies a `Replicate` batch by log position: it skips the
//!   prefix it holds, applies nothing across a gap, and refuses a known seq
//!   at a new position or a record failing its CRC without touching the
//!   WAL;
//! * compaction drains the folded prefix out of the in-memory ingest log
//!   while `replicated_seq`, an absolute position, stays put, and a reopen
//!   counts folded and replayed records alike (what the drained log serves
//!   from where is `ingest.rs`'s `IngestLog` tests);
//! * a record whose one-record `Replicate` line could outgrow the wire's
//!   line cap is refused before the WAL, so no accepted record can stall
//!   the quorum behind it.

use rrre_serve::replication::load_epoch;
use rrre_serve::{
    AckLevel, Engine, EngineConfig, ErrorKind, IngestConfig, ModelArtifact, ReplRole,
    ReplicationConfig, Request, Server,
};
use rrre_testkit::{trained_fixture, ReplicatedDeployment, TempDir};
use rrre_wire::{ReplRecordDto, MAX_LINE_BYTES};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The address the fenced leaders below advertise; nothing listens there.
const FENCED_SELF: &str = "10.9.9.9:7000";

fn saved_fixture(tag: &str) -> TempDir {
    let fx = trained_fixture();
    let dir = TempDir::new(tag);
    ModelArtifact::save(dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count()).unwrap();
    dir
}

fn open(dir: &Path, workers: usize, role: ReplRole, self_addr: Option<&str>) -> Engine {
    Engine::open_replicated(
        dir,
        EngineConfig { workers, ..EngineConfig::default() },
        IngestConfig::default(),
        ReplicationConfig {
            role,
            ack: AckLevel::Quorum,
            self_addr: self_addr.map(str::to_string),
            ..ReplicationConfig::default()
        },
    )
    .expect("replicated open must succeed on an undamaged directory")
}

/// A standalone leader at `epoch` with no followers: quorum of one, so
/// every ingest acks immediately and the drills stay single-process.
fn open_leader(dir: &Path, epoch: u64) -> Engine {
    open(dir, 2, ReplRole::Leader { followers: vec![], epoch }, None)
}

/// A follower that knows no leader yet.
fn open_follower(dir: &Path, workers: usize, self_addr: Option<&str>) -> Engine {
    open(dir, workers, ReplRole::Follower { leader: None }, self_addr)
}

fn ingest(engine: &Engine, seq: u64) {
    let resp =
        engine.submit(Request::ingest_review(seq, 0, 0, 4.0, format!("review {seq}"), seq as i64));
    assert!(resp.ok, "ingest of seq {seq} refused: {:?}", resp.error);
}

#[test]
fn concurrent_higher_terms_only_move_the_epoch_forward_in_memory_and_on_disk() {
    const THREADS: u64 = 8;
    let dir = saved_fixture("concurrent-terms");
    let engine = open_follower(dir.path(), 4, None);
    let repl = engine.replication().expect("replicated engine has replication state");
    for round in 0..10u64 {
        // Forty fresh terms, dealt round-robin to the threads, each sending
        // its share highest first: most frames race a higher one.
        let top = 41 + 40 * round;
        let barrier = Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (engine, barrier) = (&engine, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for epoch in (top - 39..=top).rev().filter(|e| e % THREADS == t) {
                        let resp = engine.submit(Request::replicate(epoch, 0, Vec::new()));
                        assert!(
                            resp.ok || resp.kind == Some(ErrorKind::StaleEpoch),
                            "round {round}: term {epoch} refused as {:?}: {:?}",
                            resp.kind,
                            resp.error
                        );
                    }
                });
            }
        });
        assert_eq!(repl.current_epoch(), top, "round {round}: the term in memory went back");
        assert_eq!(load_epoch(dir.path()).unwrap(), top, "round {round}: the term on disk differs");
    }
}

#[test]
fn a_higher_term_replicate_deposes_the_leader_and_the_term_survives_a_reopen() {
    let dir = saved_fixture("higher-term-replicate");
    let engine = open_leader(dir.path(), 1);
    ingest(&engine, 1);

    // A leader of term 5, which this one never heard of, ships to it: the
    // partition healed.
    let resp = engine.submit(Request::replicate(5, 1, Vec::new()));
    assert!(resp.ok, "a higher-term probe refused: {:?}", resp.error);

    // Learning of the higher term fenced us: leadership is gone and the
    // term is persisted, so ingest now redirects instead of acking writes
    // the new term's quorum would never see.
    let repl = engine.replication().expect("replicated engine has replication state");
    assert_eq!(repl.current_epoch(), 5);
    assert!(!repl.is_leader());
    let resp = engine.submit(Request::ingest_review(2, 0, 0, 4.0, "fenced", 2));
    assert!(!resp.ok);
    assert_eq!(resp.kind, Some(ErrorKind::NotLeader));

    // The adopted term survives a restart (it was persisted before it was
    // installed), and the old flags do not make the replica lead it: term
    // 5 has its own leader.
    drop(engine);
    let reopened = open_leader(dir.path(), 1);
    let repl = reopened.replication().unwrap();
    assert_eq!(repl.current_epoch(), 5, "a fenced replica must not resurrect its old term on reopen");
    assert!(!repl.is_leader(), "a leader restarted below its persisted term leads that term");
    let resp = reopened.submit(Request::ingest_review(2, 0, 0, 4.0, "restarted", 2));
    assert_eq!(resp.kind, Some(ErrorKind::NotLeader), "{:?}", resp.error);
}

/// The redirect a fenced replica hands a client: `NotLeader`, naming
/// anyone but the replica itself.
fn assert_redirects_elsewhere(engine: &Engine) {
    let resp = engine.submit(Request::ingest_review(1, 0, 0, 4.0, "fenced", 1));
    assert_eq!(resp.kind, Some(ErrorKind::NotLeader), "{:?}", resp.error);
    assert_ne!(resp.leader.as_deref(), Some(FENCED_SELF), "a fenced leader redirects to itself");
}

#[test]
fn a_leader_fenced_by_a_replicate_naming_no_leader_redirects_to_nobody() {
    let dir = saved_fixture("fenced-hintless");
    let engine = open_follower(dir.path(), 2, Some(FENCED_SELF));
    assert!(engine.submit(Request::promote(2, Vec::new())).ok);
    let resp = engine.submit(Request::replicate(4, 0, Vec::new()));
    assert!(resp.ok, "a higher-term probe refused: {:?}", resp.error);
    assert_redirects_elsewhere(&engine);
    assert_eq!(engine.replication().unwrap().leader_hint(), None);
}

#[test]
fn a_leader_fenced_through_its_shipper_never_redirects_to_itself() {
    // A follower already at term 5, behind a real socket.
    let follower_dir = saved_fixture("fenced-by-shipper-follower");
    let follower = Arc::new(open_follower(follower_dir.path(), 2, None));
    assert!(follower.submit(Request::replicate(5, 0, Vec::new())).ok);
    let server = Server::start(Arc::clone(&follower), "127.0.0.1:0").expect("loopback bind");
    let follower_addr = server.local_addr().to_string();

    // A leader promoted to term 2 shipping to it: the first probe is
    // refused `StaleEpoch` naming term 5.
    let dir = saved_fixture("fenced-by-shipper-leader");
    let engine = open_follower(dir.path(), 2, Some(FENCED_SELF));
    assert!(engine.submit(Request::promote(2, vec![follower_addr])).ok);
    let repl = engine.replication().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while repl.current_epoch() < 5 {
        assert!(Instant::now() < deadline, "the shipper never adopted the follower's term");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(!repl.is_leader());
    assert_redirects_elsewhere(&engine);
}

#[test]
fn a_stale_term_ingest_is_refused_before_the_wal() {
    let dir = saved_fixture("ingest-stale-term");
    let engine = open_leader(dir.path(), 3);
    let before = engine.stats();
    let stale = Request { epoch: Some(1), ..Request::ingest_review(1, 0, 0, 4.0, "stale", 1) };
    let resp = engine.submit(stale);
    assert_eq!(resp.kind, Some(ErrorKind::StaleEpoch), "{:?}", resp.error);
    assert_eq!(resp.epoch, Some(3), "the refusal names the current term");
    let after = engine.stats();
    assert_eq!(after.stale_epoch_rejections, before.stale_epoch_rejections + 1);
    assert_eq!(after.wal_bytes, before.wal_bytes, "refused, yet written");
    assert_eq!(after.ingested, 0);
}

#[test]
fn a_follower_applies_replicate_batches_by_log_position() {
    let dir = saved_fixture("replicate-arithmetic");
    let engine = open_follower(dir.path(), 2, None);
    let sealed =
        |seq: u64| ReplRecordDto::sealed(seq, 0, 0, 4.0, seq as i64, format!("review {seq}"));
    let batch = |from: u64, seqs: &[u64]| {
        engine.submit(Request::replicate(1, from, seqs.iter().map(|&s| sealed(s)).collect()))
    };
    let acked = |resp: rrre_serve::Response| {
        assert!(resp.ok, "replicate refused: {:?}", resp.error);
        resp.replicated.expect("an ok Replicate acks its durable count")
    };
    assert_eq!(acked(batch(0, &[1, 2, 3])), 3);

    // Overlap: positions 1 and 2 are known, so only seqs 4 and 5 append.
    let wal_bytes = engine.stats().wal_bytes;
    assert_eq!(acked(batch(1, &[2, 3, 4, 5])), 5, "the known prefix is skipped");
    assert!(engine.stats().wal_bytes > wal_bytes);
    assert_eq!(engine.stats().replicated_seq, 5);

    // Gap: position 7 is past the end, so nothing applies and the
    // unchanged count tells the leader where to rewind to.
    let wal_bytes = engine.stats().wal_bytes;
    assert_eq!(acked(batch(7, &[8])), 5);
    assert_eq!(engine.stats().wal_bytes, wal_bytes, "a gap appended something");

    // A known seq at a new position is a divergence: refused, nothing
    // appended.
    let resp = batch(5, &[3]);
    assert_eq!(resp.kind, Some(ErrorKind::Internal), "{:?}", resp.error);
    assert!(resp.error.as_deref().is_some_and(|e| e.contains("divergence")), "{:?}", resp.error);
    assert_eq!(engine.stats().wal_bytes, wal_bytes, "a divergent record was appended");
    assert_eq!(engine.stats().replicated_seq, 5);

    // A record failing its CRC is refused before the WAL, and so is the
    // sound record ahead of it in the same batch.
    let torn = ReplRecordDto { crc: sealed(7).crc ^ 1, ..sealed(7) };
    let resp = engine.submit(Request::replicate(1, 5, vec![sealed(6), torn]));
    assert_eq!(resp.kind, Some(ErrorKind::Internal), "{:?}", resp.error);
    assert!(resp.error.as_deref().is_some_and(|e| e.contains("CRC")), "{:?}", resp.error);
    assert_eq!(engine.stats().wal_bytes, wal_bytes, "a batch with a bad CRC reached the WAL");
    assert_eq!(engine.stats().replicated_seq, 5);
}

#[test]
fn compaction_trims_the_replication_log_and_keeps_positions_absolute() {
    let dir = saved_fixture("compact-trims-log");
    let engine = open_leader(dir.path(), 1);
    for seq in 1..=4 {
        ingest(&engine, seq);
    }
    assert_eq!(engine.stats().replicated_seq, 4);

    let (folded, _) = engine.compact_now().expect("compaction must succeed");
    assert_eq!(folded, 4);
    // The watermark is an absolute position: folding must not rewind it.
    assert_eq!(engine.stats().replicated_seq, 4);

    // A new record lands at the next absolute position, and repeated
    // compactions keep draining (bounded memory, not one-shot).
    ingest(&engine, 5);
    assert_eq!(engine.stats().replicated_seq, 5);
    let (folded, _) = engine.compact_now().expect("second compaction must succeed");
    assert_eq!(folded, 1);
    assert_eq!(engine.stats().replicated_seq, 5);
}

#[test]
fn a_reopen_serves_the_replayed_records_from_the_folded_base() {
    let dir = saved_fixture("reopen-folded-and-wal");
    let engine = open_leader(dir.path(), 1);
    for seq in 1..=3 {
        ingest(&engine, seq);
    }
    assert_eq!(engine.compact_now().expect("compaction must succeed").0, 3);
    // Left in the WAL, in an order that is not seq order.
    for seq in [7, 5, 6] {
        ingest(&engine, seq);
    }
    drop(engine);

    let engine = open_leader(dir.path(), 1);
    assert_eq!(engine.stats().replicated_seq, 3 + 3, "folded + replayed");
}

#[test]
fn the_longest_shippable_review_quorum_acks_and_one_byte_more_is_refused() {
    let fx = trained_fixture();
    let dep = ReplicatedDeployment::launch(&fx, 3, AckLevel::Quorum);
    let review = |seq: u64, len: usize| {
        Request::ingest_review(seq, 0, 0, 4.0, "x".repeat(len), seq as i64).with_id(seq)
    };
    // Start from the longest text whose own IngestReview line is legal and
    // walk down: every refusal must leave the WAL untouched.
    let mut len = MAX_LINE_BYTES - serde_json::to_string(&review(1, 0)).unwrap().len();
    let wal_bytes = dep.engine(0).unwrap().stats().wal_bytes;
    let mut refused = 0;
    let resp = loop {
        let resp = dep.submit(0, review(1, len));
        if resp.ok {
            break resp;
        }
        assert_eq!(resp.kind, Some(ErrorKind::BadRequest), "len {len}: {:?}", resp.error);
        assert_eq!(dep.engine(0).unwrap().stats().wal_bytes, wal_bytes, "refused, yet written");
        refused += 1;
        len -= 1;
    };
    assert!(refused > 0, "a legal IngestReview line can carry an unshippable review");
    // The longest accepted review acked at quorum, so a follower took it.
    assert_eq!(resp.ingest.map(|i| i.duplicate), Some(false));
    assert_eq!(dep.engine(0).unwrap().stats().ingested, 1);
    // The shipper is not stuck behind it: a short review acks, and every
    // follower acknowledges both.
    let resp = dep.submit(0, review(2, 15));
    assert!(resp.ok, "short review after the longest one refused: {:?}", resp.error);
    assert!(dep.await_convergence(Duration::from_secs(10)), "followers never converged");
    let deadline = Instant::now() + Duration::from_secs(10);
    while dep.engine(0).unwrap().stats().replication_lag > 0 {
        assert!(Instant::now() < deadline, "the leader's replication lag never drained");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn the_replicate_line_bound_counts_json_escapes() {
    let dir = saved_fixture("escaped-review");
    let engine = open_leader(dir.path(), 1);
    // Equal text lengths, but each quote is two bytes once escaped.
    let review = |seq, unit: &str| Request::ingest_review(seq, 0, 0, 4.0, unit.repeat(8_200), 1);
    assert!(engine.submit(review(1, "x")).ok);
    assert_eq!(engine.submit(review(2, "\"")).kind, Some(ErrorKind::BadRequest));
    assert_eq!(engine.stats().ingested, 1);
}
