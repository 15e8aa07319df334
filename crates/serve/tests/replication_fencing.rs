//! Epoch fencing on the replication *catch-up* path, and replication-log
//! hygiene across compaction.
//!
//! The push path (`Replicate`) was fenced from the start; these drills pin
//! the pull path (`FetchWal`) to the same contract:
//!
//! * a requester carrying a **stale** term is refused `StaleEpoch` and
//!   learns the current term from the response;
//! * a requester carrying a **higher** term proves the serving replica was
//!   fenced — it must refuse (its log may hold records the new term never
//!   committed), adopt the higher term, and depose any local leadership,
//!   so a follower whose `leader_hint` still names a partitioned old
//!   leader can never pull that leader's uncommitted records;
//! * compaction drains the folded prefix out of the in-memory ingest log
//!   and advances its base (bounded memory), while absolute positions —
//!   and therefore follower ack watermarks — stay intact; a reopen serves
//!   the replayed records from the ledger's base;
//! * a record whose one-record `Replicate` line could outgrow the wire's
//!   line cap is refused before the WAL, so no accepted record can stall
//!   the quorum behind it.

use rrre_serve::{
    AckLevel, Engine, EngineConfig, ErrorKind, IngestConfig, ModelArtifact, ReplRole,
    ReplicationConfig, Request,
};
use rrre_testkit::{trained_fixture, ReplicatedDeployment, TempDir};
use rrre_wire::MAX_LINE_BYTES;
use std::path::Path;
use std::time::{Duration, Instant};

fn saved_fixture(tag: &str) -> TempDir {
    let fx = trained_fixture();
    let dir = TempDir::new(tag);
    ModelArtifact::save(dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count()).unwrap();
    dir
}

/// A standalone leader at `epoch` with no followers: quorum of one, so
/// every ingest acks immediately and the drills stay single-process.
fn open_leader(dir: &Path, epoch: u64) -> Engine {
    Engine::open_replicated(
        dir,
        EngineConfig { workers: 2, ..EngineConfig::default() },
        IngestConfig::default(),
        ReplicationConfig {
            role: ReplRole::Leader { followers: vec![], epoch },
            ack: AckLevel::Quorum,
            ..ReplicationConfig::default()
        },
    )
    .expect("replicated open must succeed on an undamaged directory")
}

fn ingest(engine: &Engine, seq: u64) {
    let resp =
        engine.submit(Request::ingest_review(seq, 0, 0, 4.0, format!("review {seq}"), seq as i64));
    assert!(resp.ok, "ingest of seq {seq} refused: {:?}", resp.error);
}

#[test]
fn fetch_wal_refuses_a_stale_requester_with_the_current_term() {
    let dir = saved_fixture("fetchwal-stale-req");
    let engine = open_leader(dir.path(), 3);
    ingest(&engine, 1);

    let resp = engine.submit(Request::fetch_wal(1, 0, 16));
    assert!(!resp.ok);
    assert_eq!(resp.kind, Some(ErrorKind::StaleEpoch));
    // The refusal teaches the stale follower the term to adopt and retry.
    assert_eq!(resp.epoch, Some(3));

    // At the current term the same range serves.
    let resp = engine.submit(Request::fetch_wal(3, 0, 16));
    assert!(resp.ok, "current-term fetch refused: {:?}", resp.error);
    assert_eq!(resp.records.as_ref().map(Vec::len), Some(1));
}

#[test]
fn fetch_wal_from_a_fenced_replica_refuses_and_self_deposes() {
    let dir = saved_fixture("fetchwal-fenced-server");
    let engine = open_leader(dir.path(), 1);
    ingest(&engine, 1);

    // A follower of term 5 (a new leader this deposed one never heard of)
    // pulls catch-up from the old leader. The old leader's log may hold
    // records term 5 never committed — it must refuse, not serve.
    let resp = engine.submit(Request::fetch_wal(5, 0, 16));
    assert!(!resp.ok, "a fenced replica must not serve its log");
    assert_eq!(resp.kind, Some(ErrorKind::StaleEpoch));
    assert!(resp.records.is_none(), "no records may leak past the fence");
    // The response names the term the refusing log was last written under
    // (ours, the lower one) — nothing here is worth adopting.
    assert_eq!(resp.epoch, Some(1));

    // Learning of the higher term fenced us: leadership is gone and the
    // term is persisted, so ingest now redirects instead of acking writes
    // the new term's quorum would never see.
    let repl = engine.replication().expect("replicated engine has replication state");
    assert_eq!(repl.current_epoch(), 5);
    assert!(!repl.is_leader());
    let resp = engine.submit(Request::ingest_review(2, 0, 0, 4.0, "fenced", 2));
    assert!(!resp.ok);
    assert_eq!(resp.kind, Some(ErrorKind::NotLeader));

    // The adopted term survives a restart (it was persisted before the
    // refusal went out).
    drop(engine);
    let reopened = open_leader(dir.path(), 1);
    assert_eq!(
        reopened.replication().unwrap().current_epoch(),
        5,
        "a fenced replica must not resurrect its old term on reopen"
    );
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

    // Folded positions left the in-memory log: fetching below the new base
    // is a structured refusal (that follower needs an artifact resync)...
    let resp = engine.submit(Request::fetch_wal(1, 0, 16));
    assert!(!resp.ok);
    assert_eq!(resp.kind, Some(ErrorKind::BadRequest));
    assert!(
        resp.error.as_deref().unwrap_or_default().contains("resync"),
        "refusal should point at a resync: {:?}",
        resp.error
    );

    // ...while the live tail still serves: a new record lands at the next
    // absolute position and is fetchable from there.
    ingest(&engine, 5);
    let resp = engine.submit(Request::fetch_wal(1, 4, 16));
    assert!(resp.ok, "post-compaction tail fetch refused: {:?}", resp.error);
    let records = resp.records.expect("tail fetch returns records");
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].seq, 5);
    assert_eq!(resp.replicated, Some(5));

    // Repeated compactions keep draining (bounded memory, not one-shot).
    let (folded, _) = engine.compact_now().expect("second compaction must succeed");
    assert_eq!(folded, 1);
    let resp = engine.submit(Request::fetch_wal(1, 4, 16));
    assert!(!resp.ok, "position 4 was folded by the second compaction");
    assert_eq!(resp.kind, Some(ErrorKind::BadRequest));
}

#[test]
fn a_reopen_serves_the_replayed_records_from_the_ledger_base() {
    let dir = saved_fixture("reopen-ledger-and-wal");
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
    let resp = engine.submit(Request::fetch_wal(1, 3, 16));
    assert!(resp.ok, "fetch from the ledger base refused: {:?}", resp.error);
    assert_eq!(resp.replicated, Some(6));
    let records = resp.records.expect("fetch returns records");
    assert!(records.iter().all(|r| r.verify()), "every record is sealed");
    let got: Vec<(u64, &str)> = records.iter().map(|r| (r.seq, r.text.as_str())).collect();
    assert_eq!(got, [(7, "review 7"), (5, "review 5"), (6, "review 6")], "WAL order");
    // The folded records sit below the base.
    let resp = engine.submit(Request::fetch_wal(1, 2, 16));
    assert_eq!(resp.kind, Some(ErrorKind::BadRequest), "{:?}", resp.error);
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

#[test]
fn fetch_wal_without_an_epoch_still_serves_for_compatibility() {
    // Requests from peers that predate the fence carry no epoch; they are
    // served (the push path still fences them the moment they apply).
    let dir = saved_fixture("fetchwal-epochless");
    let engine = open_leader(dir.path(), 2);
    ingest(&engine, 1);
    let req = Request { epoch: None, ..Request::fetch_wal(2, 0, 16) };
    let resp = engine.submit(req);
    assert!(resp.ok, "epochless fetch refused: {:?}", resp.error);
    assert_eq!(resp.records.map(|r| r.len()), Some(1));
}
