//! Durable streaming-ingest drills: every acknowledged `IngestReview` must
//! survive any crash and apply to the serving model **exactly once**.
//!
//! The contract under test, end to end:
//!
//! * an ack is a durability promise — the record is fsync'd into the WAL
//!   before the response leaves the engine, so a restart replays it;
//! * sequence ids dedup — a resend (the client's answer to a lost ack)
//!   acks `duplicate: true` without re-applying;
//! * a torn WAL tail (crash mid-write) is repaired by truncation — the torn
//!   record was never acked, so nothing promised is lost;
//! * a complete record failing its CRC mid-log is bit rot, not a crash
//!   artifact — the open fails **closed** rather than serve a guess;
//! * the incremental tower refresh is bit-identical to folding the WAL into
//!   a new artifact generation and reloading it from disk;
//! * compaction commits through a sealed staging directory: no COMMIT
//!   marker → roll back, COMMIT marker → roll forward, and the seq ledger
//!   keeps replay idempotent across every interleaving.

use rrre_core::{explain_with, ColdStartPrior};
use rrre_data::ItemId;
use rrre_serve::artifact::{MANIFEST_FILE, MODEL_FILE};
use rrre_wire::{ExplanationDto, PredictionDto};
use rrre_serve::wal::{self, FsyncPolicy, IngestLedger, SeqSet};
use rrre_serve::{Engine, EngineConfig, IngestConfig, ModelArtifact, Request, WAL_DIR};
use rrre_testkit::fault::{flip_byte, shave_tail, wal_segments};
use rrre_testkit::{trained_fixture, Fixture, TempDir};
use std::path::Path;

fn saved_fixture(tag: &str) -> (TempDir, Fixture) {
    let fx = trained_fixture();
    let dir = TempDir::new(tag);
    ModelArtifact::save(dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count()).unwrap();
    (dir, fx)
}

fn ingest_cfg() -> IngestConfig {
    IngestConfig { fsync: FsyncPolicy::EveryRecord, refresh_every: 1, ..IngestConfig::default() }
}

fn open(dir: &Path, ingest: IngestConfig) -> Engine {
    Engine::open_with_ingest(
        dir,
        EngineConfig { workers: 2, ..EngineConfig::default() },
        ingest,
    )
    .expect("open_with_ingest must succeed on an undamaged directory")
}

/// The deterministic review for sequence id `seq` — the same function the
/// CLI's `ingest` verb uses in spirit: every field derives from the seq,
/// so a resend is byte-identical to the original.
fn review_req(seq: u64, n_users: usize, n_items: usize) -> Request {
    Request::ingest_review(
        seq,
        (seq % n_users as u64) as u32,
        (seq % n_items as u64) as u32,
        1.0 + (seq % 5) as f32,
        format!("review {seq} arrived by stream"),
        1_700_000_000 + seq as i64,
    )
}

/// Ingests `seq` and asserts the ack's duplicate flag.
fn ingest_one(engine: &Engine, seq: u64, n_users: usize, n_items: usize, expect_dup: bool) {
    let resp = engine.submit(review_req(seq, n_users, n_items));
    assert!(resp.ok, "ingest of seq {seq} failed: {:?}", resp.error);
    let ack = resp.ingest.expect("ok IngestReview carries an ingest ack");
    assert_eq!(ack.seq, seq);
    assert_eq!(
        ack.duplicate, expect_dup,
        "seq {seq}: expected duplicate={expect_dup}, got {}",
        ack.duplicate
    );
}

/// Deterministic prediction probe over a small entity grid.
fn probe(engine: &Engine) -> Vec<(u32, u32, PredictionDto)> {
    let generation = engine.generation();
    let (n_users, n_items) =
        (generation.artifact.dataset.n_users, generation.artifact.dataset.n_items);
    drop(generation);
    let mut out = Vec::new();
    for u in 0..n_users.min(5) as u32 {
        for i in 0..n_items.min(5) as u32 {
            let resp = engine.submit(Request::predict(u, i));
            assert!(resp.ok, "probe predict failed: {:?}", resp.error);
            out.push((u, i, resp.prediction.expect("ok predict carries a prediction")));
        }
    }
    out
}

fn served_reviews(engine: &Engine) -> usize {
    engine.generation().artifact.dataset.len()
}

#[test]
fn acked_reviews_survive_a_crash_and_resends_dedup() {
    let (dir, fx) = saved_fixture("ingest-restart");
    let (n_users, n_items) = (fx.dataset.n_users, fx.dataset.n_items);
    let base = fx.dataset.len();

    let engine = open(dir.path(), ingest_cfg());
    for seq in 0..6 {
        ingest_one(&engine, seq, n_users, n_items, false);
    }
    assert_eq!(served_reviews(&engine), base + 6, "refresh_every=1 folds each ack in");
    let stats = engine.stats();
    assert_eq!(stats.ingested, 6);
    assert!(stats.wal_bytes > 0, "acked records occupy the WAL");
    assert!(stats.refreshes >= 6);
    let before_crash = probe(&engine);
    drop(engine); // the crash: no compaction ever ran, the WAL is the only copy

    let engine = open(dir.path(), ingest_cfg());
    assert_eq!(
        served_reviews(&engine),
        base + 6,
        "every acked review must be serving again after restart"
    );
    assert_eq!(
        probe(&engine),
        before_crash,
        "replayed towers must be bit-identical to the pre-crash refresh"
    );
    // The client's answer to a lost ack is a resend of the same seq: every
    // one must come back `duplicate` without growing the dataset.
    for seq in 0..6 {
        ingest_one(&engine, seq, n_users, n_items, true);
    }
    assert_eq!(engine.stats().ingest_duplicates, 6);
    assert_eq!(served_reviews(&engine), base + 6, "duplicates must not re-apply");
    engine.shutdown();
}

#[test]
fn duplicate_seq_acks_without_reapplying_within_one_process() {
    let (dir, fx) = saved_fixture("ingest-dup-live");
    let (n_users, n_items) = (fx.dataset.n_users, fx.dataset.n_items);
    let base = fx.dataset.len();

    let engine = open(dir.path(), ingest_cfg());
    ingest_one(&engine, 7, n_users, n_items, false);
    ingest_one(&engine, 7, n_users, n_items, true);
    assert_eq!(served_reviews(&engine), base + 1);
    let stats = engine.stats();
    assert_eq!((stats.ingested, stats.ingest_duplicates), (1, 1));
    engine.shutdown();
}

#[test]
fn torn_wal_tail_is_repaired_and_only_the_torn_record_reingests_fresh() {
    let (dir, fx) = saved_fixture("ingest-torn");
    let (n_users, n_items) = (fx.dataset.n_users, fx.dataset.n_items);
    let base = fx.dataset.len();

    let engine = open(dir.path(), ingest_cfg());
    for seq in 0..4 {
        ingest_one(&engine, seq, n_users, n_items, false);
    }
    drop(engine);

    // Crash mid-write: the final record loses its tail bytes. That record's
    // fsync never returned, so its ack never left — truncating it loses
    // nothing that was promised.
    let segments = wal_segments(dir.path().join(WAL_DIR)).unwrap();
    shave_tail(segments.last().unwrap(), 3).unwrap();

    let engine = open(dir.path(), ingest_cfg());
    assert_eq!(engine.stats().wal_recoveries, 1, "the repaired tail must be counted");
    assert_eq!(served_reviews(&engine), base + 3, "three intact records replay");
    for seq in 0..3 {
        ingest_one(&engine, seq, n_users, n_items, true);
    }
    // The torn record was never acked, so its seq is unknown to the dedup:
    // the client's retry lands as a fresh, durable ingest.
    ingest_one(&engine, 3, n_users, n_items, false);
    assert_eq!(served_reviews(&engine), base + 4);
    engine.shutdown();
}

#[test]
fn mid_log_corruption_fails_the_open_closed() {
    let (dir, fx) = saved_fixture("ingest-bitrot");
    let (n_users, n_items) = (fx.dataset.n_users, fx.dataset.n_items);

    let engine = open(dir.path(), ingest_cfg());
    for seq in 0..4 {
        ingest_one(&engine, seq, n_users, n_items, false);
    }
    drop(engine);

    // Flip a payload byte of the *first* record: a bytewise-complete record
    // whose CRC no longer matches. That is bit rot, not a torn tail — the
    // only safe answer is to refuse to serve.
    let segments = wal_segments(dir.path().join(WAL_DIR)).unwrap();
    flip_byte(&segments[0], 10).unwrap();

    let err = match Engine::open_with_ingest(dir.path(), EngineConfig::default(), ingest_cfg()) {
        Err(e) => e,
        Ok(_) => panic!("a corrupt mid-log record must fail the open"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
}

#[test]
fn incremental_refresh_is_bit_identical_to_compaction_reload_and_restart() {
    let (dir, fx) = saved_fixture("ingest-parity");
    let (n_users, n_items) = (fx.dataset.n_users, fx.dataset.n_items);
    let base = fx.dataset.len();

    let engine = open(dir.path(), ingest_cfg());
    for seq in 0..5 {
        ingest_one(&engine, seq, n_users, n_items, false);
    }
    // The towers as the incremental (frozen-encoder, suffix-only) refresh
    // computed them.
    let refreshed = probe(&engine);

    // Fold the WAL into a brand-new artifact generation and reload it from
    // disk. The load installs the review vectors compaction persisted (the
    // refreshed rows), so those rows are checked against an independent
    // re-encode of the compacted corpus: a refresh drift cannot hide in them.
    let (folded, generation) = engine.compact_now().unwrap();
    assert_eq!(folded, 5);
    assert_eq!(generation, 2, "compaction must publish a new generation");
    assert_eq!(engine.stats().compactions, 1);
    assert_eq!(served_reviews(&engine), base + 5);
    assert_persisted_rows_match_a_full_reencode(dir.path(), base + 5);
    assert_eq!(
        probe(&engine),
        refreshed,
        "compacted reload must reproduce the incremental refresh bit for bit"
    );

    drop(engine);
    let engine = open(dir.path(), ingest_cfg());
    assert_eq!(
        probe(&engine),
        refreshed,
        "a cold restart of the compacted artifact must also be bit-identical"
    );
    // The ledger carries the dedup across the compaction: resends still ack
    // duplicate even though the WAL segments holding them are gone.
    for seq in 0..5 {
        ingest_one(&engine, seq, n_users, n_items, true);
    }
    assert_eq!(served_reviews(&engine), base + 5);
    engine.shutdown();

    // With refresh off the served model never absorbs the five reviews, so
    // compaction saves a dataset longer than the model: the tail's rows are
    // encoded at save time and must land on the same bits.
    let (dir, _) = saved_fixture("ingest-parity-norefresh");
    let engine = open(dir.path(), IngestConfig { refresh_every: 0, ..ingest_cfg() });
    for seq in 0..5 {
        ingest_one(&engine, seq, n_users, n_items, false);
    }
    assert_eq!(served_reviews(&engine), base, "refresh_every=0 folds nothing before compaction");
    assert_eq!(engine.compact_now().unwrap(), (5, 2));
    assert_persisted_rows_match_a_full_reencode(dir.path(), base + 5);
    assert_eq!(probe(&engine), refreshed, "compaction without refresh must serve the same bits");
    engine.shutdown();
}

/// The artifact at `dir` holds `n_reviews` persisted review vectors, each
/// bit-identical to running the BiLSTM over the corpus its load rebuilds.
fn assert_persisted_rows_match_a_full_reencode(dir: &Path, n_reviews: usize) {
    let art = ModelArtifact::load(dir).unwrap();
    let persisted = art.model.review_vectors().unwrap();
    assert_eq!(persisted.len(), n_reviews);
    let fresh = rrre_core::Rrre::from_checkpoint(
        &art.dataset,
        &art.corpus,
        art.manifest.config,
        dir.join(MODEL_FILE),
    )
    .unwrap();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(persisted.as_flat()),
        bits(fresh.review_vectors().unwrap().as_flat()),
        "persisted review vectors must equal a full re-encode of the compacted corpus"
    );
}

#[test]
fn compaction_truncates_folded_segments_and_the_ledger_survives_wal_resurrection() {
    let (dir, fx) = saved_fixture("ingest-truncate");
    let (n_users, n_items) = (fx.dataset.n_users, fx.dataset.n_items);
    let base = fx.dataset.len();
    let wal_dir = dir.path().join(WAL_DIR);

    let engine = open(dir.path(), ingest_cfg());
    for seq in 0..4 {
        ingest_one(&engine, seq, n_users, n_items, false);
    }
    // Preserve the pre-compaction segments: the drill below resurrects them
    // to simulate a crash after the fold committed but before the WAL was
    // truncated.
    let preserved: Vec<(String, Vec<u8>)> = wal_segments(&wal_dir)
        .unwrap()
        .iter()
        .map(|p| {
            (p.file_name().unwrap().to_string_lossy().into_owned(), std::fs::read(p).unwrap())
        })
        .collect();
    let bytes_before = engine.stats().wal_bytes;
    assert!(bytes_before > 0);

    engine.compact_now().unwrap();
    assert!(
        engine.stats().wal_bytes < bytes_before,
        "folded segments must be truncated away"
    );
    drop(engine);

    // Resurrect the folded segments. Replay must recognise every record as
    // ledger-covered and apply none of them a second time.
    for (name, bytes) in &preserved {
        std::fs::write(wal_dir.join(name), bytes).unwrap();
    }
    let engine = open(dir.path(), ingest_cfg());
    assert_eq!(
        served_reviews(&engine),
        base + 4,
        "ledger-covered WAL records must not double-apply"
    );
    for seq in 0..4 {
        ingest_one(&engine, seq, n_users, n_items, true);
    }
    engine.shutdown();
}

#[test]
fn uncommitted_staging_rolls_back_and_sealed_staging_rolls_forward() {
    let (dir, fx) = saved_fixture("ingest-staging");
    let (n_users, n_items) = (fx.dataset.n_users, fx.dataset.n_items);
    let base = fx.dataset.len();

    let engine = open(dir.path(), ingest_cfg());
    for seq in 0..3 {
        ingest_one(&engine, seq, n_users, n_items, false);
    }
    drop(engine);

    // Crash mid-stage, before the COMMIT marker: the fold never happened.
    // Recovery must delete the staging debris and replay from the WAL.
    let staging = wal::staging_dir(dir.path());
    std::fs::create_dir_all(&staging).unwrap();
    std::fs::write(staging.join("dataset.bin"), b"half-written garbage").unwrap();
    let engine = open(dir.path(), ingest_cfg());
    assert!(!staging.exists(), "uncommitted staging must be rolled back");
    assert_eq!(served_reviews(&engine), base + 3, "the WAL still holds every ack");
    drop(engine);

    // Crash after the COMMIT marker, before promotion: the fold is decided.
    // Build the staged artifact exactly as compaction stages it — the
    // on-disk dataset plus the three WAL records, vocab pinned to the
    // original training prefix — then seal and "crash".
    let manifest_json = std::fs::read_to_string(dir.path().join(MANIFEST_FILE)).unwrap();
    let manifest: rrre_serve::ArtifactManifest = serde_json::from_str(&manifest_json).unwrap();
    let mut dataset = fx.dataset.clone();
    let mut corpus = fx.corpus.clone();
    let mut applied = SeqSet::new();
    for seq in 0..3u64 {
        let req = review_req(seq, n_users, n_items);
        dataset
            .append_review(rrre_data::Review {
                user: rrre_data::UserId(req.user.unwrap()),
                item: rrre_data::ItemId(req.item.unwrap()),
                rating: req.rating.unwrap(),
                label: rrre_data::Label::Benign,
                timestamp: req.ts.unwrap(),
                text: req.text.clone().unwrap(),
            })
            .unwrap();
        corpus.append_doc(req.text.as_deref().unwrap());
        applied.insert(seq);
    }
    ModelArtifact::save_pinned(
        &staging,
        &dataset,
        &corpus,
        &fx.model,
        manifest.min_count,
        manifest.shard_spec,
        manifest.vocab_reviews,
    )
    .unwrap();
    wal::save_ledger(&staging, &IngestLedger { applied, segment_watermark: 0 }).unwrap();
    wal::seal_staging(&staging).unwrap();

    let engine = open(dir.path(), ingest_cfg());
    assert!(!staging.exists(), "sealed staging must be promoted");
    assert_eq!(
        engine.generation().artifact.manifest.n_reviews,
        base + 3,
        "the promoted manifest must carry the folded reviews"
    );
    assert_eq!(
        served_reviews(&engine),
        base + 3,
        "WAL replay over the promoted fold must dedup through the ledger"
    );
    for seq in 0..3 {
        ingest_one(&engine, seq, n_users, n_items, true);
    }
    engine.shutdown();
}

#[test]
fn cold_start_prior_answers_thin_pairs_with_the_calibrated_base_rate() {
    let (dir, fx) = saved_fixture("ingest-coldstart");
    let expected = (1.0 - fx.dataset.fake_fraction()) as f32;

    // Threshold far above any entity's degree: every pair is "thin", so
    // every prediction's reliability must be the calibrated benign base
    // rate — while ratings still come from the model.
    let engine = open(
        dir.path(),
        IngestConfig { cold_start_min: usize::MAX / 2, ..ingest_cfg() },
    );
    let gated = probe(&engine);
    for (u, i, pred) in &gated {
        assert_eq!(
            pred.reliability, expected,
            "thin pair ({u},{i}) must answer the calibrated prior"
        );
    }
    // Explanations are scored by the same prior-gated scorer: `Explain`
    // equals the core procedure over `Rrre::predict` gated the same way.
    let prior = ColdStartPrior::calibrate(&fx.dataset, usize::MAX / 2);
    let index = fx.model.index();
    let want: Vec<ExplanationDto> = explain_with(&fx.dataset, index, ItemId(0), 3, |u, i| {
        let pred = fx.model.predict(&fx.corpus, u, i);
        prior.gate(pred, index.user_degree(u), index.item_degree(i))
    })
    .into_iter()
    .map(Into::into)
    .collect();
    assert!(!want.is_empty(), "item 0 needs reviews to explain");
    let resp = engine.submit(Request::explain(0, 3));
    assert!(resp.ok, "prior-gated explain failed: {:?}", resp.error);
    let got = resp.explanations.unwrap();
    assert_eq!(got, want, "Explain must use the prior-gated scorer");
    engine.shutdown();

    // Threshold 0 disables the prior entirely: the head's scores return,
    // and (for a trained model) they are not all one constant.
    let engine = open(dir.path(), IngestConfig { cold_start_min: 0, ..ingest_cfg() });
    let ungated = probe(&engine);
    assert_eq!(gated.len(), ungated.len());
    for ((_, _, a), (_, _, b)) in gated.iter().zip(&ungated) {
        assert_eq!(a.rating, b.rating, "the prior must never touch ratings");
    }
    let distinct: std::collections::HashSet<u32> =
        ungated.iter().map(|(_, _, p)| p.reliability.to_bits()).collect();
    assert!(distinct.len() > 1, "head reliabilities should vary across pairs");
    engine.shutdown();
}

/// The seeded kill-loop: ten rounds, each ingesting a couple of reviews and
/// then dying at a different point in the ingest/compact lifecycle. After
/// every restart the full contract is re-verified: the serving dataset
/// holds base + |acked| reviews (exactly once), and a resend of *every*
/// acked seq in history acks `duplicate` without applying.
#[test]
fn seeded_kill_loop_applies_every_acked_review_exactly_once() {
    let (dir, fx) = saved_fixture("ingest-killloop");
    let (n_users, n_items) = (fx.dataset.n_users, fx.dataset.n_items);
    let base = fx.dataset.len();
    let wal_dir = dir.path().join(WAL_DIR);

    let mut acked: Vec<u64> = Vec::new();
    let mut next_seq = 0u64;
    for round in 0..10u64 {
        let engine = open(dir.path(), ingest_cfg());

        // Invariants on entry, after whatever the previous round's crash
        // left behind.
        assert_eq!(
            served_reviews(&engine),
            base + acked.len(),
            "round {round}: every acked review exactly once"
        );
        for &seq in &acked {
            ingest_one(&engine, seq, n_users, n_items, true);
        }
        assert_eq!(
            served_reviews(&engine),
            base + acked.len(),
            "round {round}: resends of the full history must not apply"
        );

        // Two new reviews this round.
        for _ in 0..2 {
            ingest_one(&engine, next_seq, n_users, n_items, false);
            acked.push(next_seq);
            next_seq += 1;
        }

        // The crash, seeded by round number. Each arm is a different point
        // in the lifecycle.
        match round % 5 {
            // Kill between fsync and the client seeing the ack: the record
            // is durable, the ack is lost. The resend check at the top of
            // the next round is exactly the client's retry.
            0 => drop(engine),
            // Kill immediately after a committed compaction.
            1 => {
                let already_folded = count_folded(dir.path(), base);
                let (folded, _) = engine.compact_now().unwrap();
                assert_eq!(folded as usize, acked.len() - already_folded);
                drop(engine);
            }
            // Kill mid-append: the active segment loses its tail, tearing
            // the last record. Its ack never left, so the drill forfeits
            // the seq and re-ingests it fresh next round.
            2 => {
                drop(engine);
                let segments = wal_segments(&wal_dir).unwrap();
                shave_tail(segments.last().unwrap(), 2).unwrap();
                let torn = acked.pop().unwrap();
                let reopened = open(dir.path(), ingest_cfg());
                ingest_one(&reopened, torn, n_users, n_items, false);
                acked.push(torn);
                drop(reopened);
            }
            // Kill mid-stage, before the COMMIT marker: rollback.
            3 => {
                drop(engine);
                let staging = wal::staging_dir(dir.path());
                std::fs::create_dir_all(&staging).unwrap();
                std::fs::write(staging.join("model.bin"), b"torn stage").unwrap();
            }
            // Kill after the fold committed but before the WAL truncation:
            // resurrect the folded segments and let the ledger dedup them.
            _ => {
                let preserved: Vec<(String, Vec<u8>)> = wal_segments(&wal_dir)
                    .unwrap()
                    .iter()
                    .map(|p| {
                        (
                            p.file_name().unwrap().to_string_lossy().into_owned(),
                            std::fs::read(p).unwrap(),
                        )
                    })
                    .collect();
                engine.compact_now().unwrap();
                drop(engine);
                for (name, bytes) in &preserved {
                    std::fs::write(wal_dir.join(name), bytes).unwrap();
                }
            }
        }
    }

    // Final audit after the last crash.
    let engine = open(dir.path(), ingest_cfg());
    assert_eq!(served_reviews(&engine), base + acked.len());
    for &seq in &acked {
        ingest_one(&engine, seq, n_users, n_items, true);
    }
    assert_eq!(served_reviews(&engine), base + acked.len());
    engine.shutdown();
}

/// The ingest-under-attack drill: a seeded burst campaign arrives through
/// the ordinary `IngestReview` stream. The durability contract must not
/// care that the traffic is hostile — every acked fake applies exactly
/// once, resends dedup, a restart replays bit-identically — and the
/// cold-start prior must pin the reliability served for the attack's
/// thin-history pairs to the calibrated base rate, so a fresh burst cannot
/// talk the serving tier into extra trust.
#[test]
fn burst_campaign_through_ingest_dedups_and_cold_start_bounds_its_reliability() {
    use rrre_data::synth::{AttackCampaign, AttackFamily};

    let (dir, fx) = saved_fixture("ingest-attack");
    let (n_users, n_items) = (fx.dataset.n_users, fx.dataset.n_items);
    let base = fx.dataset.len();

    let campaign = AttackCampaign::new(AttackFamily::Burst, 0.0, 0xB1A5);
    let burst = campaign.stream(n_users, n_items, 8);
    assert_eq!(burst.len(), 8);
    let ingest = |engine: &Engine, seq: u64, expect_dup: bool| {
        let r = &burst[seq as usize];
        let resp = engine.submit(Request::ingest_review(
            seq,
            r.user.0,
            r.item.0,
            r.rating,
            r.text.clone(),
            r.timestamp,
        ));
        assert!(resp.ok, "burst seq {seq} failed: {:?}", resp.error);
        let ack = resp.ingest.expect("ok IngestReview carries an ingest ack");
        assert_eq!(ack.duplicate, expect_dup, "burst seq {seq}");
    };

    let engine = open(dir.path(), ingest_cfg());
    for seq in 0..burst.len() as u64 {
        ingest(&engine, seq, false);
    }
    assert_eq!(served_reviews(&engine), base + burst.len(), "each fake folds in once");
    // The attacker's client retries the whole burst (lost acks): every
    // resend must dedup without growing the dataset or forcing a refresh.
    let refreshes_before = engine.stats().refreshes;
    for seq in 0..burst.len() as u64 {
        ingest(&engine, seq, true);
    }
    assert_eq!(served_reviews(&engine), base + burst.len(), "resends must not re-apply");
    assert_eq!(engine.stats().refreshes, refreshes_before, "duplicates must not refresh");
    let before_crash = probe(&engine);
    drop(engine); // crash with the burst only in the WAL

    let engine = open(dir.path(), ingest_cfg());
    assert_eq!(served_reviews(&engine), base + burst.len(), "replay holds the burst once");
    assert_eq!(probe(&engine), before_crash, "replayed towers are bit-identical");
    engine.shutdown();

    // Cold-start gate over the attack's own pairs: with the evidence
    // threshold above the sybils' thin histories, every pair the campaign
    // touched answers exactly the calibrated base-rate reliability. The
    // engine recalibrates the prior against the dataset it serves — the
    // base plus the replayed burst — so the drill reads the rate back from
    // the serving generation.
    let engine = open(
        dir.path(),
        IngestConfig { cold_start_min: usize::MAX / 2, ..ingest_cfg() },
    );
    let prior = (1.0 - engine.generation().artifact.dataset.fake_fraction()) as f32;
    for r in &burst {
        let resp = engine.submit(Request::predict(r.user.0, r.item.0));
        assert!(resp.ok, "predict on attack pair failed: {:?}", resp.error);
        let pred = resp.prediction.expect("ok predict carries a prediction");
        assert_eq!(
            pred.reliability, prior,
            "attack pair ({},{}) must be pinned to the prior",
            r.user.0, r.item.0
        );
    }
    engine.shutdown();
}

/// How many reviews the on-disk artifact (manifest) already folds, beyond
/// the training base — the kill-loop uses it to predict a compaction's
/// fold count.
fn count_folded(dir: &Path, base: usize) -> usize {
    let manifest_json = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
    let manifest: rrre_serve::ArtifactManifest = serde_json::from_str(&manifest_json).unwrap();
    manifest.n_reviews - base
}
