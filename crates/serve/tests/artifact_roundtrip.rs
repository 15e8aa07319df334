//! Artifact save → load must reproduce the trained model bit-for-bit, and
//! every kind of on-disk damage must be rejected at load time.

use rrre_core::{Rrre, RrreConfig};
use rrre_data::{ItemId, UserId};
use rrre_serve::artifact::{MANIFEST_FILE, MANIFEST_VERSION};
use rrre_serve::ModelArtifact;
use rrre_testkit::fault::{artifact_payload, drop_last_row, flip_byte, rehash_artifact_file, truncate_file};
use rrre_testkit::{trained_fixture, Fixture, TempDir};
use std::io::ErrorKind;

fn saved_fixture(tag: &str) -> (Fixture, TempDir) {
    let fx = trained_fixture();
    let dir = TempDir::new(tag);
    ModelArtifact::save(dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count()).unwrap();
    (fx, dir)
}

#[test]
fn roundtrip_is_bit_identical_and_manifest_is_faithful() {
    let (fx, dir) = saved_fixture("roundtrip");
    let art = ModelArtifact::load(dir.path()).unwrap();

    assert_eq!(art.manifest.dataset_name, fx.dataset.name);
    assert_eq!(art.manifest.n_users, fx.dataset.n_users);
    assert_eq!(art.manifest.n_items, fx.dataset.n_items);
    assert_eq!(art.manifest.n_reviews, fx.dataset.len());
    assert_eq!(art.manifest.vocab_len, fx.corpus.word_vectors.len());
    assert_eq!(art.manifest.embed_dim, fx.corpus.embed_dim());
    assert!(art.model.has_frozen_cache());

    // The rebuilt corpus is the one the model was trained on.
    assert_eq!(art.corpus.docs.len(), fx.corpus.docs.len());
    assert_eq!(art.corpus.word_vectors.as_flat(), fx.corpus.word_vectors.as_flat());

    for u in 0..fx.dataset.n_users {
        for i in 0..fx.dataset.n_items {
            let (user, item) = (UserId(u as u32), ItemId(i as u32));
            assert_eq!(
                art.model.predict(&art.corpus, user, item),
                fx.model.predict(&fx.corpus, user, item),
                "prediction diverged for pair ({u}, {i})"
            );
        }
    }
}

/// The fixture's model with its configured seed replaced by `seed`: the same
/// weights and review vectors, so only the manifest's seed differs.
fn reseeded(fx: &Fixture, seed: u64) -> Rrre {
    let cfg = RrreConfig { seed, ..*fx.model.config() };
    let vectors = fx.model.review_vectors().expect("the fixture is frozen");
    let k = cfg.k;
    let rows = rrre_tensor::Tensor::from_vec(vectors.len(), k, vectors.as_flat().to_vec());
    Rrre::from_frozen_parts(&fx.dataset, &fx.corpus, cfg, fx.model.params(), rows).unwrap()
}

#[test]
fn a_seed_the_manifest_cannot_hold_exactly_is_refused_before_anything_is_written() {
    let fx = trained_fixture();
    let largest = (1u64 << 53) - 1;
    let dir = TempDir::new("seed_exact");
    ModelArtifact::save(dir.path(), &fx.dataset, &fx.corpus, &reseeded(&fx, largest), fx.min_count()).unwrap();
    assert_eq!(ModelArtifact::load(dir.path()).unwrap().manifest.config.seed, largest);

    let dir = TempDir::new("seed_rounded");
    let target = dir.path().join("artifact");
    let too_big = (1u64 << 60) + 1;
    let err = ModelArtifact::save(&target, &fx.dataset, &fx.corpus, &reseeded(&fx, too_big), fx.min_count())
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidInput);
    assert!(err.to_string().contains("MAX_EXACT_INT"), "{err}");
    assert!(!target.exists(), "a refused save creates nothing");
    assert!(!target.join(MANIFEST_FILE).exists());
}

#[test]
fn missing_directory_fails() {
    let dir = TempDir::new("never-written");
    assert!(ModelArtifact::load(dir.file("absent")).is_err());
}

#[test]
fn wrong_manifest_version_fails() {
    let (_fx, dir) = saved_fixture("bad-version");

    let manifest_path = dir.file(MANIFEST_FILE);
    let json = std::fs::read_to_string(&manifest_path).unwrap();
    let needle = format!("\"version\": {MANIFEST_VERSION}");
    assert!(json.contains(&needle), "manifest format changed: {json}");
    std::fs::write(&manifest_path, json.replacen(&needle, "\"version\": 999", 1)).unwrap();

    let err = ModelArtifact::load(dir.path()).err().expect("version 999 must be rejected");
    assert!(err.to_string().contains("version"), "unexpected error: {err}");

    // The previous layout is refused by version, before any field of the
    // new one is looked for.
    std::fs::write(&manifest_path, json.replacen(&needle, "\"version\": 4", 1)).unwrap();
    let err = ModelArtifact::load(dir.path()).err().expect("version 4 must be rejected");
    assert!(err.to_string().contains("re-save to upgrade"), "unexpected error: {err}");
}

/// The directory's entries, sorted.
fn listing(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> =
        std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name().to_string_lossy().into_owned()).collect();
    names.sort();
    names
}

/// A save over a live directory is a commit: the next generation's
/// payloads get the next commit count, and the previous generation — plus
/// a crashed commit's torn orphan and a stale tmp, which the load ignores —
/// is deleted once the manifest is replaced.
#[test]
fn a_resave_commits_the_next_generation_and_deletes_the_last() {
    let (fx, dir) = saved_fixture("resave");
    assert_eq!(
        listing(dir.path()),
        ["dataset.1.json", "manifest.json", "model.1.rrrp", "reviews.1.rrrp", "vectors.1.rrrp"]
    );
    std::fs::write(dir.file("model.2.rrrp"), b"torn by a crash before the commit").unwrap();
    std::fs::write(dir.file("manifest.json.tmp"), b"{ torn").unwrap();
    std::fs::write(dir.file("reviews.7.rrrp.tmp"), b"stale").unwrap();
    let art = ModelArtifact::load(dir.path()).expect("orphans beside the committed manifest are ignored");
    assert_eq!(art.manifest.commit, 1);

    ModelArtifact::save(dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count()).unwrap();
    assert_eq!(
        listing(dir.path()),
        ["dataset.2.json", "manifest.json", "model.2.rrrp", "reviews.2.rrrp", "vectors.2.rrrp"]
    );
    let again = ModelArtifact::load(dir.path()).unwrap();
    assert_eq!(again.manifest.commit, 2);
    assert!(again.manifest.folded.is_empty(), "a trained artifact has folded no ingest");
    assert_eq!(again.model.params().len(), art.model.params().len());
}

#[test]
fn manifest_dataset_disagreement_fails() {
    let (fx, dir) = saved_fixture("bad-counts");

    let manifest_path = dir.file(MANIFEST_FILE);
    let json = std::fs::read_to_string(&manifest_path).unwrap();
    let needle = format!("\"n_users\": {}", fx.dataset.n_users);
    assert!(json.contains(&needle), "manifest format changed: {json}");
    std::fs::write(&manifest_path, json.replacen(&needle, "\"n_users\": 12345", 1)).unwrap();

    let err = ModelArtifact::load(dir.path()).err().expect("count mismatch must be rejected");
    assert!(err.to_string().contains("disagrees"), "unexpected error: {err}");
}

#[test]
fn truncated_weights_fail() {
    let (_fx, dir) = saved_fixture("truncated-weights");
    let model_path = artifact_payload(dir.path(), "model");
    let len = std::fs::metadata(&model_path).unwrap().len();
    truncate_file(&model_path, len / 3).unwrap();
    assert!(ModelArtifact::load(dir.path()).is_err());
}

#[test]
fn flipped_weight_bytes_fail_or_change_nothing_silently_never() {
    let (fx, dir) = saved_fixture("flipped-weights");
    // Flip a byte in the middle of the tensor payload (past any header).
    let model_path = artifact_payload(dir.path(), "model");
    let len = std::fs::metadata(&model_path).unwrap().len() as usize;
    flip_byte(&model_path, len / 2).unwrap();

    // Either the load rejects the damage outright, or the file still parses
    // — but then the damage landed in a weight and the model must disagree
    // with the original somewhere. What must never happen is a clean load
    // that serves the original predictions from corrupted bytes.
    if let Ok(art) = ModelArtifact::load(dir.path()) {
        let diverged = (0..fx.dataset.n_users).any(|u| {
            (0..fx.dataset.n_items).any(|i| {
                let (user, item) = (UserId(u as u32), ItemId(i as u32));
                art.model.predict(&art.corpus, user, item) != fx.model.predict(&fx.corpus, user, item)
            })
        });
        assert!(diverged, "a flipped payload byte loaded cleanly AND predicted identically");
    }
}

#[test]
fn corrupted_vectors_fail() {
    let (_fx, dir) = saved_fixture("bad-vectors");

    // Garbage that is not an RRRP file at all.
    std::fs::write(artifact_payload(dir.path(), "vectors"), b"not a checkpoint").unwrap();

    assert!(ModelArtifact::load(dir.path()).is_err());
}

#[test]
fn tampered_dataset_fails_validation() {
    let (fx, dir) = saved_fixture("tampered-dataset");

    // Swap in a dataset with different review text. The checksum layer
    // sees the swap first — the file no longer hashes to what the manifest
    // recorded at save time.
    let mut other = fx.dataset.clone();
    for r in &mut other.reviews {
        r.text = "entirely different words everywhere".into();
    }
    rrre_data::io::save_json(&other, artifact_payload(dir.path(), "dataset")).unwrap();

    let err = ModelArtifact::load(dir.path()).err().expect("tampered dataset must be rejected");
    assert!(err.to_string().contains("checksum"), "unexpected error: {err}");

    // Re-hash the tampered file into the manifest (an attacker who can edit
    // both files, or an honest re-export of a different dataset): the deeper
    // semantic check still refuses, because the rebuilt vocabulary no longer
    // matches the stored vector table.
    rehash_artifact_file(dir.path(), "dataset").unwrap();
    let err = ModelArtifact::load(dir.path()).err().expect("vocab mismatch must be rejected");
    assert!(err.to_string().contains("vocabulary"), "unexpected error: {err}");
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn loaded_review_vectors_equal_a_fresh_encode_of_the_loaded_corpus() {
    let (fx, dir) = saved_fixture("review-vectors");
    let art = ModelArtifact::load(dir.path()).unwrap();
    let loaded = art.model.review_vectors().expect("a loaded model serves from review vectors");
    assert_eq!(loaded.len(), art.dataset.len());

    // `from_checkpoint` runs the BiLSTM over every review of the corpus the
    // load rebuilt — the full re-encode the persisted rows replace.
    let fresh = Rrre::from_checkpoint(&art.dataset, &art.corpus, art.manifest.config, artifact_payload(dir.path(), "model"))
        .unwrap();
    let fresh = fresh.review_vectors().unwrap();
    assert_eq!(bits(loaded.as_flat()), bits(fresh.as_flat()), "loaded rows differ from a fresh encode");
    assert_eq!(
        bits(loaded.as_flat()),
        bits(fx.model.review_vectors().unwrap().as_flat()),
        "loaded rows differ from the trained model's"
    );
}

#[test]
fn foreign_review_vectors_are_refused_by_the_spot_check() {
    let (fx, dir) = saved_fixture("foreign-reviews");
    // Same dataset, corpus and shape; other encoder weights.
    let other_cfg = RrreConfig { seed: fx.spec.seed ^ 0xF0F0, epochs: 1, ..fx.spec.rrre_config() };
    let other = Rrre::fit(&fx.dataset, &fx.corpus, &fx.train, other_cfg);
    let other_dir = TempDir::new("foreign-reviews-source");
    ModelArtifact::save(other_dir.path(), &fx.dataset, &fx.corpus, &other, fx.min_count()).unwrap();
    std::fs::copy(artifact_payload(other_dir.path(), "reviews"), artifact_payload(dir.path(), "reviews")).unwrap();

    let err = ModelArtifact::load(dir.path()).err().expect("swapped review vectors must be rejected");
    assert!(err.to_string().contains("checksum"), "unexpected error: {err}");

    rehash_artifact_file(dir.path(), "reviews").unwrap();
    let err = ModelArtifact::load(dir.path()).err().expect("foreign review vectors must be rejected");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("review vectors"), "the error must name the review vectors: {err}");
}

#[test]
fn damaged_or_misshapen_review_vectors_fail_with_invalid_data() {
    let (_fx, dir) = saved_fixture("bad-reviews");
    let path = artifact_payload(dir.path(), "reviews");
    let pristine = std::fs::read(&path).unwrap();

    truncate_file(&path, pristine.len() as u64 / 3).unwrap();
    let err = ModelArtifact::load(dir.path()).err().expect("truncated review vectors must be rejected");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    std::fs::write(&path, &pristine).unwrap();

    flip_byte(&path, pristine.len() / 2).unwrap();
    let err = ModelArtifact::load(dir.path()).err().expect("flipped review vectors must be rejected");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    std::fs::write(&path, &pristine).unwrap();

    // One row short, digest re-recorded: it parses and hashes cleanly, so
    // only the shape check stands between it and serving.
    drop_last_row(&path).unwrap();
    rehash_artifact_file(dir.path(), "reviews").unwrap();
    let err = ModelArtifact::load(dir.path()).err().expect("misshapen review vectors must be rejected");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("review vectors"), "unexpected error: {err}");
}
