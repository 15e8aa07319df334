//! The on-disk serving bundle.
//!
//! An artifact directory is fully self-describing:
//!
//! ```text
//! <dir>/manifest.json   versioned summary + RrreConfig + per-file digests (human-readable)
//! <dir>/dataset.json    the review dataset (users, items, texts, labels)
//! <dir>/vectors.rrrp    pretrained word vectors as a single-tensor RRRP file
//! <dir>/model.rrrp      trained model weights (RRRP checkpoint)
//! <dir>/reviews.rrrp    frozen BiLSTM review vectors (n_reviews × k), single-tensor RRRP
//! ```
//!
//! Tokenisation, vocabulary construction and document encoding are cheap,
//! deterministic functions of the dataset text, so the corpus is *rebuilt*
//! at load time ([`rrre_data::EncodedCorpus::from_parts`]) rather than
//! persisted. The review vectors are deterministic too — the encoder's
//! output over that corpus — but recomputing them runs the BiLSTM over
//! every review, which would be nearly all of a load's time, so they are
//! stored and installed as they are ([`Rrre::from_frozen_parts`]). A load
//! re-encodes a fixed sample of them (first, last and evenly spaced
//! between) and refuses the artifact if any sampled row differs by a single
//! bit, so review vectors that belong to other weights or another corpus
//! never serve.
//!
//! Every load cross-checks the manifest against what is actually in the
//! files (entity counts, vocabulary size, embedding dimension, parameter
//! and review-vector shapes); any disagreement fails with `InvalidData`
//! instead of producing a model that silently serves garbage.

use rrre_core::{Rrre, RrreConfig};
use rrre_data::{Dataset, EncodedCorpus};
use rrre_tensor::{Params, Tensor};
use rrre_text::WordVectors;
use rrre_wire::ShardSpec;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// Current artifact layout version. Version 2 added per-file FNV-1a
/// checksums; version 3 added the shard spec (consistent-hash topology the
/// artifact was partitioned for — [`ShardSpec::single`] for whole-model
/// bundles); version 4 added the persisted review vectors
/// ([`REVIEWS_FILE`]). Older versions are rejected (re-save to upgrade).
pub const MANIFEST_VERSION: u32 = 4;

/// File names inside an artifact directory.
pub const MANIFEST_FILE: &str = "manifest.json";
/// See [`MANIFEST_FILE`].
pub const DATASET_FILE: &str = "dataset.json";
/// See [`MANIFEST_FILE`].
pub const VECTORS_FILE: &str = "vectors.rrrp";
/// See [`MANIFEST_FILE`].
pub const MODEL_FILE: &str = "model.rrrp";
/// See [`MANIFEST_FILE`].
pub const REVIEWS_FILE: &str = "reviews.rrrp";

/// Name of the single tensor inside `vectors.rrrp`.
const VECTORS_PARAM: &str = "corpus.word_vectors";
/// Name of the single tensor inside `reviews.rrrp`.
const REVIEWS_PARAM: &str = "rrre.review_vectors";

/// How many persisted review vectors a load re-encodes and compares bit for
/// bit — constant, so the check costs the same (≈ 1 ms) at any corpus size.
const SPOT_CHECKED_REVIEWS: usize = 8;

/// Versioned, human-readable description of an artifact directory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArtifactManifest {
    /// Layout version; loads reject anything but [`MANIFEST_VERSION`].
    pub version: u32,
    /// Dataset display name.
    pub dataset_name: String,
    /// Distinct users in the dataset.
    pub n_users: usize,
    /// Distinct items in the dataset.
    pub n_items: usize,
    /// Total reviews in the dataset.
    pub n_reviews: usize,
    /// Fixed encoded-document length of the corpus.
    pub max_len: usize,
    /// Vocabulary min-count the corpus was built with.
    pub min_count: u64,
    /// Word-embedding dimension.
    pub embed_dim: usize,
    /// Vocabulary size (= rows of the word-vector table).
    pub vocab_len: usize,
    /// The model's full hyper-parameter configuration.
    pub config: RrreConfig,
    /// The consistent-hash shard topology this artifact is deployed under.
    /// Carried in the manifest so the map version travels with the
    /// generation: a hot reload that changes the topology changes the map
    /// version atomically with the weights, and every replica and client
    /// that agrees on this spec computes identical entity ownership.
    /// [`ShardSpec::single`] for whole-model bundles.
    pub shard_spec: ShardSpec,
    /// Number of *leading* reviews the vocabulary (and therefore the
    /// word-vector table) was built from. For a freshly trained artifact
    /// this equals `n_reviews`; a compacted artifact that folded streamed
    /// reviews into the dataset keeps the original training prefix here so
    /// the load path rebuilds the *pinned* vocabulary
    /// ([`rrre_data::EncodedCorpus::from_parts_pinned`]) — streamed text is
    /// encoded against the frozen vocab (out-of-vocabulary words drop),
    /// exactly as the live ingest path encoded it.
    pub vocab_reviews: usize,
    /// FNV-1a 64 digest of every payload file, recorded at save time. The
    /// load path hashes each file before parsing it, so a bit-flip that
    /// would survive structural validation (e.g. inside a weight tensor)
    /// still fails the load instead of silently serving a corrupt model.
    pub checksums: Vec<FileChecksum>,
}

/// One payload file's digest. The hash rides as a hex string because JSON
/// numbers pass through `f64`, which cannot carry a full-range `u64`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FileChecksum {
    /// File name relative to the artifact directory.
    pub file: String,
    /// FNV-1a 64 of the file bytes, lowercase hex.
    pub fnv1a: String,
}

/// FNV-1a 64 of `bytes` as the lowercase hex string the manifest records.
/// Public so tests and tooling can recompute a file's expected digest.
pub fn file_digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

/// FNV-1a 64 over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A loaded serving bundle: dataset + rebuilt corpus + restored model. The
/// per-entity review index is the model's own ([`Rrre::index`]).
pub struct ModelArtifact {
    /// The manifest the bundle was loaded from (or saved with).
    pub manifest: ArtifactManifest,
    /// The review dataset.
    pub dataset: Dataset,
    /// The encoded corpus (vocab, word vectors, encoded docs).
    pub corpus: EncodedCorpus,
    /// The restored model, frozen-cache ready for tape-free inference.
    pub model: Rrre,
    /// The directory this artifact was loaded from — the hot-reload path
    /// re-loads from here.
    pub source_dir: PathBuf,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A one-tensor RRRP payload (the format of `vectors.rrrp` and
/// `reviews.rrrp`).
fn table_bytes(name: &str, table: Tensor) -> Vec<u8> {
    let mut params = Params::new();
    params.register(name, table);
    let mut bytes = Vec::new();
    params.write_to(&mut bytes).expect("writing to a Vec cannot fail");
    bytes
}

/// Parses a one-tensor RRRP payload and moves its tensor out.
fn parse_table(bytes: &[u8], file: &str, name: &str) -> io::Result<Tensor> {
    let mut params = Params::read_from(&mut &bytes[..])?;
    let id = params
        .iter()
        .find(|(_, n, _)| *n == name)
        .map(|(id, _, _)| id)
        .ok_or_else(|| invalid(format!("{file} has no `{name}` tensor")))?;
    Ok(std::mem::replace(params.get_mut(id), Tensor::zeros(0, 0)))
}

/// One frozen review vector per review of `dataset`: the model's own rows
/// for the prefix it reflects, a fresh encoding for any tail it does not
/// (compaction and staged recovery save datasets that grew past the model).
fn review_rows(dataset: &Dataset, corpus: &EncodedCorpus, model: &Rrre) -> io::Result<Tensor> {
    let (n, k) = (dataset.len(), model.config().k);
    let mut flat = Vec::with_capacity(n * k);
    if let Some(rows) = model.review_vectors() {
        if rows.len() > n {
            return Err(invalid(format!(
                "the model reflects {} reviews but the dataset has only {n}",
                rows.len()
            )));
        }
        flat.extend_from_slice(rows.as_flat());
    }
    for idx in flat.len() / k..n {
        flat.extend_from_slice(model.encode_review(corpus, idx).as_slice());
    }
    Ok(Tensor::from_vec(n, k, flat))
}

/// Re-encodes the first, the last and evenly spaced persisted review
/// vectors and requires every bit to match.
fn spot_check_review_vectors(model: &Rrre, corpus: &EncodedCorpus) -> io::Result<()> {
    let stored = model.review_vectors().expect("from_frozen_parts installs the review vectors");
    let n = stored.len();
    if n == 0 {
        return Ok(());
    }
    for s in 0..SPOT_CHECKED_REVIEWS {
        let idx = s * (n - 1) / (SPOT_CHECKED_REVIEWS - 1);
        let fresh = model.encode_review(corpus, idx);
        if fresh.as_slice().iter().zip(stored.vector(idx)).any(|(a, b)| a.to_bits() != b.to_bits()) {
            return Err(invalid(format!(
                "{REVIEWS_FILE}: stored review vectors do not match these weights and this \
                 corpus (review {idx} re-encodes differently)"
            )));
        }
    }
    Ok(())
}

/// Reads `file` once and checks it against the digest the manifest
/// recorded. Callers parse from the returned buffer, so the bytes that
/// were verified are the bytes that serve, even if the file is replaced
/// in between.
fn read_verified(dir: &Path, manifest: &ArtifactManifest, file: &str) -> io::Result<Vec<u8>> {
    let recorded = manifest
        .checksums
        .iter()
        .find(|c| c.file == file)
        .ok_or_else(|| invalid(format!("manifest records no checksum for {file}")))?;
    let bytes = std::fs::read(dir.join(file))?;
    let actual = file_digest(&bytes);
    if actual != recorded.fnv1a {
        return Err(invalid(format!(
            "{file} checksum mismatch: manifest says {}, file hashes to {actual} \
             (truncated or corrupted artifact)",
            recorded.fnv1a
        )));
    }
    Ok(bytes)
}

impl ModelArtifact {
    /// Writes a trained model as an artifact directory (created if absent).
    ///
    /// `min_count` must be the vocabulary min-count the corpus was built
    /// with — it is recorded in the manifest so the load path can rebuild
    /// the identical vocabulary.
    pub fn save(
        dir: impl AsRef<Path>,
        dataset: &Dataset,
        corpus: &EncodedCorpus,
        model: &Rrre,
        min_count: u64,
    ) -> io::Result<()> {
        Self::save_with_shards(dir, dataset, corpus, model, min_count, ShardSpec::single())
    }

    /// [`ModelArtifact::save`] with an explicit shard topology recorded in
    /// the manifest. The payload files are identical regardless of the
    /// spec — every shard's replicas load the same bundle and each engine
    /// scopes itself to its owned partition at serve time — so one `save`
    /// provisions the whole deployment.
    pub fn save_with_shards(
        dir: impl AsRef<Path>,
        dataset: &Dataset,
        corpus: &EncodedCorpus,
        model: &Rrre,
        min_count: u64,
        shard_spec: ShardSpec,
    ) -> io::Result<()> {
        Self::save_pinned(dir, dataset, corpus, model, min_count, shard_spec, dataset.len())
    }

    /// [`ModelArtifact::save_with_shards`] with an explicit vocabulary
    /// prefix. The compactor uses this to fold streamed reviews into the
    /// dataset while carrying the *original* training prefix forward in
    /// `vocab_reviews`, so reloading the compacted artifact rebuilds the
    /// identical frozen vocabulary the live ingest path encoded against.
    ///
    /// The persisted review vectors cover every review of `dataset`: the
    /// model's frozen rows for the reviews it already reflects, the frozen
    /// encoder's output for any it does not.
    pub fn save_pinned(
        dir: impl AsRef<Path>,
        dataset: &Dataset,
        corpus: &EncodedCorpus,
        model: &Rrre,
        min_count: u64,
        shard_spec: ShardSpec,
        vocab_reviews: usize,
    ) -> io::Result<()> {
        shard_spec.validate().map_err(invalid)?;
        if vocab_reviews > dataset.len() {
            return Err(invalid(format!(
                "vocab_reviews {vocab_reviews} exceeds the dataset's {} reviews",
                dataset.len()
            )));
        }
        if corpus.docs.len() != dataset.len() {
            return Err(invalid(format!(
                "corpus has {} docs but the dataset has {} reviews",
                corpus.docs.len(),
                dataset.len()
            )));
        }
        let reviews = review_rows(dataset, corpus, model)?;
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;

        // Payloads first; the checksummed manifest goes last so a crash
        // mid-save leaves a directory the load path rejects (missing or
        // stale manifest) rather than one that looks complete.
        let mut checksums = Vec::new();
        let mut put = |file: &str, bytes: Vec<u8>| -> io::Result<()> {
            std::fs::write(dir.join(file), &bytes)?;
            checksums.push(FileChecksum { file: file.to_string(), fnv1a: file_digest(&bytes) });
            Ok(())
        };
        put(DATASET_FILE, serde_json::to_string(dataset).map_err(io::Error::other)?.into_bytes())?;
        let word_vectors = Tensor::from_vec(
            corpus.word_vectors.len(),
            corpus.embed_dim(),
            corpus.word_vectors.as_flat().to_vec(),
        );
        put(VECTORS_FILE, table_bytes(VECTORS_PARAM, word_vectors))?;
        let mut weights = Vec::new();
        model.params().write_to(&mut weights)?;
        put(MODEL_FILE, weights)?;
        put(REVIEWS_FILE, table_bytes(REVIEWS_PARAM, reviews))?;

        let manifest = ArtifactManifest {
            version: MANIFEST_VERSION,
            dataset_name: dataset.name.clone(),
            n_users: dataset.n_users,
            n_items: dataset.n_items,
            n_reviews: dataset.len(),
            max_len: corpus.max_len,
            min_count,
            embed_dim: corpus.embed_dim(),
            vocab_len: corpus.word_vectors.len(),
            config: *model.config(),
            shard_spec,
            vocab_reviews,
            checksums,
        };
        let json = serde_json::to_string_pretty(&manifest).map_err(io::Error::other)?;
        std::fs::write(dir.join(MANIFEST_FILE), json)
    }

    /// Loads and validates an artifact directory, restoring the model via
    /// [`Rrre::from_frozen_parts`] — neither a training pass nor the review
    /// encoder runs, beyond the spot check of the stored review vectors.
    /// On success the model is frozen-cache ready regardless of its encoder
    /// mode.
    pub fn load(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref();

        let manifest_json = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
        let manifest: ArtifactManifest =
            serde_json::from_str(&manifest_json).map_err(|e| invalid(format!("bad manifest: {e}")))?;
        if manifest.version != MANIFEST_VERSION {
            return Err(invalid(format!(
                "unsupported artifact version {} (this build reads {MANIFEST_VERSION}; \
                 re-save to upgrade)",
                manifest.version
            )));
        }
        manifest
            .shard_spec
            .validate()
            .map_err(|e| invalid(format!("bad shard spec in manifest: {e}")))?;

        // Every payload's digest is verified before it is parsed:
        // structural validation cannot see a flipped bit inside a weight.
        let dataset: Dataset = {
            let bytes = read_verified(dir, &manifest, DATASET_FILE)?;
            let json = std::str::from_utf8(&bytes)
                .map_err(|e| invalid(format!("{DATASET_FILE} is not UTF-8: {e}")))?;
            serde_json::from_str(json).map_err(|e| invalid(format!("bad {DATASET_FILE}: {e}")))?
        };
        if dataset.n_users != manifest.n_users
            || dataset.n_items != manifest.n_items
            || dataset.len() != manifest.n_reviews
        {
            return Err(invalid(format!(
                "dataset shape ({} users, {} items, {} reviews) disagrees with manifest \
                 ({}, {}, {})",
                dataset.n_users,
                dataset.n_items,
                dataset.len(),
                manifest.n_users,
                manifest.n_items,
                manifest.n_reviews
            )));
        }

        let table =
            parse_table(&read_verified(dir, &manifest, VECTORS_FILE)?, VECTORS_FILE, VECTORS_PARAM)?;
        let (rows, cols) = table.shape();
        if rows != manifest.vocab_len || cols != manifest.embed_dim {
            return Err(invalid(format!(
                "word-vector table is {rows}x{cols} but the manifest declares {}x{}",
                manifest.vocab_len, manifest.embed_dim
            )));
        }
        let word_vectors = WordVectors::from_flat(cols, table.into_vec());

        let corpus = EncodedCorpus::from_parts_pinned(
            &dataset,
            manifest.max_len,
            manifest.min_count,
            word_vectors,
            manifest.vocab_reviews,
        )
        .map_err(invalid)?;

        let weights = Params::read_from(&mut &read_verified(dir, &manifest, MODEL_FILE)?[..])?;
        let reviews =
            parse_table(&read_verified(dir, &manifest, REVIEWS_FILE)?, REVIEWS_FILE, REVIEWS_PARAM)?;
        let model = Rrre::from_frozen_parts(&dataset, &corpus, manifest.config, &weights, reviews)?;
        spot_check_review_vectors(&model, &corpus)?;

        Ok(Self { manifest, dataset, corpus, model, source_dir: dir.to_path_buf() })
    }
}
