//! Seeded deterministic fixtures: tiny synthetic corpora and pre-trained
//! mini-models shared by every crate's tests.
//!
//! A [`FixtureSpec`] pins *all* sources of randomness — the synthetic-data
//! seed, the word2vec seed and the model seed — so a fixture built twice
//! (in one process or across processes) is bit-identical. The defaults are
//! the ones the committed golden traces and parity oracles were recorded
//! with; tests that need a different shape derive one with the builder
//! methods rather than inventing a new ad-hoc setup.

use rrre_core::{EpochStats, Rrre, RrreConfig};
use rrre_data::synth::{generate, AttackCampaign, AttackFamily, PoisonedDataset, SynthConfig};
use rrre_data::{CorpusConfig, Dataset, EncodedCorpus};
use rrre_text::word2vec::Word2VecConfig;
use std::path::{Path, PathBuf};

/// Everything that determines a fixture, in one copyable value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixtureSpec {
    /// Master seed: feeds the data generator and the model config.
    pub seed: u64,
    /// Scale factor applied to the YelpChi-shaped synthetic preset.
    pub scale: f64,
    /// Encoded document length.
    pub max_len: usize,
    /// Word-embedding dimension.
    pub embed_dim: usize,
    /// Word2vec training epochs.
    pub w2v_epochs: usize,
    /// Vocabulary min-count.
    pub min_count: u64,
    /// RRRE training epochs.
    pub epochs: usize,
    /// Training worker threads; `0` defers to the `RRRE_THREADS` environment
    /// override (the CI thread-matrix smoke), falling back to serial.
    /// Training is bit-identical at every thread count, so this never
    /// changes what a fixture *is* — only how fast it is built.
    pub threads: usize,
}

impl FixtureSpec {
    /// The standard small fixture: big enough for meaningful metrics,
    /// small enough to train in well under a second.
    pub fn small() -> Self {
        Self {
            seed: 0x5EED,
            scale: 0.04,
            max_len: 12,
            embed_dim: 8,
            w2v_epochs: 1,
            min_count: 2,
            epochs: 2,
            threads: 0,
        }
    }

    /// A barely-there fixture for tests that only need shapes to line up.
    pub fn micro() -> Self {
        Self { scale: 0.02, max_len: 8, embed_dim: 4, ..Self::small() }
    }

    /// The same spec under a different master seed (new data, new init).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The same spec with a different RRRE epoch budget.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// The same spec trained on an explicit number of worker threads
    /// (bypassing the `RRRE_THREADS` environment default).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The synthetic-data configuration this spec pins.
    pub fn synth_config(&self) -> SynthConfig {
        SynthConfig::yelp_chi().scaled(self.scale).with_seed(self.seed)
    }

    /// The corpus configuration this spec pins.
    pub fn corpus_config(&self) -> CorpusConfig {
        CorpusConfig {
            max_len: self.max_len,
            min_count: self.min_count,
            word2vec: Word2VecConfig { dim: self.embed_dim, epochs: self.w2v_epochs, ..Default::default() },
            ..Default::default()
        }
    }

    /// The model configuration this spec pins (tiny architecture).
    /// Precedence for the thread count: explicit [`FixtureSpec::with_threads`]
    /// beats the `RRRE_THREADS` environment variable beats serial.
    pub fn rrre_config(&self) -> RrreConfig {
        let threads = if self.threads > 0 {
            self.threads
        } else {
            RrreConfig::env_threads().unwrap_or(1)
        };
        RrreConfig { epochs: self.epochs, seed: self.seed, threads, ..RrreConfig::tiny() }
    }

    /// Generates the dataset alone.
    pub fn dataset(&self) -> Dataset {
        generate(&self.synth_config())
    }

    /// Generates the dataset and builds its encoded corpus.
    pub fn corpus(&self) -> (Dataset, EncodedCorpus) {
        let ds = self.dataset();
        let corpus = EncodedCorpus::build(&ds, &self.corpus_config());
        (ds, corpus)
    }

    /// A seeded attack campaign against this spec's dataset. The campaign
    /// seed derives from the master seed, so a campaign fixture is exactly
    /// as pinned (and as reproducible across processes) as the data it
    /// poisons; its text domain matches the synthetic preset's.
    pub fn campaign(&self, family: AttackFamily, strength: f64) -> AttackCampaign {
        AttackCampaign::new(family, strength, self.seed ^ 0xA77AC4)
            .with_domain(self.synth_config().domain)
    }
}

/// Builds the spec's corpus pipeline over a *custom* dataset — for tests
/// that plant their own review structure but should not re-invent the
/// corpus hyper-parameters.
pub fn corpus_for(ds: &Dataset, spec: &FixtureSpec) -> EncodedCorpus {
    EncodedCorpus::build(ds, &spec.corpus_config())
}

/// A fully-trained fixture: dataset, corpus, model, and the exact training
/// indices and spec that produced them.
pub struct Fixture {
    /// The spec this fixture was built from.
    pub spec: FixtureSpec,
    /// The synthetic dataset.
    pub dataset: Dataset,
    /// The encoded corpus.
    pub corpus: EncodedCorpus,
    /// The trained model (frozen-encoder mode, inference-ready).
    pub model: Rrre,
    /// The review indices the model was trained on (all of them).
    pub train: Vec<usize>,
}

impl Fixture {
    /// The vocabulary min-count the corpus was built with (needed by
    /// `ModelArtifact::save`).
    pub fn min_count(&self) -> u64 {
        self.spec.min_count
    }
}

/// A campaign-poisoned fixture: a clean [`Fixture`] plus the poisoned
/// dataset and a corpus extended with the injected documents under the
/// clean fixture's *frozen* vocabulary — the same pinned encoding the
/// robustness sweep and the streaming-ingest path use, so tests exercise
/// the deployment-shaped corpus, not a retrained one.
pub struct PoisonedFixture {
    /// The clean trained fixture the campaign attacked.
    pub clean: Fixture,
    /// The campaign's label-poisoned dataset and injection bookkeeping.
    pub poisoned: PoisonedDataset,
    /// The clean corpus with every injected text appended as a document.
    pub corpus: EncodedCorpus,
}

/// Builds the standard small fixture and runs `family` at `strength`
/// against it ([`FixtureSpec::campaign`] seeds the campaign).
pub fn poisoned_fixture(family: AttackFamily, strength: f64) -> PoisonedFixture {
    poisoned_fixture_with(FixtureSpec::small(), family, strength)
}

/// Builds a campaign-poisoned fixture from an explicit spec.
pub fn poisoned_fixture_with(
    spec: FixtureSpec,
    family: AttackFamily,
    strength: f64,
) -> PoisonedFixture {
    let clean = trained_fixture_with(spec);
    let poisoned = spec.campaign(family, strength).poison(&clean.dataset);
    let mut corpus = clean.corpus.clone();
    for &i in &poisoned.injected {
        corpus.append_doc(&poisoned.dataset.reviews[i].text);
    }
    PoisonedFixture { clean, poisoned, corpus }
}

/// Trains the standard small fixture ([`FixtureSpec::small`]).
pub fn trained_fixture() -> Fixture {
    trained_fixture_with(FixtureSpec::small())
}

/// Trains a fixture from an explicit spec.
pub fn trained_fixture_with(spec: FixtureSpec) -> Fixture {
    trained_fixture_traced(spec, |_| {})
}

/// Trains a fixture while streaming per-epoch [`EpochStats`] to `hook` —
/// the entry point the golden-trace harness records through.
pub fn trained_fixture_traced(spec: FixtureSpec, mut hook: impl FnMut(EpochStats)) -> Fixture {
    let (dataset, corpus) = spec.corpus();
    let train: Vec<usize> = (0..dataset.len()).collect();
    let model = Rrre::fit_with_hook(&dataset, &corpus, &train, spec.rrre_config(), |stats, _| hook(stats));
    Fixture { spec, dataset, corpus, model, train }
}

/// A per-test scratch directory under the system temp dir, removed on drop
/// (including on panic), so failed tests do not leak artifact directories.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `…/rrre-testkit/<tag>-<pid>`, wiping any stale leftover.
    pub fn new(tag: &str) -> Self {
        let path = std::env::temp_dir()
            .join("rrre-testkit")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path).expect("TempDir: cannot create scratch dir");
        Self { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A file path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_spec_same_fixture() {
        let spec = FixtureSpec::micro();
        let (a_ds, a_corpus) = spec.corpus();
        let (b_ds, b_corpus) = spec.corpus();
        assert_eq!(a_ds.len(), b_ds.len());
        for (x, y) in a_ds.reviews.iter().zip(&b_ds.reviews) {
            assert_eq!((x.user, x.item, x.rating, x.timestamp), (y.user, y.item, y.rating, y.timestamp));
            assert_eq!(x.text, y.text);
        }
        assert_eq!(a_corpus.word_vectors.as_flat(), b_corpus.word_vectors.as_flat());
        for (x, y) in a_corpus.docs.iter().zip(&b_corpus.docs) {
            assert_eq!(x.ids, y.ids);
            assert_eq!(x.len, y.len);
        }
    }

    #[test]
    fn different_seed_different_model() {
        let a = trained_fixture_with(FixtureSpec::micro().with_epochs(1));
        let b = trained_fixture_with(FixtureSpec::micro().with_epochs(1).with_seed(0xD1FF));
        let r = &a.dataset.reviews[0];
        let pa = a.model.predict(&a.corpus, r.user, r.item);
        // Same pair id-space but freshly generated data + weights: the two
        // fixtures must not be secretly sharing state.
        let rb = &b.dataset.reviews[0];
        let pb = b.model.predict(&b.corpus, rb.user, rb.item);
        assert!(pa.rating != pb.rating || pa.reliability != pb.reliability);
    }

    #[test]
    fn poisoned_fixture_is_pinned_and_bookkept() {
        let spec = FixtureSpec::micro().with_epochs(1);
        let a = poisoned_fixture_with(spec, AttackFamily::Burst, 0.2);
        let b = poisoned_fixture_with(spec, AttackFamily::Burst, 0.2);
        assert!(a.poisoned.n_injected() > 0);
        assert_eq!(a.poisoned.injected, b.poisoned.injected);
        assert_eq!(a.poisoned.dataset.reviews, b.poisoned.dataset.reviews);
        // Corpus extension: one appended doc per injected review, and the
        // clean prefix is untouched.
        assert_eq!(a.corpus.docs.len(), a.clean.corpus.docs.len() + a.poisoned.n_injected());
    }

    #[test]
    fn temp_dir_cleans_up() {
        let kept;
        {
            let dir = TempDir::new("cleanup");
            kept = dir.path().to_path_buf();
            std::fs::write(dir.file("x.txt"), b"x").unwrap();
            assert!(kept.exists());
        }
        assert!(!kept.exists(), "TempDir must remove itself on drop");
    }
}
