//! The seeded bench artifact: dataset → corpus → model, all from `--seed`.
//!
//! Two sizes. [`Size::Bench`] is what the three read workloads and
//! `train_epoch` run on. 200 items make a cold `Recommend` a real scoring
//! job (≈ 2.5 ms of towers against ≈ 0.1 ms of framing) that still fits
//! 1 000 times into the reference phase of a 12-second run; 10 000 reviews
//! leave ≈ 4 100 users with at least one review — `recommend_cold` needs a
//! new one per request — while loading the artifact, which re-encodes every
//! review through the BiLSTM, still fits several times into one run. [`Size::Ingest`] is the
//! small artifact of `ingest_quorum`: with refresh off, the append path does
//! not depend on catalog size, so a small one keeps three replicas' loads
//! cheap.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rrre_core::{Rrre, RrreConfig};
use rrre_data::synth::{generate, SynthConfig};
use rrre_data::{CorpusConfig, Dataset, EncodedCorpus};
use rrre_serve::ModelArtifact;
use rrre_text::Word2VecConfig;
use rrre_wire::ShardSpec;
use std::path::Path;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Bench,
    Ingest,
}

/// Worker threads for training: every core, as the serving engines use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn synth_config(size: Size, seed: u64) -> SynthConfig {
    let base = match size {
        // Yelp-shaped degrees: few high-degree items, many low-degree users.
        Size::Bench => SynthConfig {
            n_users: 6_000,
            n_items: 200,
            n_reviews: 10_000,
            ..SynthConfig::yelp_zip()
        },
        Size::Ingest => SynthConfig::yelp_chi().scaled(0.5),
    };
    base.with_seed(seed)
}

pub fn corpus_config(seed: u64) -> CorpusConfig {
    CorpusConfig {
        max_len: 32,
        word2vec: Word2VecConfig {
            dim: 32,
            epochs: 1,
            ..Default::default()
        },
        seed,
        ..Default::default()
    }
}

/// The model at the paper's shapes (k = 64, s_u = 11, s_i = 12).
pub fn model_config(seed: u64, epochs: usize, threads: usize) -> RrreConfig {
    RrreConfig {
        epochs,
        threads,
        seed,
        ..RrreConfig::default()
    }
}

pub struct Inputs {
    pub dataset: Dataset,
    pub corpus: EncodedCorpus,
    pub model: Rrre,
    pub min_count: u64,
}

impl Inputs {
    /// Generates the dataset, builds the corpus and trains one epoch.
    pub fn build(size: Size, seed: u64) -> Self {
        let dataset = generate(&synth_config(size, seed));
        let cc = corpus_config(seed);
        let corpus = EncodedCorpus::build(&dataset, &cc);
        let train: Vec<usize> = (0..dataset.len()).collect();
        let model = Rrre::fit(&dataset, &corpus, &train, model_config(seed, 1, nproc()));
        Self {
            dataset,
            corpus,
            model,
            min_count: cc.min_count,
        }
    }

    pub fn save(&self, dir: &Path, shards: u32) -> std::io::Result<()> {
        ModelArtifact::save_with_shards(
            dir,
            &self.dataset,
            &self.corpus,
            &self.model,
            self.min_count,
            ShardSpec::with_shards(shards),
        )
    }
}

/// A seeded permutation of `0..n` (user ids).
pub fn permutation(seed: u64, n: usize) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    v.shuffle(&mut StdRng::seed_from_u64(seed));
    v
}
