//! Skip-gram word2vec with negative sampling, from scratch.
//!
//! The paper pretrains the review text "as vectors" to speed up training;
//! this module provides those pretrained word embeddings. The implementation
//! is the classic SGNS of Mikolov et al. (2013): for each (center, context)
//! pair within a window, maximise `log σ(u_ctx · v_cen)` plus `k` negative
//! samples drawn from the unigram distribution raised to the ¾ power.
//! Hand-rolled SGD (no autograd) keeps pretraining fast.

use crate::vocab::{Vocab, PAD, UNK};
use rand::Rng;

/// Training configuration for [`train_word2vec`].
#[derive(Debug, Clone)]
pub struct Word2VecConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Symmetric context window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Initial learning rate, linearly decayed to 10 % over training.
    pub lr: f32,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Subsampling threshold for frequent words (0 disables).
    pub subsample: f32,
}

impl Default for Word2VecConfig {
    fn default() -> Self {
        Self { dim: 32, window: 4, negatives: 5, lr: 0.025, epochs: 3, subsample: 1e-3 }
    }
}

/// Learned word embeddings: one `dim`-vector per vocabulary id.
#[derive(Debug, Clone)]
pub struct WordVectors {
    dim: usize,
    data: Vec<f32>,
}

impl WordVectors {
    /// Reconstructs a table from a flat row-major buffer, e.g. one restored
    /// from a serving checkpoint.
    ///
    /// # Panics
    /// Panics if `flat` is not a whole number of `dim`-rows.
    pub fn from_flat(dim: usize, flat: Vec<f32>) -> Self {
        assert!(dim > 0, "WordVectors::from_flat: dim must be positive");
        assert!(
            flat.len().is_multiple_of(dim),
            "WordVectors::from_flat: {} floats is not a whole number of {}-dim rows",
            flat.len(),
            dim
        );
        Self { dim, data: flat }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors (= vocabulary size).
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The vector for word `id`.
    pub fn vector(&self, id: usize) -> &[f32] {
        &self.data[id * self.dim..(id + 1) * self.dim]
    }

    /// The full table as a flat row-major buffer (`len × dim`).
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Cosine similarity between two word ids (0 if either vector is zero).
    pub fn cosine(&self, a: usize, b: usize) -> f32 {
        crate::similarity::cosine(self.vector(a), self.vector(b))
    }
}

/// Alias-free negative sampler over the unigram^(3/4) distribution, using a
/// precomputed cumulative table and binary search.
struct NegativeSampler {
    cumulative: Vec<f64>,
}

impl NegativeSampler {
    fn new(vocab: &Vocab) -> Self {
        let mut cumulative = Vec::with_capacity(vocab.len());
        let mut acc = 0.0f64;
        for id in 0..vocab.len() {
            // Specials never get sampled.
            let w = if id == PAD || id == UNK { 0.0 } else { (vocab.count(id) as f64).powf(0.75) };
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "NegativeSampler: empty vocabulary");
        Self { cumulative }
    }

    fn sample(&self, rng: &mut impl Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty table");
        let x = rng.gen::<f64>() * total;
        self.cumulative.partition_point(|&c| c <= x).min(self.cumulative.len() - 1)
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Trains skip-gram embeddings on encoded documents (`Vec` of id streams).
///
/// Returns the input-side vectors, the convention of the reference
/// implementation. Deterministic given `rng`.
pub fn train_word2vec(
    docs: &[Vec<usize>],
    vocab: &Vocab,
    cfg: &Word2VecConfig,
    rng: &mut impl Rng,
) -> WordVectors {
    let v = vocab.len();
    let d = cfg.dim;
    let bound = 0.5 / d as f32;
    let mut w_in: Vec<f32> = (0..v * d).map(|_| rng.gen_range(-bound..bound)).collect();
    let mut w_out: Vec<f32> = vec![0.0; v * d];
    let sampler = NegativeSampler::new(vocab);
    let total_tokens: u64 = vocab.total_count().max(1);

    let total_steps = (cfg.epochs * docs.iter().map(Vec::len).sum::<usize>()).max(1) as f32;
    let mut step = 0f32;
    let mut grad_buf = vec![0.0f32; d];

    for _epoch in 0..cfg.epochs {
        for doc in docs {
            for (pos, &center) in doc.iter().enumerate() {
                step += 1.0;
                if center == PAD || center == UNK {
                    continue;
                }
                // Frequent-word subsampling (Mikolov Eq. 5).
                if cfg.subsample > 0.0 {
                    let f = vocab.count(center) as f32 / total_tokens as f32;
                    let keep = ((cfg.subsample / f).sqrt() + cfg.subsample / f).min(1.0);
                    if rng.gen::<f32>() > keep {
                        continue;
                    }
                }
                let lr = cfg.lr * (1.0 - 0.9 * step / total_steps);
                let win = rng.gen_range(1..=cfg.window);
                let lo = pos.saturating_sub(win);
                let hi = (pos + win + 1).min(doc.len());
                for (ctx_pos, &context) in doc[lo..hi].iter().enumerate().map(|(o, c)| (lo + o, c)) {
                    if ctx_pos == pos {
                        continue;
                    }
                    if context == PAD || context == UNK {
                        continue;
                    }
                    grad_buf.iter_mut().for_each(|x| *x = 0.0);
                    let cen_range = center * d..(center + 1) * d;
                    // Positive pair plus negatives; label 1 for the true context.
                    for neg in 0..=cfg.negatives {
                        let (target, label) = if neg == 0 {
                            (context, 1.0)
                        } else {
                            let s = sampler.sample(rng);
                            if s == context {
                                continue;
                            }
                            (s, 0.0)
                        };
                        let tgt_range = target * d..(target + 1) * d;
                        let dot: f32 = w_in[cen_range.clone()]
                            .iter()
                            .zip(&w_out[tgt_range.clone()])
                            .map(|(&a, &b)| a * b)
                            .sum();
                        let g = (sigmoid(dot) - label) * lr;
                        for (gb, &o) in grad_buf.iter_mut().zip(&w_out[tgt_range.clone()]) {
                            *gb += g * o;
                        }
                        // w_in updates are deferred to grad_buf, so reading it
                        // here still sees the pre-step center vector.
                        for (o, &c) in w_out[tgt_range].iter_mut().zip(&w_in[cen_range.clone()]) {
                            *o -= g * c;
                        }
                    }
                    for (i_slot, &gb) in w_in[cen_range].iter_mut().zip(&grad_buf) {
                        *i_slot -= gb;
                    }
                }
            }
        }
    }
    WordVectors { dim: d, data: w_in }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize;
    use rand::{rngs::StdRng, SeedableRng};

    /// A toy corpus with two disjoint topics: co-occurring words must end up
    /// closer than cross-topic words.
    fn topic_corpus() -> Vec<Vec<String>> {
        let mut docs = Vec::new();
        for _ in 0..60 {
            docs.push(tokenize("pizza pasta cheese tomato pizza pasta cheese tomato"));
            docs.push(tokenize("engine wheel brake gear engine wheel brake gear"));
        }
        docs
    }

    #[test]
    fn cooccurring_words_are_closer_than_cross_topic() {
        let docs = topic_corpus();
        let refs: Vec<&[String]> = docs.iter().map(Vec::as_slice).collect();
        let vocab = Vocab::build(refs, 1);
        let encoded: Vec<Vec<usize>> = docs.iter().map(|d| vocab.encode(d)).collect();
        let cfg = Word2VecConfig { dim: 16, epochs: 8, subsample: 0.0, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(17);
        let vecs = train_word2vec(&encoded, &vocab, &cfg, &mut rng);

        let same = vecs.cosine(vocab.id("pizza"), vocab.id("pasta"));
        let cross = vecs.cosine(vocab.id("pizza"), vocab.id("engine"));
        assert!(
            same > cross + 0.2,
            "same-topic cosine {same} should beat cross-topic {cross}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let docs = topic_corpus();
        let refs: Vec<&[String]> = docs.iter().map(Vec::as_slice).collect();
        let vocab = Vocab::build(refs, 1);
        let encoded: Vec<Vec<usize>> = docs.iter().map(|d| vocab.encode(d)).collect();
        let cfg = Word2VecConfig { dim: 8, epochs: 1, ..Default::default() };
        let a = train_word2vec(&encoded, &vocab, &cfg, &mut StdRng::seed_from_u64(3));
        let b = train_word2vec(&encoded, &vocab, &cfg, &mut StdRng::seed_from_u64(3));
        assert_eq!(a.as_flat(), b.as_flat());
    }

    #[test]
    fn vectors_are_finite_and_sized() {
        let docs = topic_corpus();
        let refs: Vec<&[String]> = docs.iter().map(Vec::as_slice).collect();
        let vocab = Vocab::build(refs, 1);
        let encoded: Vec<Vec<usize>> = docs.iter().map(|d| vocab.encode(d)).collect();
        let cfg = Word2VecConfig { dim: 12, epochs: 1, ..Default::default() };
        let vecs = train_word2vec(&encoded, &vocab, &cfg, &mut StdRng::seed_from_u64(5));
        assert_eq!(vecs.len(), vocab.len());
        assert_eq!(vecs.dim(), 12);
        assert!(vecs.as_flat().iter().all(|x| x.is_finite()));
    }
}
