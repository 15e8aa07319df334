//! Shared infrastructure for the review-based rating models.
//!
//! Input convention (uniform across RRRE and every baseline, see DESIGN.md):
//! a user's input set `W^u` / an item's `W^i` is the *latest m* reviews of
//! that user/item over the whole dataset — the paper's problem definition
//! `W^u = {w_ui | i ∈ I}` with its time-based sampling strategy. Texts and
//! timestamps of test reviews are observable (transductive detection);
//! labels and target ratings never enter inputs.

use crate::{Dataset, DatasetIndex, EncodedCorpus};
use rrre_tensor::Tensor;

/// Fixed per-review feature vectors (mean pretrained word vectors) used as
/// frozen review representations by NARRE/DER, aligned with
/// `dataset.reviews`.
#[derive(Debug, Clone)]
pub struct ReviewVectors {
    dim: usize,
    flat: Vec<f32>,
}

impl ReviewVectors {
    /// Computes the mean-word-vector representation of every review.
    pub fn build(ds: &Dataset, corpus: &EncodedCorpus) -> Self {
        let dim = corpus.embed_dim();
        let mut flat = Vec::with_capacity(ds.len() * dim);
        for i in 0..ds.len() {
            flat.extend_from_slice(&corpus.mean_vector(i));
        }
        Self { dim, flat }
    }

    /// Wraps externally computed review vectors (e.g. BiLSTM encodings).
    ///
    /// # Panics
    /// Panics if `flat.len()` is not a multiple of `dim`.
    pub fn from_flat(dim: usize, flat: Vec<f32>) -> Self {
        assert!(dim > 0 && flat.len().is_multiple_of(dim), "ReviewVectors::from_flat: bad dimensions");
        Self { dim, flat }
    }

    /// Representation dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of reviews covered.
    pub fn len(&self) -> usize {
        self.flat.len() / self.dim
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    /// The vector of review `idx`.
    pub fn vector(&self, idx: usize) -> &[f32] {
        &self.flat[idx * self.dim..(idx + 1) * self.dim]
    }

    /// Every vector, row-major (`len() × dim()`).
    pub fn as_flat(&self) -> &[f32] {
        &self.flat
    }

    /// Appends one review's vector (incremental cache growth for streamed
    /// reviews).
    ///
    /// # Panics
    /// Panics if `v.len() != dim`.
    pub fn append(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "ReviewVectors::append: dimension mismatch");
        self.flat.extend_from_slice(v);
    }

    /// Stacks the listed reviews into a `len × dim` matrix, one row per
    /// index in order. An entity with `d < m` reviews gets a `d`-row matrix:
    /// the paper's zero padding to `m` rows would only add rows that take
    /// zero attention weight.
    pub fn stack(&self, indices: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(indices.len(), self.dim);
        for (row, &idx) in indices.iter().enumerate() {
            out.row_mut(row).copy_from_slice(self.vector(idx));
        }
        out
    }
}

/// The latest-`m` review indices of a user (the paper's time-based sampling
/// strategy).
pub fn user_input_reviews(index: &DatasetIndex, user: crate::UserId, m: usize) -> Vec<usize> {
    index.latest_user_reviews(user, m).to_vec()
}

/// The latest-`m` review indices of an item.
pub fn item_input_reviews(index: &DatasetIndex, item: crate::ItemId, m: usize) -> Vec<usize> {
    index.latest_item_reviews(item, m).to_vec()
}

/// Concatenates the token ids of a user's/item's latest reviews into one
/// document of at most `max_tokens` ids — DeepCoNN's input convention.
/// Always returns at least one token (PAD) so convolution widths are valid.
pub fn concat_document(corpus: &EncodedCorpus, review_indices: &[usize], max_tokens: usize) -> Vec<usize> {
    let mut doc = Vec::with_capacity(max_tokens);
    // Newest first so truncation drops the oldest text.
    for &ri in review_indices.iter().rev() {
        let d = &corpus.docs[ri];
        for &id in &d.ids[..d.len] {
            if doc.len() >= max_tokens {
                break;
            }
            doc.push(id);
        }
        if doc.len() >= max_tokens {
            break;
        }
    }
    if doc.is_empty() {
        doc.push(rrre_text::PAD);
    }
    doc
}

/// Looks up word vectors for a token-id document as a `[T, dim]` tensor.
pub fn embed_document(corpus: &EncodedCorpus, ids: &[usize]) -> Tensor {
    let dim = corpus.embed_dim();
    let flat = corpus.word_vectors.as_flat();
    let mut out = Tensor::zeros(ids.len(), dim);
    for (row, &id) in ids.iter().enumerate() {
        out.row_mut(row).copy_from_slice(&flat[id * dim..(id + 1) * dim]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, SynthConfig};
    use crate::CorpusConfig;
    use rrre_text::word2vec::Word2VecConfig;

    fn setup() -> (Dataset, EncodedCorpus) {
        let ds = generate(&SynthConfig::yelp_chi().scaled(0.03));
        let corpus = EncodedCorpus::build(
            &ds,
            &CorpusConfig {
                word2vec: Word2VecConfig { dim: 8, epochs: 1, ..Default::default() },
                ..Default::default()
            },
        );
        (ds, corpus)
    }

    #[test]
    fn review_vectors_align_with_corpus() {
        let (ds, corpus) = setup();
        let rv = ReviewVectors::build(&ds, &corpus);
        assert_eq!(rv.len(), ds.len());
        assert_eq!(rv.dim(), 8);
        assert_eq!(rv.vector(3), corpus.mean_vector(3).as_slice());
    }

    #[test]
    fn stack_holds_exactly_the_listed_reviews() {
        let (ds, corpus) = setup();
        let rv = ReviewVectors::build(&ds, &corpus);
        let m = rv.stack(&[2, 0]);
        assert_eq!(m.shape(), (2, 8));
        assert_eq!(m.row(0), rv.vector(2));
        assert_eq!(m.row(1), rv.vector(0));
        assert_eq!(rv.stack(&[]).shape(), (0, 8));
    }

    #[test]
    fn concat_document_truncates_from_oldest() {
        let (_ds, corpus) = setup();
        let doc = concat_document(&corpus, &[0, 1, 2], 10);
        assert!(doc.len() <= 10);
        // Newest review's tokens lead.
        let newest = &corpus.docs[2];
        assert_eq!(doc[0], newest.ids[0]);
    }

    #[test]
    fn concat_document_never_empty() {
        let (_, corpus) = setup();
        let doc = concat_document(&corpus, &[], 10);
        assert_eq!(doc, vec![rrre_text::PAD]);
    }

    #[test]
    fn embed_document_shape() {
        let (_, corpus) = setup();
        let t = embed_document(&corpus, &[0, 1, 2]);
        assert_eq!(t.shape(), (3, 8));
    }
}
