//! Review content embedding (paper §III-C, Eq. 2–4).
//!
//! Each review's pretrained word vectors pass through a bidirectional LSTM;
//! the concatenated final states of both directions form the review
//! embedding `rev_ui` of size `k`. In [`crate::EncoderMode::Frozen`] mode
//! every review is encoded once and cached; in `EndToEnd` mode the encoder
//! is differentiated through per example.

use rrre_data::EncodedCorpus;
use rrre_tensor::nn::BiLstm;
use rrre_tensor::{Eval, Executor, Params, Tensor};

/// BiLSTM review encoder producing `k`-dimensional review embeddings.
#[derive(Debug, Clone)]
pub struct ReviewEncoder {
    bilstm: BiLstm,
    word_dim: usize,
    k: usize,
}

impl ReviewEncoder {
    /// Registers encoder weights. `k` must be even; each LSTM direction has
    /// `k/2` hidden units.
    pub fn new(params: &mut Params, rng: &mut impl rand::Rng, word_dim: usize, k: usize) -> Self {
        assert!(k >= 2 && k.is_multiple_of(2), "ReviewEncoder: k = {k} must be even");
        let bilstm = BiLstm::new(params, rng, "rrre.encoder", word_dim, k / 2);
        Self { bilstm, word_dim, k }
    }

    /// Review-embedding size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Handles of the encoder's parameters (used to freeze them in
    /// [`crate::EncoderMode::Frozen`] mode).
    pub fn param_ids(&self) -> [rrre_tensor::ParamId; 6] {
        self.bilstm.param_ids()
    }

    /// Builds the `[T, word_dim]` word-vector matrix of review `idx`,
    /// truncated to real tokens (zero-padding is never fed to the LSTM; a
    /// blank review becomes a single zero row so the recurrence stays
    /// defined).
    fn word_matrix(&self, corpus: &EncodedCorpus, idx: usize) -> Tensor {
        let doc = &corpus.docs[idx];
        let len = doc.len.max(1);
        let flat = corpus.word_vectors.as_flat();
        let mut out = Tensor::zeros(len, self.word_dim);
        for (row, &id) in doc.ids[..doc.len].iter().enumerate() {
            out.row_mut(row).copy_from_slice(&flat[id * self.word_dim..(id + 1) * self.word_dim]);
        }
        out
    }

    /// Encoding of one review: `[1, k]`.
    pub fn forward_review<'p, E: Executor<'p>>(
        &self,
        ex: &mut E,
        params: &'p Params,
        corpus: &EncodedCorpus,
        idx: usize,
    ) -> E::V {
        let words = ex.constant(self.word_matrix(corpus, idx));
        self.bilstm.forward(ex, params, words)
    }

    /// [`ReviewEncoder::forward_review`] on the value evaluator.
    pub fn encode_review(&self, params: &Params, corpus: &EncodedCorpus, idx: usize) -> Tensor {
        self.forward_review(&mut Eval, params, corpus, idx).into_owned()
    }

    /// Encodes every review in the corpus (the frozen-mode cache), returning
    /// a flat `n_reviews × k` buffer.
    pub fn encode_all(&self, params: &Params, corpus: &EncodedCorpus) -> Vec<f32> {
        let mut flat = Vec::with_capacity(corpus.docs.len() * self.k);
        for idx in 0..corpus.docs.len() {
            flat.extend_from_slice(self.encode_review(params, corpus, idx).as_slice());
        }
        flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use rrre_data::synth::{generate, SynthConfig};
    use rrre_data::CorpusConfig;
    use rrre_text::word2vec::Word2VecConfig;

    fn setup() -> (EncodedCorpus, Params, ReviewEncoder) {
        let ds = generate(&SynthConfig::yelp_chi().scaled(0.02));
        let corpus = EncodedCorpus::build(
            &ds,
            &CorpusConfig {
                max_len: 10,
                word2vec: Word2VecConfig { dim: 8, epochs: 1, ..Default::default() },
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let enc = ReviewEncoder::new(&mut params, &mut rng, 8, 12);
        (corpus, params, enc)
    }

    #[test]
    fn embeddings_have_size_k() {
        let (corpus, params, enc) = setup();
        let e = enc.encode_review(&params, &corpus, 0);
        assert_eq!(e.shape(), (1, 12));
    }

    #[test]
    fn encode_all_is_aligned() {
        let (corpus, params, enc) = setup();
        let flat = enc.encode_all(&params, &corpus);
        assert_eq!(flat.len(), corpus.docs.len() * 12);
        let direct = enc.encode_review(&params, &corpus, 2);
        assert_eq!(&flat[2 * 12..3 * 12], direct.as_slice());
    }

    #[test]
    fn different_texts_encode_differently() {
        let (corpus, params, enc) = setup();
        let a = enc.encode_review(&params, &corpus, 0);
        // Find a review with different text.
        let mut found = false;
        for idx in 1..corpus.docs.len() {
            if corpus.docs[idx].ids != corpus.docs[0].ids {
                let b = enc.encode_review(&params, &corpus, idx);
                assert!(!a.approx_eq(&b, 1e-4));
                found = true;
                break;
            }
        }
        assert!(found, "corpus needs at least two distinct reviews");
    }
}
