//! Trainable lookup table.

use crate::{init, Executor, ParamId, Params};
use rand::Rng;

/// An embedding table mapping integer ids to dense rows.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Registers a `vocab × dim` table initialised `N(0, 0.1²)`.
    pub fn new(params: &mut Params, rng: &mut impl Rng, name: &str, vocab: usize, dim: usize) -> Self {
        let table = params.register(format!("{name}.table"), init::embedding(rng, vocab, dim, 0.1));
        Self { table, vocab, dim }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Handle of the underlying table parameter.
    pub fn table(&self) -> ParamId {
        self.table
    }

    /// Looks up `ids`, producing an `[ids.len(), dim]` value. Only those
    /// rows are copied, and on a tape the backward pass writes only those
    /// rows of the gradient ([`crate::Tape::param_rows`]); duplicate ids
    /// accumulate gradient into the same row.
    ///
    /// # Panics
    /// Panics if any id is out of vocabulary.
    pub fn forward<'p, E: Executor<'p>>(&self, ex: &mut E, params: &'p Params, ids: &[usize]) -> E::V {
        for &id in ids {
            assert!(id < self.vocab, "Embedding::forward: id {id} out of vocab {}", self.vocab);
        }
        ex.param_rows(params, self.table, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_gradients_ok;
    use crate::{Tape, Tensor};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn lookup_returns_rows() {
        let mut params = Params::new();
        let emb = Embedding::new(&mut params, &mut StdRng::seed_from_u64(9), "e", 3, 2);
        *params.get_mut(emb.table()) = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut tape = Tape::new();
        let out = emb.forward(&mut tape, &params, &[2, 0]);
        assert_eq!(tape.value(out).as_slice(), &[5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    fn duplicate_ids_gradcheck() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut params = Params::new();
        let emb = Embedding::new(&mut params, &mut rng, "e", 5, 3);
        assert_gradients_ok(&mut params, move |p, tape| {
            let out = emb.forward(tape, p, &[1, 1, 4]);
            let sq = tape.square(out);
            tape.sum_all(sq)
        });
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn out_of_vocab_panics() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut params = Params::new();
        let emb = Embedding::new(&mut params, &mut rng, "e", 5, 3);
        let mut tape = Tape::new();
        let _ = emb.forward(&mut tape, &params, &[5]);
    }
}
