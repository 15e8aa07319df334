//! UserNet / ItemNet towers (paper §III-D, Eq. 5–8).
//!
//! A tower takes the entity's `d ≤ m` review embeddings, weights them with
//! the fraud-attention mechanism conditioned on the target pair's user and
//! item ID embeddings, and projects the weighted sum through a fully
//! connected layer into the entity representation (`x_u` or `y_i`). The
//! paper zero-pads to `m` rows and masks the padding out of the softmax; a
//! padded row only ever adds `+0.0` to a sum, so the tower runs over the
//! `d` real rows alone and gives the same bits. A batch of entities runs as
//! one tower over their stacked rows, each entity pooled over its own.

use crate::config::Pooling;
use rand::Rng;
use rrre_tensor::nn::{AttentionPool, Linear};
use rrre_tensor::{Executor, Params, Tensor};

/// One tower (UserNet and ItemNet are two instances with separate weights).
#[derive(Debug, Clone)]
pub struct Tower {
    attn: AttentionPool,
    fc: Linear,
    k: usize,
}

impl Tower {
    /// Registers tower weights under `name.*`.
    ///
    /// * `k` — review-embedding size;
    /// * `ctx_dim` — context size (user ⊕ item ID embeddings = `2 × id_dim`);
    /// * `attn_dim` — attention hidden size;
    /// * `out_dim` — entity-representation size.
    pub fn new(
        params: &mut Params,
        rng: &mut impl Rng,
        name: &str,
        k: usize,
        ctx_dim: usize,
        attn_dim: usize,
        out_dim: usize,
    ) -> Self {
        Self {
            attn: AttentionPool::new(params, rng, &format!("{name}.attn"), k, ctx_dim, attn_dim),
            fc: Linear::new(params, rng, &format!("{name}.fc"), k, out_dim),
            k,
        }
    }

    /// Tower forward of one entity: `reviews` is its `[d, k]` review
    /// matrix, `context` is `[1, ctx_dim]` or `[d, ctx_dim]` (target-pair ID
    /// embeddings). An entity with no reviews (`d = 0`) produces the zero
    /// representation projected through the dense layer, so downstream
    /// shapes stay uniform. `pooling` selects fraud-attention or the
    /// mean-pooling ablation.
    pub fn forward<'p, E: Executor<'p>>(
        &self,
        ex: &mut E,
        params: &'p Params,
        reviews: E::V,
        context: E::V,
        pooling: Pooling,
    ) -> E::V {
        let d = ex.shape(&reviews).0;
        self.attend(ex, params, &reviews, &context, &[d], pooling).0
    }

    /// The tower over one or more entities, stacked: entity `s` has the
    /// next `counts[s]` rows of `reviews` (and of a per-row `context`; a
    /// context of one row per entity is broadcast over its rows). Returns
    /// one representation row per entity and the fraud-attention weights
    /// `α` (`[Σd, 1]`) the reviews were pooled with — which review
    /// mattered, for the review-level explanations. `α` is `None` under mean
    /// pooling and when no entity has a review.
    pub fn attend<'p, E: Executor<'p>>(
        &self,
        ex: &mut E,
        params: &'p Params,
        reviews: &E::V,
        context: &E::V,
        counts: &[usize],
        pooling: Pooling,
    ) -> (E::V, Option<E::V>) {
        let (pooled, alpha) = match pooling {
            _ if counts.iter().all(|&d| d == 0) => {
                let zeros = ex.constant(Tensor::zeros(counts.len(), self.k));
                (ex.stacked(zeros, &vec![1; counts.len()]), None)
            }
            Pooling::FraudAttention => {
                let (pooled, alpha) = self.attn.pool(ex, params, reviews, context, counts);
                (pooled, Some(alpha))
            }
            Pooling::Mean => {
                // `1/d` per entity, multiplied as `scale(sum, 1/d)` does; an
                // entity without reviews keeps its `+0.0` sum.
                let summed = ex.sum_rows(reviews, counts);
                let inv = counts.iter().flat_map(|&d| std::iter::repeat_n(if d == 0 { 1.0 } else { 1.0 / d as f32 }, self.k));
                let inv = ex.constant(Tensor::from_vec(counts.len(), self.k, inv.collect()));
                (ex.mul(summed, &inv), None)
            }
        };
        (self.fc.forward(ex, params, pooled), alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use rrre_tensor::gradcheck::assert_gradients_ok;
    use rrre_tensor::{init, Eval};
    use std::borrow::Cow;

    fn setup(seed: u64) -> (Params, Tower, Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::new();
        let tower = Tower::new(&mut params, &mut rng, "t", 6, 4, 5, 3);
        let reviews = init::normal(&mut rng, 4, 6, 0.0, 1.0);
        let ctx = init::normal(&mut rng, 1, 4, 0.0, 1.0);
        (params, tower, reviews, ctx)
    }

    #[test]
    fn no_reviews_yield_bias_only() {
        let (params, tower, _, ctx) = setup(2);
        for pooling in [Pooling::FraudAttention, Pooling::Mean] {
            let none = Cow::Owned(Tensor::zeros(0, 6));
            let (out, alpha) = tower.attend(&mut Eval, &params, &none, &Cow::Borrowed(&ctx), &[0], pooling);
            // Zero pooled vector → output is the fc bias (zero-initialised).
            assert!(out.approx_eq(&Tensor::zeros(1, 3), 1e-6));
            assert!(alpha.is_none());
        }
    }

    #[test]
    fn attention_weights_cover_exactly_the_reviews() {
        let (params, tower, reviews, ctx) = setup(3);
        let two = Tensor::concat_rows(&[&reviews.row_tensor(0), &reviews.row_tensor(2)]);
        let (_, alpha) = tower.attend(&mut Eval, &params, &Cow::Owned(two), &Cow::Owned(ctx), &[2], Pooling::FraudAttention);
        let w = alpha.expect("attention pooling reports its weights");
        assert_eq!(w.shape(), (2, 1));
        assert!((w.sum() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn mean_pooling_averages_the_rows() {
        let (params, tower, reviews, ctx) = setup(5);
        let two = Tensor::concat_rows(&[&reviews.row_tensor(0), &reviews.row_tensor(1)]);
        let out = tower.forward(&mut Eval, &params, Cow::Owned(two), Cow::Owned(ctx), Pooling::Mean);
        // Hand-computed mean of first two rows through the dense layer.
        let mut mean = Tensor::zeros(1, 6);
        for c in 0..6 {
            mean.set(0, c, (reviews.get(0, c) + reviews.get(1, c)) / 2.0);
        }
        let expected = tower.fc.forward(&mut Eval, &params, Cow::Owned(mean));
        assert!(out.approx_eq(&expected, 1e-5));
    }

    #[test]
    fn tower_gradcheck() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = Params::new();
        let tower = Tower::new(&mut params, &mut rng, "t", 4, 3, 4, 2);
        let reviews = init::normal(&mut rng, 3, 4, 0.0, 1.0);
        let ctx = init::normal(&mut rng, 1, 3, 0.0, 1.0);
        assert_gradients_ok(&mut params, move |p, tape| {
            let rv = tape.constant(reviews.clone());
            let cv = tape.constant(ctx.clone());
            let out = tower.forward(tape, p, rv, cv, Pooling::FraudAttention);
            let sq = tape.square(out);
            tape.sum_all(sq)
        });
    }
}
