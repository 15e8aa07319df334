//! UserNet / ItemNet towers (paper §III-D, Eq. 5–8).
//!
//! A tower takes the entity's `m` review embeddings, weights them with the
//! fraud-attention mechanism conditioned on the target pair's user and item
//! ID embeddings, and projects the weighted sum through a fully connected
//! layer into the entity representation (`x_u` or `y_i`).

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
    out_dim: usize,
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
            out_dim,
        }
    }

    /// Entity-representation size.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Tower forward: `reviews` is `[m, k]` with validity `mask`, `context`
    /// is `[1, ctx_dim]` or `[m, ctx_dim]` (target-pair ID embeddings).
    /// Entities with no reviews at all (fully false mask) produce the zero
    /// representation projected through the dense layer, so downstream
    /// shapes stay uniform. `pooling` selects fraud-attention or the
    /// mean-pooling ablation.
    pub fn forward<'p, E: Executor<'p>>(
        &self,
        ex: &mut E,
        params: &'p Params,
        reviews: E::V,
        mask: &[bool],
        context: E::V,
        pooling: Pooling,
    ) -> E::V {
        self.attend(ex, params, &reviews, mask, &context, pooling).0
    }

    /// [`Tower::forward`] together with the fraud-attention weights `α`
    /// (`[m, 1]`) it pooled the reviews with — which review mattered, for
    /// the review-level explanations. `α` is `None` under mean pooling and
    /// for an entity without reviews.
    pub fn attend<'p, E: Executor<'p>>(
        &self,
        ex: &mut E,
        params: &'p Params,
        reviews: &E::V,
        mask: &[bool],
        context: &E::V,
        pooling: Pooling,
    ) -> (E::V, Option<E::V>) {
        let (pooled, alpha) = if mask.iter().any(|&b| b) {
            match pooling {
                Pooling::FraudAttention => {
                    let (pooled, alpha) = self.attn.pool(ex, params, reviews, context, Some(mask));
                    (pooled, Some(alpha))
                }
                Pooling::Mean => {
                    let real = mask.iter().filter(|&&b| b).count() as f32;
                    let keep = mask.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
                    let keep = ex.constant(Tensor::from_vec(mask.len(), 1, keep));
                    let summed = ex.weighted_row_sum(reviews, &keep);
                    (ex.scale(summed, 1.0 / real), None)
                }
            }
        } else {
            (ex.constant(Tensor::zeros(1, self.k)), None)
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
    fn empty_mask_yields_bias_only() {
        let (params, tower, reviews, ctx) = setup(2);
        let mask = [false; 4];
        let (out, alpha) =
            tower.attend(&mut Eval, &params, &Cow::Owned(reviews), &mask, &Cow::Owned(ctx), Pooling::FraudAttention);
        // Zero pooled vector → output is the fc bias (zero-initialised).
        assert!(out.approx_eq(&Tensor::zeros(1, 3), 1e-6));
        assert!(alpha.is_none());
    }

    #[test]
    fn attention_weights_expose_masking() {
        let (params, tower, reviews, ctx) = setup(3);
        let mask = [true, false, true, false];
        let (_, alpha) =
            tower.attend(&mut Eval, &params, &Cow::Owned(reviews), &mask, &Cow::Owned(ctx), Pooling::FraudAttention);
        let w = alpha.expect("attention pooling reports its weights");
        assert!(w.get(1, 0) == 0.0 && w.get(3, 0) == 0.0);
        assert!((w.sum() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn mean_pooling_averages_unmasked_rows() {
        let (params, tower, reviews, ctx) = setup(5);
        let mask = [true, true, false, false];
        let out = tower.forward(&mut Eval, &params, Cow::Borrowed(&reviews), &mask, Cow::Owned(ctx), Pooling::Mean);
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
        let mask = [true, true, true];
        assert_gradients_ok(&mut params, move |p, tape| {
            let rv = tape.constant(reviews.clone());
            let cv = tape.constant(ctx.clone());
            let out = tower.forward(tape, p, rv, &mask, cv, Pooling::FraudAttention);
            let sq = tape.square(out);
            tape.sum_all(sq)
        });
    }
}
