//! Additive (fraud-)attention pooling — paper §III-D, Eq. (5)–(7).
//!
//! Scores each of `m` review embeddings against a context vector (the
//! concatenated user- and item-ID embeddings), softmaxes the scores into
//! weights `α`, and returns the weighted sum of the review embeddings.
//!
//! The paper writes separate context projections `W_u e_u + W_i e_i`; this
//! layer takes the context pre-concatenated and uses the block matrix
//! `W_ctx = [W_u; W_i]`, which is algebraically identical.

use crate::{init, Executor, ParamId, Params, Tensor};
use rand::Rng;

/// Additive attention pooling over the rows of an `[m, k]` matrix.
#[derive(Debug, Clone)]
pub struct AttentionPool {
    w_rev: ParamId,
    w_ctx: ParamId,
    b1: ParamId,
    h: ParamId,
    b2: ParamId,
    item_dim: usize,
    ctx_dim: usize,
}

impl AttentionPool {
    /// Registers attention weights under `name.*`.
    ///
    /// * `item_dim` — dimension of each pooled row (the review embedding).
    /// * `ctx_dim` — dimension of the context vector.
    /// * `attn_dim` — hidden size of the score MLP.
    pub fn new(
        params: &mut Params,
        rng: &mut impl Rng,
        name: &str,
        item_dim: usize,
        ctx_dim: usize,
        attn_dim: usize,
    ) -> Self {
        Self {
            w_rev: params.register(format!("{name}.w_rev"), init::xavier_uniform(rng, item_dim, attn_dim)),
            w_ctx: params.register(format!("{name}.w_ctx"), init::xavier_uniform(rng, ctx_dim, attn_dim)),
            b1: params.register(format!("{name}.b1"), Tensor::zeros(1, attn_dim)),
            h: params.register(format!("{name}.h"), init::xavier_uniform(rng, attn_dim, 1)),
            b2: params.register(format!("{name}.b2"), Tensor::zeros(1, 1)),
            item_dim,
            ctx_dim,
        }
    }

    /// Raw attention logits `α*` (`[m, 1]`) for rows `items` (`[m, k]`)
    /// against context, Eq. (5), for one or more entities: segment `s` of
    /// the rows is the next `counts[s]` of them, one entity's reviews.
    ///
    /// `context` is either `[1, ctx_dim]` (one shared context broadcast over
    /// all rows — RRRE's target user/item IDs), one row per segment, or
    /// `[m, ctx_dim]` (a per-row context — NARRE attends with the ID
    /// embedding of each review's own counterpart entity).
    fn logits<'p, E: Executor<'p>>(
        &self,
        ex: &mut E,
        params: &'p Params,
        items: &E::V,
        context: &E::V,
        counts: &[usize],
    ) -> E::V {
        let (m, item_dim) = ex.shape(items);
        assert_eq!(item_dim, self.item_dim, "AttentionPool: item dim mismatch");
        let ctx_shape = ex.shape(context);
        assert!(
            ctx_shape.1 == self.ctx_dim && (ctx_shape.0 == m || ctx_shape.0 == counts.len()),
            "AttentionPool: context must be [{}, {}] or [{m}, {}], got {ctx_shape:?}",
            counts.len(),
            self.ctx_dim,
            self.ctx_dim
        );
        let w_rev = ex.param(params, self.w_rev);
        let w_ctx = ex.param(params, self.w_ctx);
        let b1 = ex.param(params, self.b1);
        let h = ex.param(params, self.h);
        let b2 = ex.param(params, self.b2);
        let proj_items = ex.matmul(items, &w_rev);
        let proj_ctx = ex.matmul(context, &w_ctx);
        let pre = ex.add_biased(proj_items, &proj_ctx, &b1, counts);
        let act = ex.tanh(pre);
        let scores = ex.matmul(&act, &h);
        ex.add_row_broadcast(scores, &b2)
    }

    /// Attention weights `α` (`[m, 1]`, Eq. 6) over the rows of `items`,
    /// normalised over each entity's segment of `counts[s]` rows; a caller
    /// pools an entity's real reviews only, so there is no padding to mask.
    pub fn weights<'p, E: Executor<'p>>(
        &self,
        ex: &mut E,
        params: &'p Params,
        items: &E::V,
        context: &E::V,
        counts: &[usize],
    ) -> E::V {
        let logits = self.logits(ex, params, items, context, counts);
        ex.softmax_col(logits, counts)
    }

    /// Each entity's pooled rows (`[counts.len(), k]`, Eq. 7) together with
    /// the weights `α` (`[m, 1]`) that pooled them.
    pub fn pool<'p, E: Executor<'p>>(
        &self,
        ex: &mut E,
        params: &'p Params,
        items: &E::V,
        context: &E::V,
        counts: &[usize],
    ) -> (E::V, E::V) {
        let alpha = self.weights(ex, params, items, context, counts);
        (ex.weighted_row_sum(items, &alpha, counts), alpha)
    }

    /// Full pooling of one entity: weighted sum of the rows (`[1, k]`,
    /// Eq. 7).
    pub fn forward<'p, E: Executor<'p>>(&self, ex: &mut E, params: &'p Params, items: E::V, context: E::V) -> E::V {
        let m = ex.shape(&items).0;
        self.pool(ex, params, &items, &context, &[m]).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_gradients_ok;
    use crate::{Eval, Tape};
    use rand::{rngs::StdRng, SeedableRng};
    use std::borrow::Cow;

    fn setup(seed: u64) -> (Params, AttentionPool, Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::new();
        let attn = AttentionPool::new(&mut params, &mut rng, "a", 4, 3, 5);
        let items = init::normal(&mut rng, 6, 4, 0.0, 1.0);
        let ctx = init::normal(&mut rng, 1, 3, 0.0, 1.0);
        (params, attn, items, ctx)
    }

    #[test]
    fn weights_sum_to_one() {
        let (params, attn, items, ctx) = setup(41);
        let mut tape = Tape::new();
        let iv = tape.constant(items.clone());
        let cv = tape.constant(ctx.clone());
        let w = attn.weights(&mut tape, &params, &iv, &cv, &[6]);
        assert_eq!(tape.shape(w), (6, 1));
        assert!((tape.value(w).sum() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn pooled_output_is_convex_combination() {
        // Over a single row, the output must equal that row.
        let (params, attn, items, ctx) = setup(44);
        let row = items.row_tensor(2);
        let out = attn.forward(&mut Eval, &params, Cow::Owned(row.clone()), Cow::Owned(ctx));
        assert!(out.approx_eq(&row, 1e-4));
    }

    #[test]
    fn per_row_context_weights_sum_to_one() {
        let (params, attn, items, _) = setup(46);
        let mut rng = StdRng::seed_from_u64(47);
        let ctx_rows = init::normal(&mut rng, 6, 3, 0.0, 1.0);
        let w = attn.weights(&mut Eval, &params, &Cow::Owned(items), &Cow::Owned(ctx_rows), &[6]);
        assert_eq!(w.shape(), (6, 1));
        assert!((w.sum() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn per_row_context_gradcheck() {
        let mut rng = StdRng::seed_from_u64(48);
        let mut params = Params::new();
        let attn = AttentionPool::new(&mut params, &mut rng, "a", 3, 2, 4);
        let items = init::normal(&mut rng, 4, 3, 0.0, 1.0);
        let ctx = init::normal(&mut rng, 4, 2, 0.0, 1.0);
        assert_gradients_ok(&mut params, move |p, tape| {
            let iv = tape.constant(items.clone());
            let cv = tape.constant(ctx.clone());
            let out = attn.forward(tape, p, iv, cv);
            let sq = tape.square(out);
            tape.sum_all(sq)
        });
    }

    #[test]
    fn attention_gradcheck() {
        let mut rng = StdRng::seed_from_u64(45);
        let mut params = Params::new();
        let attn = AttentionPool::new(&mut params, &mut rng, "a", 3, 2, 4);
        let items = init::normal(&mut rng, 4, 3, 0.0, 1.0);
        let ctx = init::normal(&mut rng, 1, 2, 0.0, 1.0);
        assert_gradients_ok(&mut params, move |p, tape| {
            let iv = tape.constant(items.clone());
            let cv = tape.constant(ctx.clone());
            let out = attn.forward(tape, p, iv, cv);
            let sq = tape.square(out);
            tape.sum_all(sq)
        });
    }
}
