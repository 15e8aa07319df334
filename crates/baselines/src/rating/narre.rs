//! NARRE baseline — Chen et al., *Neural Attentional Rating Regression with
//! Review-level Explanations* (WWW 2018).
//!
//! Review-level attention over a user's (item's) reviews, where each review
//! is scored against the ID embedding of the item (user) it addresses; the
//! attended text representation is fused with ID embeddings and fed to a
//! prediction layer. Trained with plain MSE on **all** training reviews —
//! NARRE has no notion of reliability, which is exactly the gap RRRE's
//! biased loss closes (Table III).
//!
//! Review texts are represented by frozen pretrained review vectors (the
//! original uses a trainable CNN per review; freezing the text encoder is
//! the uniform CPU-budget simplification of this reproduction, applied to
//! RRRE's frozen mode as well).

use super::neural::{train_mean, Fitted, PairNet, Schedule};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrre_data::repr::{item_input_reviews, user_input_reviews, ReviewVectors};
use rrre_data::{Dataset, DatasetIndex, EncodedCorpus, ItemId, UserId};
use rrre_tensor::nn::{AttentionPool, Embedding, FactorizationMachine, Linear};
use rrre_tensor::{Executor, Params, Tensor};

/// NARRE hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct NarreConfig {
    /// Reviews per user tower (`s_u`).
    pub s_u: usize,
    /// Reviews per item tower (`s_i`).
    pub s_i: usize,
    /// ID-embedding dimension.
    pub id_dim: usize,
    /// Attention hidden size.
    pub attn_dim: usize,
    /// FM interaction factors.
    pub fm_factors: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Examples per optimiser step.
    pub batch_size: usize,
    /// L2 regularisation.
    pub l2: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NarreConfig {
    fn default() -> Self {
        Self {
            s_u: 8,
            s_i: 12,
            id_dim: 16,
            attn_dim: 16,
            fm_factors: 8,
            lr: 0.005,
            epochs: 12,
            batch_size: 64,
            l2: 1e-3,
            seed: 0x4A44E,
        }
    }
}

/// Trained NARRE model.
pub type Narre = Fitted<NarreNet>;

/// NARRE's network: ID embeddings, one review-attention tower per side and
/// an FM prediction layer.
pub struct NarreNet {
    cfg: NarreConfig,
    user_emb: Embedding,
    item_emb: Embedding,
    user_attn: AttentionPool,
    item_attn: AttentionPool,
    user_fc: Linear,
    item_fc: Linear,
    fm: FactorizationMachine,
    review_vectors: ReviewVectors,
    index: DatasetIndex,
    /// Train-set mean rating; the FM predicts the residual around it.
    mean_rating: f32,
}

impl Narre {
    /// Trains on the listed review indices.
    pub fn fit(ds: &Dataset, corpus: &EncodedCorpus, train: &[usize], cfg: NarreConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut params = Params::new();
        let p = &mut params;
        let dim = corpus.embed_dim();
        let net = NarreNet {
            cfg,
            user_emb: Embedding::new(p, &mut rng, "narre.user_emb", ds.n_users, cfg.id_dim),
            item_emb: Embedding::new(p, &mut rng, "narre.item_emb", ds.n_items, cfg.id_dim),
            user_attn: AttentionPool::new(p, &mut rng, "narre.user_attn", dim, cfg.id_dim, cfg.attn_dim),
            item_attn: AttentionPool::new(p, &mut rng, "narre.item_attn", dim, cfg.id_dim, cfg.attn_dim),
            user_fc: Linear::new(p, &mut rng, "narre.user_fc", dim, cfg.id_dim),
            item_fc: Linear::new(p, &mut rng, "narre.item_fc", dim, cfg.id_dim),
            fm: FactorizationMachine::new(p, &mut rng, "narre.fm", 2 * cfg.id_dim, cfg.fm_factors),
            review_vectors: ReviewVectors::build(ds, corpus),
            index: ds.index(),
            mean_rating: train_mean(ds, train),
        };
        let schedule = Schedule { lr: cfg.lr, epochs: cfg.epochs, batch_size: cfg.batch_size, l2: cfg.l2 };
        Fitted::train(net, params, &mut rng, ds, corpus, train, schedule)
    }
}

impl NarreNet {
    /// One tower: attention over the entity's review vectors with per-review
    /// counterpart-ID context, then a dense projection fused with the ID
    /// embedding.
    #[allow(clippy::too_many_arguments)] // mirrors the architecture diagram 1:1
    fn tower<'p, E: Executor<'p>>(
        &self,
        ex: &mut E,
        params: &'p Params,
        reviews: &[usize],
        ctx_ids: &[usize],
        ctx_emb: &Embedding,
        attn: &AttentionPool,
        fc: &Linear,
        own_id_vec: E::V,
    ) -> E::V {
        let pooled = if reviews.is_empty() {
            ex.constant(Tensor::zeros(1, self.review_vectors.dim()))
        } else {
            let items = ex.constant(self.review_vectors.stack(reviews));
            // Per-review context: the counterpart entity of each review.
            let ctx = ctx_emb.forward(ex, params, ctx_ids);
            attn.forward(ex, params, items, ctx)
        };
        let text_part = fc.forward(ex, params, pooled);
        ex.add(own_id_vec, &text_part)
    }
}

impl PairNet for NarreNet {
    fn forward<'p, E: Executor<'p>>(
        &self,
        ex: &mut E,
        params: &'p Params,
        ds: &Dataset,
        _corpus: &EncodedCorpus,
        user: usize,
        item: usize,
    ) -> E::V {
        let cfg = &self.cfg;
        let u_revs = user_input_reviews(&self.index, UserId(user as u32), cfg.s_u);
        let i_revs = item_input_reviews(&self.index, ItemId(item as u32), cfg.s_i);
        let u_ctx_ids: Vec<usize> = u_revs.iter().map(|&ri| ds.reviews[ri].item.index()).collect();
        let i_ctx_ids: Vec<usize> = i_revs.iter().map(|&ri| ds.reviews[ri].user.index()).collect();

        let u_id = self.user_emb.forward(ex, params, &[user]);
        let i_id = self.item_emb.forward(ex, params, &[item]);

        let x_u = self.tower(ex, params, &u_revs, &u_ctx_ids, &self.item_emb, &self.user_attn, &self.user_fc, u_id);
        let y_i = self.tower(ex, params, &i_revs, &i_ctx_ids, &self.user_emb, &self.item_attn, &self.item_fc, i_id);

        let joint = ex.concat_cols(&[&x_u, &y_i]);
        let residual = self.fm.forward(ex, params, joint);
        ex.add_scalar(residual, self.mean_rating)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrre_data::synth::{generate, SynthConfig};
    use rrre_data::{train_test_split, CorpusConfig};
    use rrre_metrics::rmse;
    use rrre_text::word2vec::Word2VecConfig;

    fn tiny() -> (Dataset, EncodedCorpus) {
        let ds = generate(&SynthConfig::yelp_chi().scaled(0.04));
        let corpus = EncodedCorpus::build(
            &ds,
            &CorpusConfig {
                max_len: 16,
                word2vec: Word2VecConfig { dim: 8, epochs: 2, ..Default::default() },
                ..Default::default()
            },
        );
        (ds, corpus)
    }

    #[test]
    fn learns_better_than_mean_predictor() {
        let (ds, corpus) = tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let split = train_test_split(&ds, 0.3, &mut rng);
        let cfg = NarreConfig { epochs: 6, s_u: 4, s_i: 8, id_dim: 8, attn_dim: 8, ..Default::default() };
        let model = Narre::fit(&ds, &corpus, &split.train, cfg);

        let preds = model.predict_reviews(&ds, &corpus, &split.test);
        let targets: Vec<f32> = split.test.iter().map(|&i| ds.reviews[i].rating).collect();
        let model_rmse = rmse(&preds, &targets);
        let mean = split.train.iter().map(|&i| ds.reviews[i].rating).sum::<f32>() / split.train.len() as f32;
        let mean_rmse = rmse(&vec![mean; targets.len()], &targets);
        assert!(model_rmse < mean_rmse + 0.05, "NARRE {model_rmse} vs mean {mean_rmse}");
    }

    #[test]
    fn predictions_in_star_range() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..ds.len()).collect();
        let cfg = NarreConfig { epochs: 1, s_u: 3, s_i: 5, id_dim: 4, attn_dim: 4, ..Default::default() };
        let model = Narre::fit(&ds, &corpus, &train, cfg);
        for p in model.predict_reviews(&ds, &corpus, &train[..10.min(train.len())]) {
            assert!((1.0..=5.0).contains(&p));
        }
    }
}
