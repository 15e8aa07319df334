//! DER baseline — Chen, Zhang & Qin, *Dynamic Explainable Recommendation
//! Based on Neural Attentive Models* (AAAI 2019).
//!
//! Models the user's *dynamic* preference with a time-aware GRU over the
//! chronological sequence of their reviews (each input is the frozen review
//! vector plus a log time-gap feature — the time-awareness of the original's
//! gated unit), a static item profile from mean review content, ID
//! embeddings, and an FM prediction layer. Trained with plain MSE.
//!
//! The paper observes DER underperforms on these datasets because users
//! average under three reviews — too short a history for a sequence model —
//! and the same effect reproduces here.

use super::neural::{train_mean, Fitted, PairNet, Schedule};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrre_data::repr::{item_input_reviews, user_input_reviews, ReviewVectors};
use rrre_data::{Dataset, DatasetIndex, EncodedCorpus, ItemId, UserId};
use rrre_tensor::nn::{Embedding, FactorizationMachine, Gru, Linear};
use rrre_tensor::{Executor, Params, Tensor};

/// DER hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct DerConfig {
    /// Max reviews in the user history sequence.
    pub s_u: usize,
    /// Reviews in the item profile.
    pub s_i: usize,
    /// GRU hidden size (also the ID-embedding size).
    pub hidden: usize,
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

impl Default for DerConfig {
    fn default() -> Self {
        Self {
            s_u: 8,
            s_i: 12,
            hidden: 16,
            fm_factors: 8,
            lr: 0.005,
            epochs: 12,
            batch_size: 64,
            l2: 1e-3,
            seed: 0xDE4,
        }
    }
}

/// Trained DER model.
pub type Der = Fitted<DerNet>;

/// DER's network: a time-aware GRU over the user's history, a static item
/// profile, ID embeddings and an FM prediction layer.
pub struct DerNet {
    cfg: DerConfig,
    user_emb: Embedding,
    item_emb: Embedding,
    gru: Gru,
    item_fc: Linear,
    fm: FactorizationMachine,
    review_vectors: ReviewVectors,
    index: DatasetIndex,
    /// Train-set mean rating; the FM predicts the residual around it.
    mean_rating: f32,
}

impl Der {
    /// Trains on the listed review indices.
    pub fn fit(ds: &Dataset, corpus: &EncodedCorpus, train: &[usize], cfg: DerConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut params = Params::new();
        let p = &mut params;
        let dim = corpus.embed_dim();
        let net = DerNet {
            cfg,
            user_emb: Embedding::new(p, &mut rng, "der.user_emb", ds.n_users, cfg.hidden),
            item_emb: Embedding::new(p, &mut rng, "der.item_emb", ds.n_items, cfg.hidden),
            // +1 input column: the log time-gap feature.
            gru: Gru::new(p, &mut rng, "der.gru", dim + 1, cfg.hidden),
            item_fc: Linear::new(p, &mut rng, "der.item_fc", dim, cfg.hidden),
            fm: FactorizationMachine::new(p, &mut rng, "der.fm", 2 * cfg.hidden, cfg.fm_factors),
            review_vectors: ReviewVectors::build(ds, corpus),
            index: ds.index(),
            mean_rating: train_mean(ds, train),
        };
        let schedule = Schedule { lr: cfg.lr, epochs: cfg.epochs, batch_size: cfg.batch_size, l2: cfg.l2 };
        Fitted::train(net, params, &mut rng, ds, corpus, train, schedule)
    }
}

impl DerNet {
    /// Builds the `[T, dim+1]` time-augmented history sequence of a user.
    fn user_sequence(&self, ds: &Dataset, reviews: &[usize]) -> Tensor {
        let dim = self.review_vectors.dim();
        let mut seq = Tensor::zeros(reviews.len().max(1), dim + 1);
        let mut prev_ts: Option<i64> = None;
        for (row, &ri) in reviews.iter().enumerate() {
            seq.row_mut(row)[..dim].copy_from_slice(self.review_vectors.vector(ri));
            let ts = ds.reviews[ri].timestamp;
            let gap = prev_ts.map_or(0.0, |p| ((ts - p).max(0) as f32 + 1.0).ln());
            seq.row_mut(row)[dim] = gap;
            prev_ts = Some(ts);
        }
        seq
    }
}

impl PairNet for DerNet {
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

        // Dynamic user state from the GRU over the time-ordered history.
        let u_dyn = if u_revs.is_empty() {
            ex.constant(Tensor::zeros(1, cfg.hidden))
        } else {
            let seq = ex.constant(self.user_sequence(ds, &u_revs));
            self.gru.forward_final(ex, params, seq)
        };
        // Static item profile: mean review content, densely projected.
        let i_profile = if i_revs.is_empty() {
            ex.constant(Tensor::zeros(1, cfg.hidden))
        } else {
            let m = ex.constant(self.review_vectors.stack(&i_revs));
            let summed = ex.sum_rows(&m, &[i_revs.len()]);
            let mean = ex.scale(summed, 1.0 / i_revs.len() as f32);
            self.item_fc.forward(ex, params, mean)
        };

        let u_id = self.user_emb.forward(ex, params, &[user]);
        let i_id = self.item_emb.forward(ex, params, &[item]);
        let x_u = ex.add(u_id, &u_dyn);
        let y_i = ex.add(i_id, &i_profile);
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
        let cfg = DerConfig { epochs: 6, s_u: 4, s_i: 8, hidden: 8, ..Default::default() };
        let model = Der::fit(&ds, &corpus, &split.train, cfg);

        let preds = model.predict_reviews(&ds, &corpus, &split.test);
        let targets: Vec<f32> = split.test.iter().map(|&i| ds.reviews[i].rating).collect();
        let model_rmse = rmse(&preds, &targets);
        let mean = split.train.iter().map(|&i| ds.reviews[i].rating).sum::<f32>() / split.train.len() as f32;
        let mean_rmse = rmse(&vec![mean; targets.len()], &targets);
        assert!(model_rmse < mean_rmse + 0.05, "DER {model_rmse} vs mean {mean_rmse}");
    }

    #[test]
    fn time_gaps_enter_the_sequence() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..ds.len()).collect();
        let cfg = DerConfig { epochs: 1, s_u: 3, s_i: 5, hidden: 4, ..Default::default() };
        let model = Der::fit(&ds, &corpus, &train, cfg);
        // Find a user with ≥ 2 reviews and check the gap column is non-zero
        // from the second step on.
        let index = ds.index();
        let user = (0..ds.n_users)
            .find(|&u| index.user_degree(rrre_data::UserId(u as u32)) >= 2)
            .expect("some user with two reviews");
        let revs = index.user_reviews(rrre_data::UserId(user as u32)).to_vec();
        let seq = model.net.user_sequence(&ds, &revs);
        let dim = model.net.review_vectors.dim();
        assert_eq!(seq.get(0, dim), 0.0);
        assert!(seq.get(1, dim) >= 0.0);
    }
}
