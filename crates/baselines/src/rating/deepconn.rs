//! DeepCoNN baseline — Zheng, Noroozi & Yu, *Joint Deep Modeling of Users
//! and Items Using Reviews for Recommendation* (WSDM 2017).
//!
//! Two parallel towers: the user tower runs a 1-D CNN with max-over-time
//! pooling over the concatenation of the user's review texts, the item tower
//! does the same over the item's review texts; a factorization machine on
//! the concatenated latent vectors predicts the rating. Word embeddings are
//! the frozen pretrained vectors (the original learns them; freezing is a
//! documented CPU-budget simplification that applies equally to every model
//! here).

use super::neural::{train_mean, Fitted, PairNet, Schedule};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrre_data::repr::{concat_document, embed_document, item_input_reviews, user_input_reviews};
use rrre_data::{Dataset, DatasetIndex, EncodedCorpus};
use rrre_tensor::nn::{Conv1dMaxPool, FactorizationMachine, Linear};
use rrre_tensor::{Executor, Params};

/// DeepCoNN hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct DeepConnConfig {
    /// Max tokens per tower document.
    pub doc_tokens: usize,
    /// Reviews concatenated per document.
    pub doc_reviews: usize,
    /// Convolution window width.
    pub conv_width: usize,
    /// Convolution filters.
    pub filters: usize,
    /// Latent dimension after the dense layer.
    pub latent: usize,
    /// FM interaction factors.
    pub fm_factors: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Examples per optimiser step.
    pub batch_size: usize,
    /// L2 regularisation strength.
    pub l2: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DeepConnConfig {
    fn default() -> Self {
        Self {
            doc_tokens: 60,
            doc_reviews: 8,
            conv_width: 3,
            filters: 32,
            latent: 16,
            fm_factors: 8,
            lr: 0.003,
            epochs: 6,
            batch_size: 32,
            l2: 3e-4,
            seed: 0xDCC,
        }
    }
}

/// Trained DeepCoNN model.
pub type DeepConn = Fitted<DeepConnNet>;

/// DeepCoNN's network: a CNN tower per side over the entity's review
/// document and an FM prediction layer.
pub struct DeepConnNet {
    user_conv: Conv1dMaxPool,
    item_conv: Conv1dMaxPool,
    user_fc: Linear,
    item_fc: Linear,
    fm: FactorizationMachine,
    user_docs: Vec<Vec<usize>>,
    item_docs: Vec<Vec<usize>>,
    /// Train-set mean rating; the FM predicts the residual around it.
    mean_rating: f32,
}

impl DeepConn {
    /// Trains on the listed review indices.
    pub fn fit(ds: &Dataset, corpus: &EncodedCorpus, train: &[usize], cfg: DeepConnConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut params = Params::new();
        let p = &mut params;
        let dim = corpus.embed_dim();
        let user_conv = Conv1dMaxPool::new(p, &mut rng, "deepconn.user.conv", dim, cfg.conv_width, cfg.filters);
        let item_conv = Conv1dMaxPool::new(p, &mut rng, "deepconn.item.conv", dim, cfg.conv_width, cfg.filters);
        let user_fc = Linear::new(p, &mut rng, "deepconn.user.fc", cfg.filters, cfg.latent);
        let item_fc = Linear::new(p, &mut rng, "deepconn.item.fc", cfg.filters, cfg.latent);
        let fm = FactorizationMachine::new(p, &mut rng, "deepconn.fm", 2 * cfg.latent, cfg.fm_factors);
        let (user_docs, item_docs) = build_documents(ds, corpus, &ds.index(), &cfg);
        let mean_rating = train_mean(ds, train);
        let net = DeepConnNet { user_conv, item_conv, user_fc, item_fc, fm, user_docs, item_docs, mean_rating };
        let schedule = Schedule { lr: cfg.lr, epochs: cfg.epochs, batch_size: cfg.batch_size, l2: cfg.l2 };
        Fitted::train(net, params, &mut rng, ds, corpus, train, schedule)
    }
}

impl PairNet for DeepConnNet {
    fn forward<'p, E: Executor<'p>>(
        &self,
        ex: &mut E,
        params: &'p Params,
        _ds: &Dataset,
        corpus: &EncodedCorpus,
        user: usize,
        item: usize,
    ) -> E::V {
        let u_seq = ex.constant(embed_document(corpus, &self.user_docs[user]));
        let i_seq = ex.constant(embed_document(corpus, &self.item_docs[item]));
        let u_pool = self.user_conv.forward(ex, params, u_seq);
        let i_pool = self.item_conv.forward(ex, params, i_seq);
        let u_lat = self.user_fc.forward(ex, params, u_pool);
        let i_lat = self.item_fc.forward(ex, params, i_pool);
        let joint = ex.concat_cols(&[&u_lat, &i_lat]);
        let residual = self.fm.forward(ex, params, joint);
        ex.add_scalar(residual, self.mean_rating)
    }
}

/// Builds one padded token document per user and per item. Documents shorter
/// than the convolution window are padded up to it.
fn build_documents(
    ds: &Dataset,
    corpus: &EncodedCorpus,
    index: &DatasetIndex,
    cfg: &DeepConnConfig,
) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let pad_to_window = |mut doc: Vec<usize>| {
        while doc.len() < cfg.conv_width {
            doc.push(rrre_text::PAD);
        }
        doc
    };
    let user_docs = (0..ds.n_users)
        .map(|u| {
            let revs = user_input_reviews(index, rrre_data::UserId(u as u32), cfg.doc_reviews);
            pad_to_window(concat_document(corpus, &revs, cfg.doc_tokens))
        })
        .collect();
    let item_docs = (0..ds.n_items)
        .map(|i| {
            let revs = item_input_reviews(index, rrre_data::ItemId(i as u32), cfg.doc_reviews);
            pad_to_window(concat_document(corpus, &revs, cfg.doc_tokens))
        })
        .collect();
    (user_docs, item_docs)
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
        let cfg = DeepConnConfig { epochs: 4, doc_tokens: 30, filters: 12, latent: 8, ..Default::default() };
        let model = DeepConn::fit(&ds, &corpus, &split.train, cfg);

        let preds = model.predict_reviews(&ds, &corpus, &split.test);
        let targets: Vec<f32> = split.test.iter().map(|&i| ds.reviews[i].rating).collect();
        let model_rmse = rmse(&preds, &targets);
        let mean = split.train.iter().map(|&i| ds.reviews[i].rating).sum::<f32>() / split.train.len() as f32;
        let mean_rmse = rmse(&vec![mean; targets.len()], &targets);
        assert!(model_rmse < mean_rmse + 0.05, "DeepCoNN {model_rmse} vs mean {mean_rmse}");
    }

    #[test]
    fn predictions_in_star_range() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..ds.len()).collect();
        let cfg = DeepConnConfig { epochs: 1, doc_tokens: 20, filters: 8, latent: 4, ..Default::default() };
        let model = DeepConn::fit(&ds, &corpus, &train, cfg);
        for p in model.predict_reviews(&ds, &corpus, &train[..10.min(train.len())]) {
            assert!((1.0..=5.0).contains(&p));
        }
    }
}
