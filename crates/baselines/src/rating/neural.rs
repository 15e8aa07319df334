//! What the neural rating baselines (DeepCoNN, NARRE, DER) share: each
//! writes its network's forward once, generic over [`Executor`]
//! ([`PairNet`]), and [`Fitted`] trains and serves any of them.
//!
//! Training is serial mini-batch Adam on plain MSE over every training
//! review. Each epoch shuffles the examples (Fisher–Yates, with the RNG that
//! initialised the weights); each chunk of `batch_size` examples zeroes the
//! gradients, runs every example's forward and backward on one reused
//! [`Tape`] with the loss scaled by the chunk length, adds the L2 gradient
//! and takes one Adam step. Prediction runs the same forward on [`Eval`].

use rand::rngs::StdRng;
use rand::Rng;
use rrre_data::{Dataset, EncodedCorpus, ItemId, UserId};
use rrre_tensor::{optim::Adam, Eval, Executor, Params, Tape, Tensor};

/// A neural rating baseline's network: layers registered in a [`Params`]
/// store plus the per-entity inputs it reads, and one forward definition.
pub trait PairNet {
    /// The rating predicted for `(user, item)`, before clamping, as a
    /// `1 × 1` value.
    fn forward<'p, E: Executor<'p>>(
        &self,
        ex: &mut E,
        params: &'p Params,
        ds: &Dataset,
        corpus: &EncodedCorpus,
        user: usize,
        item: usize,
    ) -> E::V;
}

/// The optimiser schedule of one fit.
pub(crate) struct Schedule {
    pub lr: f32,
    pub epochs: usize,
    pub batch_size: usize,
    pub l2: f32,
}

/// Mean rating of the training reviews, around which every network's FM
/// predicts the residual.
///
/// # Panics
/// Panics on an empty training set.
pub(crate) fn train_mean(ds: &Dataset, train: &[usize]) -> f32 {
    assert!(!train.is_empty(), "fit: empty training set");
    train.iter().map(|&i| ds.reviews[i].rating).sum::<f32>() / train.len() as f32
}

/// A trained neural rating baseline: its weights and its network.
pub struct Fitted<N> {
    pub(crate) params: Params,
    pub(crate) net: N,
}

impl<N: PairNet> Fitted<N> {
    /// Trains `net`'s freshly initialised `params` on the `train` reviews
    /// (see the module docs), drawing the shuffles from `rng`.
    pub(crate) fn train(
        net: N,
        mut params: Params,
        rng: &mut StdRng,
        ds: &Dataset,
        corpus: &EncodedCorpus,
        train: &[usize],
        schedule: Schedule,
    ) -> Self {
        let mut opt = Adam::new(schedule.lr);
        let mut order = train.to_vec();
        let mut tape = Tape::new();
        for _ in 0..schedule.epochs {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for chunk in order.chunks(schedule.batch_size) {
                params.zero_grads();
                for &ri in chunk {
                    let r = &ds.reviews[ri];
                    tape.reset();
                    let pred = net.forward(&mut tape, &params, ds, corpus, r.user.index(), r.item.index());
                    let loss = tape.mse(pred, &Tensor::scalar(r.rating));
                    let scaled = tape.scale(loss, 1.0 / chunk.len() as f32);
                    tape.backward(scaled, &mut params);
                }
                params.apply_l2_grad(schedule.l2);
                opt.step(&mut params);
            }
        }
        Self { params, net }
    }

    /// The network's forward for `(user, item)` on `ex`: recorded on a
    /// [`Tape`], computed on [`Eval`], with the same bits either way.
    pub fn forward<'p, E: Executor<'p>>(
        &'p self,
        ex: &mut E,
        ds: &Dataset,
        corpus: &EncodedCorpus,
        user: UserId,
        item: ItemId,
    ) -> E::V {
        self.net.forward(ex, &self.params, ds, corpus, user.index(), item.index())
    }

    /// Predicted rating for a user–item pair, clamped to the star range.
    pub fn predict(&self, ds: &Dataset, corpus: &EncodedCorpus, user: UserId, item: ItemId) -> f32 {
        let mut ex = Eval;
        let pred = self.forward(&mut ex, ds, corpus, user, item);
        ex.value(&pred).item().clamp(1.0, 5.0)
    }

    /// Predictions for the listed review indices.
    pub fn predict_reviews(&self, ds: &Dataset, corpus: &EncodedCorpus, indices: &[usize]) -> Vec<f32> {
        indices
            .iter()
            .map(|&i| self.predict(ds, corpus, ds.reviews[i].user, ds.reviews[i].item))
            .collect()
    }

    /// The trained weights.
    pub fn params(&self) -> &Params {
        &self.params
    }
}
