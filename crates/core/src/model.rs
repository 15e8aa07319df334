//! The RRRE model (paper §III): parallel UserNet/ItemNet over BiLSTM review
//! embeddings with fraud-attention, a softmax reliability head (Eq. 9–11)
//! and an FM rating head (Eq. 12), trained jointly with
//! `L = λ·loss₁ + (1−λ)·loss₂` (Eq. 15) where loss₂ is the reliability-
//! biased MSE of Eq. (14) (or plain Eq. (13) for the RRRE⁻ ablation).

use crate::config::{EncoderMode, LossVariant, RrreConfig, Sampling};
use crate::encoder::ReviewEncoder;
use crate::parallel::{self, GradShard};
use crate::tower::Tower;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrre_data::repr::ReviewVectors;
use rrre_data::{Dataset, DatasetIndex, EncodedCorpus, ItemId, Review, UserId};
use rrre_tensor::nn::{Embedding, FactorizationMachine, Linear};
use rrre_tensor::{optim::Adam, Eval, Executor, ParamId, Params, Tape, Tensor};
use std::borrow::Cow;

/// Joint prediction for one user–item pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted rating `r̂_ui`, clamped to the star range.
    pub rating: f32,
    /// Predicted reliability `l̂_ui ∈ [0, 1]` (probability the review is
    /// benign).
    pub reliability: f32,
}

/// Per-epoch training statistics delivered to the fit hook.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Mean joint loss over the epoch.
    pub loss: f32,
    /// Mean reliability cross-entropy (loss₁).
    pub loss1: f32,
    /// Mean (biased) rating MSE (loss₂).
    pub loss2: f32,
}

/// Calibrated low-confidence reliability prior for cold-start entities.
///
/// The fraud-attention towers aggregate an entity's review history; with
/// only a handful of reviews (the streaming-ingest cold-start corner) the
/// reliability head is confidently wrong rather than uncertain. Below the
/// `min_reviews` threshold the serving layer substitutes the dataset's
/// base rate of benign reviews — the best calibrated estimate available
/// with no per-entity evidence — while the rating still comes from the
/// model (ID embeddings carry signal even for thin histories).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColdStartPrior {
    /// An entity pair with `min(user_degree, item_degree)` below this gets
    /// the prior instead of the reliability head's score.
    pub min_reviews: usize,
    /// The substituted reliability: the dataset's benign fraction.
    pub reliability: f32,
}

impl ColdStartPrior {
    /// Calibrates the prior against a dataset's observed label base rate.
    pub fn calibrate(ds: &Dataset, min_reviews: usize) -> Self {
        Self { min_reviews, reliability: (1.0 - ds.fake_fraction()) as f32 }
    }

    /// Whether the pair is below the evidence threshold.
    pub fn applies(&self, user_degree: usize, item_degree: usize) -> bool {
        user_degree.min(item_degree) < self.min_reviews
    }

    /// Replaces the reliability of `pred` with the prior when the pair is
    /// cold; the rating always passes through.
    pub fn gate(&self, pred: Prediction, user_degree: usize, item_degree: usize) -> Prediction {
        if self.applies(user_degree, item_degree) {
            Prediction { rating: pred.rating, reliability: self.reliability }
        } else {
            pred
        }
    }
}

/// The most pairs one forward stacks: a tape stacks at most 64 examples.
const MAX_PAIRS: usize = 64;

/// `f` of each example of a batch, in the first `examples.len()` entries
/// of a buffer on the stack.
fn per_example<T: Copy + Default>(examples: &[(&Review, bool)], f: impl Fn(&Review, bool) -> T) -> [T; MAX_PAIRS] {
    assert!(examples.len() <= MAX_PAIRS, "Rrre: {} examples in one pass (≤ {MAX_PAIRS})", examples.len());
    let mut out = [T::default(); MAX_PAIRS];
    for (o, &(r, has_label)) in out.iter_mut().zip(examples) {
        *o = f(r, has_label);
    }
    out
}

/// Trained RRRE model.
#[derive(Clone)]
pub struct Rrre {
    cfg: RrreConfig,
    params: Params,
    encoder: ReviewEncoder,
    user_emb: Embedding,
    item_emb: Embedding,
    user_tower: Tower,
    item_tower: Tower,
    rel_head: Linear,
    w_h: Linear,
    w_e: Linear,
    fm: FactorizationMachine,
    /// Frozen-mode cache of review embeddings (`n_reviews × k`).
    cache: Option<ReviewVectors>,
    index: DatasetIndex,
    /// Train-set mean rating; the FM head predicts the residual around it,
    /// which keeps early training on the star scale.
    mean_rating: f32,
    /// The mean rating mirrored into `params` as a 1×1 tensor so that
    /// checkpoints are self-contained (a loader must not need the training
    /// split to reproduce predictions). Never touched by the optimiser.
    mean_rating_id: ParamId,
    /// Item index of every review (for the per-review attention context).
    input_items_of: Vec<usize>,
    /// User index of every review.
    input_users_of: Vec<usize>,
}

impl Rrre {
    /// Trains RRRE on the listed review indices.
    pub fn fit(ds: &Dataset, corpus: &EncodedCorpus, train: &[usize], cfg: RrreConfig) -> Self {
        Self::fit_with_hook(ds, corpus, train, cfg, |_, _| {})
    }

    /// Trains with a per-epoch hook `(stats, &model)` — the instrumentation
    /// behind the paper's Fig. 2–4 learning curves.
    pub fn fit_with_hook(
        ds: &Dataset,
        corpus: &EncodedCorpus,
        train: &[usize],
        cfg: RrreConfig,
        mut hook: impl FnMut(EpochStats, &Rrre),
    ) -> Self {
        let (mut model, mut rng, labeled) = Self::training_setup(ds, corpus, train, cfg);
        let mut opt = Adam::new(cfg.lr);
        let mut order: Vec<usize> = (0..train.len()).collect();
        for epoch in 0..cfg.epochs {
            let stats =
                model.train_epoch(ds, corpus, train, &labeled, &mut order, &mut rng, &mut opt, epoch);
            hook(stats, &model);
        }
        model
    }

    /// Everything that happens before the first epoch: seed the RNG, build
    /// and initialise the architecture, pin the train-mean rating, build
    /// the frozen review cache, and draw the semi-supervised label mask.
    ///
    /// Split out (and the per-epoch body into [`Rrre::train_epoch`]) so the
    /// crash-safe checkpointing driver in `checkpoint.rs` replays *exactly*
    /// the [`Rrre::fit_with_hook`] sequence — resumed runs stay
    /// bit-identical to uninterrupted ones.
    pub(crate) fn training_setup(
        ds: &Dataset,
        corpus: &EncodedCorpus,
        train: &[usize],
        cfg: RrreConfig,
    ) -> (Self, StdRng, Vec<bool>) {
        assert!(!train.is_empty(), "Rrre::fit: empty training set");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut model = Self::new_untrained_with(ds, corpus, cfg, &mut rng);
        let mean = train.iter().map(|&i| ds.reviews[i].rating).sum::<f32>() / train.len() as f32;
        model.set_mean_rating(mean);
        if matches!(cfg.encoder, EncoderMode::Frozen) {
            model.rebuild_cache(corpus);
        }

        // Semi-supervised masking (paper §V): a deterministic subset of the
        // training reviews keeps its reliability label.
        let labeled: Vec<bool> = if cfg.labeled_fraction >= 1.0 {
            vec![true; train.len()]
        } else {
            train.iter().map(|_| rng.gen::<f32>() < cfg.labeled_fraction).collect()
        };
        (model, rng, labeled)
    }

    /// One training epoch: in-place shuffle of `order` (epoch N+1's order
    /// depends on epoch N's — `order` is training state, not scratch), then
    /// the per-chunk sweep, data-parallel over `cfg.threads` threads.
    ///
    /// Determinism contract (see [`crate::parallel`]): every chunk is split
    /// into fixed-grain shards, threads claim shards off a counter and fill
    /// each shard's own [`GradShard`] in position order, and the shards are
    /// combined by a fixed-order pairwise tree before a *single* thread
    /// applies regularisation, clipping and the Adam step. The resulting
    /// bits — gradients, loss statistics, final weights — are identical for
    /// every thread count.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn train_epoch(
        &mut self,
        ds: &Dataset,
        corpus: &EncodedCorpus,
        train: &[usize],
        labeled: &[bool],
        order: &mut [usize],
        rng: &mut StdRng,
        opt: &mut Adam,
        epoch: usize,
    ) -> EpochStats {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let (mut sum_l, mut sum_l1, mut sum_l2) = (0.0f64, 0.0f64, 0.0f64);
        // Shard buffers and one tape per thread are allocated once and
        // reused across chunks.
        let mut shards: Vec<GradShard> = Vec::new();
        let mut tapes: Vec<Tape<'static>> = Vec::new();
        for chunk in order.chunks(self.cfg.batch_size) {
            self.params.zero_grads();
            let n_shards = parallel::shard_count(chunk.len());
            while shards.len() < n_shards {
                shards.push(GradShard::new(&self.params));
            }
            for shard in &mut shards[..n_shards] {
                shard.reset();
            }
            let model = &*self;
            parallel::run_shards(self.cfg.threads, &mut shards[..n_shards], &mut tapes, |s, shard, tape| {
                let examples: Vec<(&Review, bool)> = parallel::shard_range(s, chunk.len())
                    .map(|chunk_pos| (&ds.reviews[train[chunk[chunk_pos]]], labeled[chunk[chunk_pos]]))
                    .collect();
                model.shard_pass(corpus, &examples, chunk.len(), tape, shard);
            });
            // Single-threaded from here on: fixed-order reduction, then the
            // same regularise/clip/step sequence the serial loop always ran.
            parallel::tree_reduce(&mut shards[..n_shards]);
            let root = &shards[0];
            sum_l += root.loss;
            sum_l1 += root.loss1;
            sum_l2 += root.loss2;
            self.params.absorb(&root.grads);
            self.params.apply_l2_grad(self.cfg.gamma);
            // Extra shrinkage on the per-entity embedding tables.
            if self.cfg.gamma_emb > 0.0 {
                for id in [self.user_emb.table(), self.item_emb.table()] {
                    self.params.add_value_to_grad(id, 2.0 * self.cfg.gamma_emb);
                }
            }
            self.params.clip_grad_norm(5.0);
            opt.step(&mut self.params);
        }
        let n = order.len().max(1) as f64;
        EpochStats {
            epoch,
            loss: (sum_l / n) as f32,
            loss1: (sum_l1 / n) as f32,
            loss2: (sum_l2 / n) as f32,
        }
    }

    /// One shard's forward + backward — the shard-worker body. Takes `&self`
    /// (the model is shared read-only across workers), records the shard's
    /// examples stacked as one pass on `tape` (bound to the model's
    /// parameters for the pass, so no parameter is copied; its buffers carry
    /// over from the last shard), hands the parameter gradients to the
    /// shard's store and adds the `(joint, loss1, loss2)` loss contributions
    /// to its sums, example by example. Each example's gradients and losses
    /// carry the bits of the example run alone, and the store receives
    /// them in the examples' order, so a shard holds the same bits however
    /// many of its examples one pass stacks, and whichever worker runs it.
    fn shard_pass(
        &self,
        corpus: &EncodedCorpus,
        examples: &[(&Review, bool)],
        chunk_len: usize,
        tape: &mut Tape<'static>,
        shard: &mut GradShard,
    ) {
        let mut pass = std::mem::take(tape).bind(&self.params);
        let n = examples.len();
        let users = per_example(examples, |r, _| r.user.index());
        let items = per_example(examples, |r, _| r.item.index());
        let (pred, logits) = self.forward_pairs(&mut pass, corpus, &users[..n], &items[..n]);

        // loss1 only where the label is available.
        let classes = per_example(examples, |r, _| r.label.class_index());
        let labeled = per_example(examples, |_, has| if has { 1.0 } else { 0.0 });
        let loss1 = pass.softmax_cross_entropy_rows(logits, &classes[..n], Some(&labeled[..n]));
        // loss2 weight: the label when available; otherwise the model's
        // current reliability estimate (self-training).
        let z = pass.value(logits);
        let mut weights = [0.0; MAX_PAIRS];
        for (e, (w, &(r, has_label))) in weights.iter_mut().zip(examples).enumerate() {
            *w = match (self.cfg.variant, has_label) {
                (LossVariant::Unbiased, _) => 1.0,
                (LossVariant::Biased, true) => r.label.as_f32(),
                (LossVariant::Biased, false) => softmax2(z.get(e, 0), z.get(e, 1)),
            };
        }
        let ratings = per_example(examples, |r, _| r.rating);
        let loss2 = pass.weighted_squared_errors(pred, &ratings[..n], &weights[..n]);
        let l1_scaled = pass.scale(loss1, self.cfg.lambda);
        let l2_scaled = pass.scale(loss2, 1.0 - self.cfg.lambda);
        let joint = pass.add(l1_scaled, l2_scaled);
        let scaled = pass.scale(joint, 1.0 / chunk_len as f32);
        pass.backward_into(scaled, &mut shard.grads);

        for e in 0..n {
            shard.loss += pass.value(scaled).get(e, 0) as f64 * chunk_len as f64;
            shard.loss1 += pass.value(loss1).get(e, 0) as f64;
            shard.loss2 += pass.value(loss2).get(e, 0) as f64;
        }
        *tape = pass.unbind();
    }

    /// Architecture construction shared by [`Rrre::fit_with_hook`] and
    /// [`Rrre::from_checkpoint`]: registers every parameter (randomly
    /// initialised from `rng`) without training and without encoding the
    /// corpus. The dataset is required even for inference consumers — it
    /// provides the review index, the per-review counterpart-entity maps
    /// that feed the attention context, and the id-space sizes of the
    /// embedding tables.
    fn new_untrained_with(
        ds: &Dataset,
        corpus: &EncodedCorpus,
        cfg: RrreConfig,
        rng: &mut StdRng,
    ) -> Self {
        cfg.validate();
        let mut params = Params::new();
        let encoder = ReviewEncoder::new(&mut params, rng, corpus.embed_dim(), cfg.k);
        let user_emb = Embedding::new(&mut params, rng, "rrre.user_emb", ds.n_users, cfg.id_dim);
        let item_emb = Embedding::new(&mut params, rng, "rrre.item_emb", ds.n_items, cfg.id_dim);
        // Attention context per review slot: the target pair's user and item
        // ID embeddings (Eq. 5's e^u, e^i) plus the ID embedding of the
        // review's own counterpart entity ("the item that it written for"),
        // giving the attention both the fraud context and the means to
        // locate the target pair's own review among the inputs.
        let ctx_dim = 3 * cfg.id_dim;
        let user_tower = Tower::new(&mut params, rng, "rrre.usernet", cfg.k, ctx_dim, cfg.attn_dim, cfg.id_dim);
        let item_tower = Tower::new(&mut params, rng, "rrre.itemnet", cfg.k, ctx_dim, cfg.attn_dim, cfg.id_dim);
        let rel_head = Linear::new(&mut params, rng, "rrre.rel_head", 2 * cfg.id_dim, 2);
        let w_h = Linear::new(&mut params, rng, "rrre.w_h", cfg.id_dim, cfg.id_dim);
        let w_e = Linear::new(&mut params, rng, "rrre.w_e", cfg.id_dim, cfg.id_dim);
        let fm = FactorizationMachine::new(&mut params, rng, "rrre.fm", 2 * cfg.id_dim, cfg.fm_factors);
        // Registered last so older tooling reading checkpoints by position
        // sees the architectural parameters first.
        let mean_rating_id = params.register("rrre.mean_rating", Tensor::zeros(1, 1));
        // The step's tail (zeroing, weight decay, clipping, Adam) skips what
        // training holds constant: the mean rating, a data statistic riding
        // in `params` only for checkpoint self-containment, and a frozen
        // encoder, whose cached review embeddings must stay consistent with
        // its weights. Neither gets a gradient from the backward.
        params.freeze(mean_rating_id);
        if matches!(cfg.encoder, EncoderMode::Frozen) {
            for id in encoder.param_ids() {
                params.freeze(id);
            }
        }

        Self {
            cfg,
            params,
            encoder,
            user_emb,
            item_emb,
            user_tower,
            item_tower,
            rel_head,
            w_h,
            w_e,
            fm,
            cache: None,
            index: ds.index(),
            mean_rating: 0.0,
            mean_rating_id,
            input_items_of: ds.reviews.iter().map(|r| r.item.index()).collect(),
            input_users_of: ds.reviews.iter().map(|r| r.user.index()).collect(),
        }
    }

    /// Builds the model architecture and restores trained weights from an
    /// `RRRP` checkpoint — no throwaway [`Rrre::fit`] run required. `cfg`
    /// and `ds`/`corpus` must match what the checkpoint was trained with
    /// (parameter names and shapes are validated; mismatches fail with
    /// `InvalidData`).
    ///
    /// In [`EncoderMode::Frozen`] the review-embedding cache is rebuilt from
    /// the restored encoder weights, so the model is immediately ready to
    /// serve.
    pub fn from_checkpoint(
        ds: &Dataset,
        corpus: &EncodedCorpus,
        cfg: RrreConfig,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<Self> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut model = Self::new_untrained_with(ds, corpus, cfg, &mut rng);
        model.load_weights(path, corpus)?;
        Ok(model)
    }

    /// Builds the architecture, restores trained `weights` and installs
    /// `review_vectors` as the frozen review-embedding cache — the encoder
    /// never runs. `review_vectors` must be `ds.len() × k`, the rows
    /// [`ReviewEncoder::encode_all`] produces for `corpus` under these
    /// weights; only the shape is checked here (mismatches fail with
    /// `InvalidData`), so a caller that did not produce the rows itself
    /// should compare a sample against [`Rrre::encode_review`].
    pub fn from_frozen_parts(
        ds: &Dataset,
        corpus: &EncodedCorpus,
        cfg: RrreConfig,
        weights: &Params,
        review_vectors: Tensor,
    ) -> std::io::Result<Self> {
        if review_vectors.shape() != (ds.len(), cfg.k) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "review vectors are {}x{} but the model needs {}x{} (reviews x k)",
                    review_vectors.rows(),
                    review_vectors.cols(),
                    ds.len(),
                    cfg.k
                ),
            ));
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut model = Self::new_untrained_with(ds, corpus, cfg, &mut rng);
        model.restore_weights(weights)?;
        model.cache = Some(ReviewVectors::from_flat(cfg.k, review_vectors.into_vec()));
        Ok(model)
    }

    fn set_mean_rating(&mut self, mean: f32) {
        self.mean_rating = mean;
        self.params.get_mut(self.mean_rating_id).set(0, 0, mean);
    }

    fn rebuild_cache(&mut self, corpus: &EncodedCorpus) {
        self.cache = Some(ReviewVectors::from_flat(
            self.cfg.k,
            self.encoder.encode_all(&self.params, corpus),
        ));
    }

    /// Whether the frozen review cache (and therefore
    /// [`Rrre::infer_user_tower`] / [`Rrre::infer_item_tower`]) is ready:
    /// frozen-mode models have it from construction, and every model built
    /// by [`Rrre::from_frozen_parts`] has it, which pins an
    /// [`EncoderMode::EndToEnd`] encoder's output at its current weights.
    pub fn has_frozen_cache(&self) -> bool {
        self.cache.is_some()
    }

    /// The frozen review-embedding cache (one `k`-row per review the model
    /// reflects), if materialised.
    pub fn review_vectors(&self) -> Option<&ReviewVectors> {
        self.cache.as_ref()
    }

    /// The encoding (`[1, k]`) of review `idx` of `corpus` with this
    /// model's encoder weights — one row of [`ReviewEncoder::encode_all`].
    pub fn encode_review(&self, corpus: &EncodedCorpus, idx: usize) -> Tensor {
        self.encoder.encode_review(&self.params, corpus, idx)
    }

    /// Incrementally absorbs reviews appended to the dataset since this
    /// model's state was built: encodes each new review with the *frozen*
    /// encoder weights, appends it to the review-embedding cache, and
    /// rebuilds the per-entity index and counterpart maps. `first_new` is
    /// the dataset length the model currently reflects; reviews
    /// `first_new..ds.len()` are absorbed.
    ///
    /// Because [`ReviewEncoder::encode_all`] is definitionally a loop over
    /// [`ReviewEncoder::encode_review`], the refreshed cache is
    /// **bit-identical** to a full `encode_all` rebuild over the
    /// grown corpus — the incremental path can never drift. (The parity
    /// drill in `rrre-serve` asserts exactly this.)
    ///
    /// Returns the number of reviews absorbed. No weight changes: this is
    /// retrain-free — only the inputs the towers attend over grow.
    pub fn refresh_towers(
        &mut self,
        ds: &Dataset,
        corpus: &EncodedCorpus,
        first_new: usize,
    ) -> Result<usize, String> {
        if corpus.docs.len() != ds.len() {
            return Err(format!(
                "corpus has {} docs but the dataset has {} reviews",
                corpus.docs.len(),
                ds.len()
            ));
        }
        let cache_len = match &self.cache {
            Some(c) => c.len(),
            None => return Err("refresh_towers requires the frozen review cache; build the model with from_frozen_parts".into()),
        };
        if cache_len != first_new || self.input_items_of.len() != first_new {
            return Err(format!(
                "model reflects {} reviews (cache {}, maps {}) but first_new is {first_new}",
                self.input_items_of.len(),
                cache_len,
                self.input_items_of.len()
            ));
        }
        if first_new > ds.len() {
            return Err(format!("first_new {first_new} past the dataset's {} reviews", ds.len()));
        }
        for idx in first_new..ds.len() {
            let row = self.encoder.encode_review(&self.params, corpus, idx);
            self.cache.as_mut().unwrap().append(row.as_slice());
            self.input_items_of.push(ds.reviews[idx].item.index());
            self.input_users_of.push(ds.reviews[idx].user.index());
        }
        self.index = ds.index();
        Ok(ds.len() - first_new)
    }

    /// The time-sorted per-entity review index the model currently attends
    /// over (kept current by [`Rrre::refresh_towers`]); serving layers use
    /// the degrees for cold-start gating.
    pub fn index(&self) -> &DatasetIndex {
        &self.index
    }

    /// Train-set mean rating (the residual base of the FM rating head).
    pub fn mean_rating(&self) -> f32 {
        self.mean_rating
    }

    /// The model's configuration.
    pub fn config(&self) -> &RrreConfig {
        &self.cfg
    }

    /// The trained parameter store (read access, e.g. for checkpoint size).
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Mutable parameter access for the checkpoint driver (grad hygiene
    /// after a divergence rollback).
    pub(crate) fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }

    /// Saves the trained weights as an `RRRP` checkpoint file.
    pub fn save_weights(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.params.save(path)
    }

    /// Restores weights from a checkpoint written by [`Rrre::save_weights`]
    /// for a model built with the *same configuration and dataset shape*
    /// (parameter names and shapes must match), then refreshes the frozen
    /// review-embedding cache.
    ///
    /// Most callers want [`Rrre::from_checkpoint`], which builds the
    /// architecture and restores in one step; `load_weights` remains for
    /// swapping weights into an existing model (e.g. warm restarts).
    pub fn load_weights(
        &mut self,
        path: impl AsRef<std::path::Path>,
        corpus: &EncodedCorpus,
    ) -> std::io::Result<()> {
        self.install_weights(&Params::load(path)?, corpus)
    }

    /// [`Rrre::load_weights`] from an already-read store.
    pub(crate) fn install_weights(&mut self, weights: &Params, corpus: &EncodedCorpus) -> std::io::Result<()> {
        self.restore_weights(weights)?;
        if self.cache.is_some() || matches!(self.cfg.encoder, EncoderMode::Frozen) {
            self.rebuild_cache(corpus);
        }
        Ok(())
    }

    /// Copies checkpointed values into `params` (names and shapes must
    /// match) and re-reads the mean rating they carry.
    fn restore_weights(&mut self, loaded: &Params) -> std::io::Result<()> {
        self.params
            .restore_values(loaded)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        self.mean_rating = self.params.get(self.mean_rating_id).item();
        Ok(())
    }

    /// The review matrix of a batch's entities, their input reviews
    /// `revs` stacked (`[Σd, k]`, entity `s` holding the next `counts[s]`
    /// rows): rows of the frozen cache when the model has one, else the
    /// encoder run over `corpus` on `ex`, once per review of each entity.
    fn review_matrix<'p, E: Executor<'p>>(
        &'p self,
        ex: &mut E,
        corpus: Option<&EncodedCorpus>,
        revs: &[usize],
        counts: &[usize],
    ) -> E::V {
        let corpus = match (&self.cache, corpus) {
            (Some(cache), _) => {
                let matrix = ex.constant(cache.stack(revs));
                return ex.stacked(matrix, counts);
            }
            (None, Some(corpus)) => corpus,
            (None, None) => panic!("Rrre: no frozen review cache to serve from; build the model with from_frozen_parts"),
        };
        if revs.is_empty() {
            let matrix = ex.constant(Tensor::zeros(0, self.cfg.k));
            return ex.stacked(matrix, counts);
        }
        let rows: Vec<E::V> = revs.iter().map(|&ri| self.encoder.forward_review(ex, &self.params, corpus, ri)).collect();
        let rows: Vec<&E::V> = rows.iter().collect();
        let matrix = ex.concat_rows(&rows);
        ex.stacked(matrix, counts)
    }

    /// Appends the input reviews of an entity to `revs` under the
    /// configured sampling strategy: the paper's latest-`m` (time-based) or
    /// a stable pseudo-random `m`-subset (ablation).
    fn select_inputs(&self, all: &[usize], m: usize, salt: u64, revs: &mut Vec<usize>) {
        match self.cfg.sampling {
            Sampling::Latest => revs.extend_from_slice(&all[all.len().saturating_sub(m)..]),
            Sampling::Random => {
                if all.len() <= m {
                    return revs.extend_from_slice(all);
                }
                let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ salt);
                let mut pool: Vec<usize> = all.to_vec();
                for i in 0..m {
                    let j = rng.gen_range(i..pool.len());
                    pool.swap(i, j);
                }
                revs.extend_from_slice(&pool[..m]);
            }
        }
    }

    /// Appends the input reviews of one side's entity for the pair to
    /// `revs`; returns how many there are.
    fn push_inputs(&self, side: Side, user: usize, item: usize, revs: &mut Vec<usize>) -> usize {
        let before = revs.len();
        match side {
            Side::User => {
                let all = self.index.user_reviews(UserId(user as u32));
                self.select_inputs(all, self.cfg.s_u, 0x5555_0000 ^ user as u64, revs);
            }
            Side::Item => {
                let all = self.index.item_reviews(ItemId(item as u32));
                self.select_inputs(all, self.cfg.s_i, 0xAAAA_0000 ^ item as u64, revs);
            }
        }
        revs.len() - before
    }

    /// The input reviews of one side's entity for the pair.
    fn inputs(&self, side: Side, user: usize, item: usize) -> Vec<usize> {
        let mut revs = Vec::new();
        self.push_inputs(side, user, item, &mut revs);
        revs
    }

    /// The ID embeddings `(e_u, e_i)` of the pairs `(users[s], items[s])`,
    /// one row per pair each.
    fn pair_ids<'p, E: Executor<'p>>(&'p self, ex: &mut E, users: &[usize], items: &[usize]) -> (E::V, E::V) {
        let one_each = &[1; MAX_PAIRS][..users.len()];
        let e_u = self.user_emb.forward(ex, &self.params, users);
        let e_i = self.item_emb.forward(ex, &self.params, items);
        (ex.stacked(e_u, one_each), ex.stacked(e_i, one_each))
    }

    /// One side's tower for each pair of a batch (paper §III-D), pair `s`
    /// over its `d ≤ m` input reviews, the next `counts[s]` of `revs`: the
    /// entity representations (`x_u` or `y_i`, one `[1, id_dim]` row per
    /// pair) and the attention that pooled the reviews ([`Tower::attend`]).
    /// The attention context has one row per review: the pair's user and
    /// item ID embeddings plus the ID embedding of the review's own
    /// counterpart.
    fn towers<'p, E: Executor<'p>>(
        &'p self,
        ex: &mut E,
        corpus: Option<&EncodedCorpus>,
        side: Side,
        (revs, counts): (&[usize], &[usize]),
        (e_u, e_i): (&E::V, &E::V),
    ) -> (E::V, Option<E::V>) {
        let (tower, counterpart_of, counterpart) = match side {
            Side::User => (&self.user_tower, &self.input_items_of, &self.item_emb),
            Side::Item => (&self.item_tower, &self.input_users_of, &self.user_emb),
        };
        let matrix = self.review_matrix(ex, corpus, revs, counts);
        let pair_of: Vec<usize> = counts.iter().enumerate().flat_map(|(s, &d)| std::iter::repeat_n(s, d)).collect();
        let u_rows = ex.gather_rows(e_u, &pair_of);
        let i_rows = ex.gather_rows(e_i, &pair_of);
        let counterparts: Vec<usize> = revs.iter().map(|&ri| counterpart_of[ri]).collect();
        let cp = counterpart.forward(ex, &self.params, &counterparts);
        let cp = ex.stacked(cp, counts);
        let context = ex.concat_cols(&[&u_rows, &i_rows, &cp]);
        tower.attend(ex, &self.params, &matrix, &context, counts, self.cfg.pooling)
    }

    /// The reliability and rating heads (Eq. 9, 12), one row per pair: the
    /// rating (`[1, 1]` each) and the reliability logits (`[1, 2]` each,
    /// class 1 = benign; the softmax is folded into the cross-entropy in
    /// training).
    fn heads<'p, E: Executor<'p>>(&'p self, ex: &mut E, e_u: E::V, e_i: E::V, x_u: &E::V, y_i: &E::V) -> (E::V, E::V) {
        let joint_repr = ex.concat_cols(&[x_u, y_i]);
        let logits = self.rel_head.forward(ex, &self.params, joint_repr);
        // FM([(e_u + W_h x_u), (e_i + W_e y_i)])
        let xh = self.w_h.forward(ex, &self.params, x_u.clone());
        let ye = self.w_e.forward(ex, &self.params, y_i.clone());
        let a = ex.add(e_u, &xh);
        let b = ex.add(e_i, &ye);
        let fused = ex.concat_cols(&[&a, &b]);
        let residual = self.fm.forward(ex, &self.params, fused);
        (ex.add_scalar(residual, self.mean_rating), logits)
    }

    /// The joint forward for a batch of pairs `(users[s], items[s])` —
    /// training runs a shard of them on a [`Tape`], serving one on [`Eval`]:
    /// per pair the rating and the reliability logits.
    fn forward_pairs<'p, E: Executor<'p>>(
        &'p self,
        ex: &mut E,
        corpus: &EncodedCorpus,
        users: &[usize],
        items: &[usize],
    ) -> (E::V, E::V) {
        let (e_u, e_i) = self.pair_ids(ex, users, items);
        let ids = (&e_u, &e_i);
        let inputs = |side| {
            let (mut revs, mut counts) = (Vec::new(), [0; MAX_PAIRS]);
            for (d, (&user, &item)) in counts.iter_mut().zip(users.iter().zip(items)) {
                *d = self.push_inputs(side, user, item, &mut revs);
            }
            (revs, counts)
        };
        let (revs, counts) = inputs(Side::User);
        let (x_u, _) = self.towers(ex, Some(corpus), Side::User, (&revs, &counts[..users.len()]), ids);
        let (revs, counts) = inputs(Side::Item);
        let (y_i, _) = self.towers(ex, Some(corpus), Side::Item, (&revs, &counts[..users.len()]), ids);
        self.heads(ex, e_u, e_i, &x_u, &y_i)
    }

    /// Joint prediction for a user–item pair: the training forward of one
    /// pair, run on the value evaluator.
    pub fn predict(&self, corpus: &EncodedCorpus, user: UserId, item: ItemId) -> Prediction {
        let (rating, logits) = self.forward_pairs(&mut Eval, corpus, &[user.index()], &[item.index()]);
        Prediction::from_heads(&rating, &logits)
    }

    /// One tower of the pair on the value evaluator, with its inputs and
    /// attention.
    fn eval_tower(&self, corpus: Option<&EncodedCorpus>, side: Side, user: UserId, item: ItemId) -> (Vec<usize>, Tensor, Option<Tensor>) {
        let (e_u, e_i) = self.pair_ids(&mut Eval, &[user.index()], &[item.index()]);
        let revs = self.inputs(side, user.index(), item.index());
        let (repr, alpha) = self.towers(&mut Eval, corpus, side, (&revs, &[revs.len()]), (&e_u, &e_i));
        (revs, repr.into_owned(), alpha.map(Cow::into_owned))
    }

    /// The user-tower representation `x_u` (`[1, id_dim]`) for a target
    /// pair. Pair-dependent, not just user-dependent: the fraud-attention
    /// context contains the target item's ID embedding (paper §III-D), so a
    /// cache of these must be keyed by `(user, item)`.
    ///
    /// Requires the frozen review cache ([`Rrre::has_frozen_cache`]).
    pub fn infer_user_tower(&self, user: UserId, item: ItemId) -> Tensor {
        self.eval_tower(None, Side::User, user, item).1
    }

    /// The item-tower representation `y_i` (`[1, id_dim]`) for a target
    /// pair; pair-dependent for the same reason as
    /// [`Rrre::infer_user_tower`].
    pub fn infer_item_tower(&self, user: UserId, item: ItemId) -> Tensor {
        self.eval_tower(None, Side::Item, user, item).1
    }

    /// The reliability and rating heads over precomputed tower
    /// representations — the cheap half of the forward. Combining cached
    /// [`Rrre::infer_user_tower`]/[`Rrre::infer_item_tower`] outputs with
    /// this reproduces [`Rrre::predict`] exactly.
    pub fn infer_heads(&self, user: UserId, item: ItemId, x_u: &Tensor, y_i: &Tensor) -> Prediction {
        let (e_u, e_i) = self.pair_ids(&mut Eval, &[user.index()], &[item.index()]);
        let (rating, logits) = self.heads(&mut Eval, e_u, e_i, &Cow::Borrowed(x_u), &Cow::Borrowed(y_i));
        Prediction::from_heads(&rating, &logits)
    }

    /// Joint predictions for the listed review indices.
    pub fn predict_reviews(&self, ds: &Dataset, corpus: &EncodedCorpus, indices: &[usize]) -> Vec<Prediction> {
        indices
            .iter()
            .map(|&i| self.predict(corpus, ds.reviews[i].user, ds.reviews[i].item))
            .collect()
    }

    /// Fraud-attention weights of the user tower for a target pair — which
    /// of the user's latest reviews drive `x_u`. Returns
    /// `(review_indices, weights)` aligned pairwise.
    pub fn user_attention(&self, corpus: &EncodedCorpus, user: UserId, item: ItemId) -> (Vec<usize>, Vec<f32>) {
        self.attention(corpus, Side::User, user, item)
    }

    /// Fraud-attention weights of the item tower for a target pair — which
    /// of the item's latest reviews drive `y_i`. Returns
    /// `(review_indices, weights)` aligned pairwise.
    pub fn item_attention(&self, corpus: &EncodedCorpus, user: UserId, item: ItemId) -> (Vec<usize>, Vec<f32>) {
        self.attention(corpus, Side::Item, user, item)
    }

    /// The weights the tower's own forward pools its input reviews with:
    /// the trained fraud-attention `α`, or under the mean-pooling ablation
    /// the uniform `1/d` of the mean. Only those reviews are read from the
    /// cache, or encoded without one.
    fn attention(&self, corpus: &EncodedCorpus, side: Side, user: UserId, item: ItemId) -> (Vec<usize>, Vec<f32>) {
        let (revs, _, alpha) = self.eval_tower(Some(corpus), side, user, item);
        let weights = alpha.map_or(vec![1.0 / revs.len() as f32; revs.len()], |a| a.into_vec());
        (revs, weights)
    }
}

/// Which tower of the pair.
#[derive(Debug, Clone, Copy)]
enum Side {
    User,
    Item,
}

impl Prediction {
    /// The prediction of the heads' rating and reliability logits.
    fn from_heads(rating: &Tensor, logits: &Tensor) -> Self {
        Prediction { rating: rating.item().clamp(1.0, 5.0), reliability: softmax2(logits.get(0, 0), logits.get(0, 1)) }
    }
}

#[inline]
fn softmax2(z_fake: f32, z_benign: f32) -> f32 {
    let m = z_fake.max(z_benign);
    let e0 = (z_fake - m).exp();
    let e1 = (z_benign - m).exp();
    e1 / (e0 + e1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrre_data::synth::{generate, SynthConfig};
    use rrre_data::{train_test_split, CorpusConfig, Label};
    use rrre_metrics::{auc, brmse};
    use rrre_text::word2vec::Word2VecConfig;

    fn tiny() -> (Dataset, EncodedCorpus) {
        let ds = generate(&SynthConfig::yelp_chi().scaled(0.05));
        let corpus = EncodedCorpus::build(
            &ds,
            &CorpusConfig {
                max_len: 14,
                word2vec: Word2VecConfig { dim: 8, epochs: 2, ..Default::default() },
                ..Default::default()
            },
        );
        (ds, corpus)
    }

    #[test]
    fn training_reduces_loss() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..ds.len()).collect();
        let mut losses = Vec::new();
        let cfg = RrreConfig { epochs: 6, ..RrreConfig::tiny() };
        let _ = Rrre::fit_with_hook(&ds, &corpus, &train, cfg, |s, _| losses.push(s.loss));
        assert!(losses.last().unwrap() < losses.first().unwrap(), "losses {losses:?}");
    }

    #[test]
    fn joint_model_learns_both_tasks() {
        let (ds, corpus) = tiny();
        let mut rng = StdRng::seed_from_u64(7);
        let split = train_test_split(&ds, 0.3, &mut rng);
        let cfg = RrreConfig { epochs: 10, ..RrreConfig::tiny() };
        let model = Rrre::fit(&ds, &corpus, &split.train, cfg);

        let preds = model.predict_reviews(&ds, &corpus, &split.test);
        let ratings: Vec<f32> = preds.iter().map(|p| p.rating).collect();
        let rels: Vec<f32> = preds.iter().map(|p| p.reliability).collect();
        let targets: Vec<f32> = split.test.iter().map(|&i| ds.reviews[i].rating).collect();
        let weights: Vec<f32> = split.test.iter().map(|&i| ds.reviews[i].label.as_f32()).collect();
        let labels: Vec<bool> = split.test.iter().map(|&i| ds.reviews[i].label == Label::Benign).collect();

        // Rating: beat the train-mean predictor on benign reviews.
        let mean = split.train.iter().map(|&i| ds.reviews[i].rating).sum::<f32>() / split.train.len() as f32;
        let model_brmse = brmse(&ratings, &targets, &weights);
        let mean_brmse = brmse(&vec![mean; targets.len()], &targets, &weights);
        assert!(model_brmse < mean_brmse, "bRMSE {model_brmse} vs mean {mean_brmse}");

        // Reliability: clearly better than chance.
        let a = auc(&rels, &labels);
        assert!(a > 0.6, "AUC {a}");
    }

    #[test]
    fn predictions_are_bounded() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..ds.len()).collect();
        let cfg = RrreConfig { epochs: 2, ..RrreConfig::tiny() };
        let model = Rrre::fit(&ds, &corpus, &train, cfg);
        for p in model.predict_reviews(&ds, &corpus, &train[..20.min(train.len())]) {
            assert!((1.0..=5.0).contains(&p.rating));
            assert!((0.0..=1.0).contains(&p.reliability));
        }
    }

    #[test]
    fn end_to_end_mode_trains_and_agrees_in_shape() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..40.min(ds.len())).collect();
        let cfg = RrreConfig {
            epochs: 1,
            encoder: EncoderMode::EndToEnd,
            batch_size: 8,
            ..RrreConfig::tiny()
        };
        let model = Rrre::fit(&ds, &corpus, &train, cfg);
        let p = model.predict(&corpus, ds.reviews[0].user, ds.reviews[0].item);
        assert!((1.0..=5.0).contains(&p.rating));
        assert!((0.0..=1.0).contains(&p.reliability));
    }

    #[test]
    fn checkpoint_roundtrip_preserves_predictions() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..ds.len()).collect();
        let cfg = RrreConfig { epochs: 2, ..RrreConfig::tiny() };
        let model = Rrre::fit(&ds, &corpus, &train, cfg);
        let dir = std::env::temp_dir().join("rrre-core-ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.rrrp");
        model.save_weights(&path).unwrap();

        // A differently-seeded fresh model diverges, then matches exactly
        // after restoring the checkpoint.
        let mut other = Rrre::fit(&ds, &corpus, &train, RrreConfig { seed: cfg.seed ^ 0xFF, ..cfg });
        let r = &ds.reviews[0];
        let before = other.predict(&corpus, r.user, r.item);
        other.load_weights(&path, &corpus).unwrap();
        std::fs::remove_file(&path).ok();
        let restored = other.predict(&corpus, r.user, r.item);
        let original = model.predict(&corpus, r.user, r.item);
        assert_ne!(before, original);
        assert_eq!(restored, original);
    }

    #[test]
    fn refresh_towers_is_bit_identical_to_full_reencode() {
        let (mut ds, mut corpus) = tiny();
        let train: Vec<usize> = (0..ds.len()).collect();
        let cfg = RrreConfig { epochs: 2, ..RrreConfig::tiny() };
        let mut model = Rrre::fit(&ds, &corpus, &train, cfg);

        // Stream in two reviews for existing entities (id spaces are fixed).
        let first_new = ds.len();
        for (src, text_src) in [(0usize, 1usize), (1, 0)] {
            let mut r = ds.reviews[src].clone();
            r.text = ds.reviews[text_src].text.clone();
            r.timestamp += 10_000;
            corpus.append_doc(&r.text);
            ds.reviews.push(r);
        }
        let touched = ds.reviews[first_new].clone();
        let before = model.predict(&corpus, touched.user, touched.item);
        assert_eq!(model.refresh_towers(&ds, &corpus, first_new).unwrap(), 2);
        assert!(model.index().user_reviews(touched.user).contains(&first_new), "index absorbed the new review");

        // The full retrain-free path: same weights, architecture rebuilt
        // over the grown dataset, cache re-encoded from scratch.
        let dir = std::env::temp_dir().join(format!("rrre-refresh-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.rrrp");
        model.save_weights(&path).unwrap();
        let full = Rrre::from_checkpoint(&ds, &corpus, cfg, &path).unwrap();
        std::fs::remove_file(&path).ok();

        let incr = model.predict(&corpus, touched.user, touched.item);
        assert_eq!(incr, full.predict(&corpus, touched.user, touched.item), "touched pair must match bit-for-bit");
        let other = &ds.reviews[2];
        assert_eq!(
            model.predict(&corpus, other.user, other.item),
            full.predict(&corpus, other.user, other.item),
            "untouched pairs too"
        );
        // The new review actually entered the towers' input sets.
        assert_ne!(before, incr, "a new latest review must move the touched pair's prediction");
        // Absorbing with a stale first_new is refused, not silently wrong.
        assert!(model.refresh_towers(&ds, &corpus, first_new).is_err());
    }

    #[test]
    fn cold_start_prior_gates_thin_pairs_only() {
        let (ds, _) = tiny();
        let prior = ColdStartPrior::calibrate(&ds, 3);
        assert!((prior.reliability - (1.0 - ds.fake_fraction()) as f32).abs() < 1e-6);
        let p = Prediction { rating: 4.2, reliability: 0.93 };
        let gated = prior.gate(p, 1, 50);
        assert_eq!(gated.rating, 4.2, "rating always passes through");
        assert_eq!(gated.reliability, prior.reliability);
        assert_eq!(prior.gate(p, 3, 3), p, "warm pairs keep the model score");
        assert!(prior.applies(0, 10) && !prior.applies(7, 3));
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The serving accessors of one pair against the same definitions run
    /// on a tape: both towers (when the model serves from its cache) and the
    /// attention each tower pooled with, bit for bit.
    fn assert_towers_match_the_tape(model: &Rrre, corpus: &EncodedCorpus, user: UserId, item: ItemId) {
        for side in [Side::User, Side::Item] {
            let mut tape = Tape::new();
            let (e_u, e_i) = model.pair_ids(&mut tape, &[user.index()], &[item.index()]);
            let revs = model.inputs(side, user.index(), item.index());
            let (repr, alpha) = model.towers(&mut tape, Some(corpus), side, (&revs, &[revs.len()]), (&e_u, &e_i));
            if model.has_frozen_cache() {
                let served = match side {
                    Side::User => model.infer_user_tower(user, item),
                    Side::Item => model.infer_item_tower(user, item),
                };
                assert_eq!(bits(served.as_slice()), bits(tape.value(repr).as_slice()), "{side:?} tower");
            }
            let (shown, weights) = match side {
                Side::User => model.user_attention(corpus, user, item),
                Side::Item => model.item_attention(corpus, user, item),
            };
            assert_eq!(shown, revs[revs.len() - weights.len()..], "{side:?} attention rows");
            match alpha {
                Some(alpha) => {
                    assert_eq!(bits(&weights), bits(&tape.value(alpha).as_slice()[..weights.len()]), "{side:?} α");
                }
                None => assert!(weights.is_empty(), "{side:?}: no α without reviews"),
            }
        }
    }

    #[test]
    fn attention_is_the_training_forwards_alpha_in_both_encoder_modes() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..40.min(ds.len())).collect();
        for encoder in [EncoderMode::Frozen, EncoderMode::EndToEnd] {
            let cfg = RrreConfig { epochs: 1, encoder, batch_size: 8, ..RrreConfig::tiny() };
            let model = Rrre::fit(&ds, &corpus, &train, cfg);
            assert_eq!(model.has_frozen_cache(), matches!(encoder, EncoderMode::Frozen));
            for r in ds.reviews.iter().step_by(7).take(8) {
                assert_towers_match_the_tape(&model, &corpus, r.user, r.item);
            }
        }
    }

    /// Training and serving are one function: the tape forward the loss is
    /// built on and `predict` on the value evaluator give the same bits, on
    /// the three parity seeds.
    #[test]
    fn training_forward_equals_predict_bit_for_bit() {
        use rrre_testkit::parity::deterministic_pairs;
        use rrre_testkit::FixtureSpec;
        for seed in [0x5EED, 0xA11CE, 0x0B0E] {
            let spec = FixtureSpec::small().with_seed(seed);
            let (ds, corpus) = spec.corpus();
            let train: Vec<usize> = (0..ds.len()).collect();
            let cfg = RrreConfig { epochs: spec.epochs, seed, threads: 1, ..RrreConfig::tiny() };
            let model = Rrre::fit(&ds, &corpus, &train, cfg);
            for (user, item) in deterministic_pairs(&ds, seed, 200) {
                let mut tape = Tape::new();
                let (rating, logits) = model.forward_pairs(&mut tape, &corpus, &[user.index()], &[item.index()]);
                let trained = Prediction::from_heads(tape.value(rating), tape.value(logits));
                let served = model.predict(&corpus, user, item);
                assert_eq!(
                    bits(&[trained.rating, trained.reliability]),
                    bits(&[served.rating, served.reliability]),
                    "seed {seed:#x}: u{}/i{}",
                    user.0,
                    item.0
                );
                assert_towers_match_the_tape(&model, &corpus, user, item);
            }
        }
    }

    #[test]
    fn item_attention_exposes_item_reviews() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..ds.len()).collect();
        let cfg = RrreConfig { epochs: 2, ..RrreConfig::tiny() };
        let model = Rrre::fit(&ds, &corpus, &train, cfg);
        let r = &ds.reviews[0];
        let (revs, weights) = model.item_attention(&corpus, r.user, r.item);
        assert_eq!(revs.len(), weights.len());
        assert!(!revs.is_empty());
        assert!((weights.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        let index = ds.index();
        assert!(revs.iter().all(|ri| index.item_reviews(r.item).contains(ri)));
    }

    #[test]
    fn attention_exposes_user_reviews() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..ds.len()).collect();
        let cfg = RrreConfig { epochs: 2, ..RrreConfig::tiny() };
        let model = Rrre::fit(&ds, &corpus, &train, cfg);
        let r = &ds.reviews[0];
        let (revs, weights) = model.user_attention(&corpus, r.user, r.item);
        assert_eq!(revs.len(), weights.len());
        assert!(!revs.is_empty());
        assert!((weights.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    /// A user with `d < s_u` reviews: the tower attends over exactly those
    /// `d` rows, in training and in `user_attention`; with no reviews at all
    /// the representation is the user tower's `fc` bias.
    #[test]
    fn a_tower_runs_over_the_reviews_its_entity_has() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..ds.len()).collect();
        let cfg = RrreConfig { epochs: 1, ..RrreConfig::tiny() };
        let model = Rrre::fit(&ds, &corpus, &train, cfg);
        let index = ds.index();
        let r = ds.reviews.iter().find(|r| (2..cfg.s_u).contains(&index.user_reviews(r.user).len())).expect("a thin user");
        let d = index.user_reviews(r.user).len();

        let mut tape = Tape::new();
        let (e_u, e_i) = model.pair_ids(&mut tape, &[r.user.index()], &[r.item.index()]);
        let revs = model.inputs(Side::User, r.user.index(), r.item.index());
        assert_eq!(revs.len(), d);
        let (x_u, alpha) = model.towers(&mut tape, Some(&corpus), Side::User, (&revs, &[revs.len()]), (&e_u, &e_i));
        let alpha = alpha.expect("fraud attention");
        assert_eq!(tape.shape(alpha), (d, 1), "one weight per real review, no padded slot");
        let loss = tape.sum_all(x_u);
        let mut grads = model.params.grad_store();
        tape.backward_into(loss, &mut grads);
        let counterparts = grads.written_rows(model.item_emb.table()).expect("a lookup writes rows");
        assert!(counterparts.len() <= d + 1, "the target item plus one counterpart per review: {counterparts:?}");

        let (shown, weights) = model.user_attention(&corpus, r.user, r.item);
        assert_eq!((shown, weights.len()), (revs, d));
        assert!((weights.iter().sum::<f32>() - 1.0).abs() < 1e-5);

        let (e_u, e_i) = model.pair_ids(&mut Eval, &[r.user.index()], &[r.item.index()]);
        let (none, alpha) = model.towers(&mut Eval, None, Side::User, (&[], &[0]), (&e_u, &e_i));
        assert!(alpha.is_none());
        let bias = model.params.iter().find(|(_, name, _)| *name == "rrre.usernet.fc.b").expect("fc bias").2;
        assert_eq!(bits(none.as_slice()), bits(bias.as_slice()));
    }

    /// The bits a shard hands on: every gradient slot, the rows each slot
    /// was written at, and the three loss sums.
    fn shard_bits(model: &Rrre, shard: &GradShard) -> Vec<(String, Vec<u32>, Option<Vec<usize>>)> {
        let mut out: Vec<_> = model
            .params
            .ids()
            .map(|id| {
                let rows = shard.grads.written_rows(id).map(<[usize]>::to_vec);
                (model.params.name(id).to_string(), bits(shard.grads.grad(id).as_slice()), rows)
            })
            .collect();
        let losses = [shard.loss, shard.loss1, shard.loss2].map(|l| l.to_bits() as u32 ^ (l.to_bits() >> 32) as u32);
        out.push(("losses".into(), losses.to_vec(), None));
        out
    }

    /// A shard of 1–4 examples stacked in one pass hands its store the bits
    /// of its examples run as one-example passes, one after the other: every
    /// gradient and written row, and the loss sums. The shard is built so
    /// that its examples' gradients meet in one embedding row from several
    /// nodes: three examples share item `i`, whose latest reviewer `u` is
    /// the first example's pair user and an item-tower counterpart of all
    /// three, and `i` is both their pair item and a user-tower counterpart
    /// of the first; a fourth example's user has no reviews at all
    /// (`d = 0`). It runs in every training mode the shard pass has: frozen
    /// and end-to-end encoders, mean pooling, random sampling, the unbiased
    /// loss and half the labels.
    #[test]
    fn a_shard_pass_equals_its_examples_one_by_one() {
        let (mut ds, corpus) = tiny();
        let loner = UserId(ds.n_users as u32);
        ds.n_users += 1;
        let train: Vec<usize> = (0..ds.len()).collect();
        let index = ds.index();
        let i = (0..ds.n_items as u32).map(ItemId).find(|&i| index.item_reviews(i).len() >= 3).expect("an item with three reviews");
        let latest: Vec<usize> = index.item_reviews(i).iter().rev().take(3).copied().collect();
        let u = ds.reviews[latest[0]].user;
        let mut lonely = ds.reviews[latest[0]].clone();
        lonely.user = loner;
        let examples: Vec<(&Review, bool)> =
            vec![(&ds.reviews[latest[0]], true), (&ds.reviews[latest[1]], false), (&ds.reviews[latest[2]], true), (&lonely, false)];

        let base = RrreConfig { labeled_fraction: 0.5, ..RrreConfig::tiny() };
        let configs = [
            base,
            RrreConfig { encoder: EncoderMode::EndToEnd, ..base },
            RrreConfig { pooling: crate::config::Pooling::Mean, ..base },
            RrreConfig { sampling: Sampling::Random, ..base },
            base.minus(),
        ];
        for cfg in configs {
            let (model, _, _) = Rrre::training_setup(&ds, &corpus, &train, cfg);
            if cfg == base {
                for &(r, _) in &examples[..3] {
                    let item_side: Vec<usize> =
                        model.inputs(Side::Item, r.user.index(), i.index()).iter().map(|&ri| model.input_users_of[ri]).collect();
                    assert!(item_side.contains(&u.index()), "u is an item-tower counterpart of every pair on i");
                }
                let user_side: Vec<usize> = model.inputs(Side::User, u.index(), i.index()).iter().map(|&ri| model.input_items_of[ri]).collect();
                assert!(user_side.contains(&i.index()), "i is a user-tower counterpart of u's pair");
                assert!(model.inputs(Side::User, loner.index(), i.index()).is_empty(), "the loner has no reviews");
            }
            let mut orders: Vec<Vec<(&Review, bool)>> = (1..=examples.len()).map(|n| examples[..n].to_vec()).collect();
            orders.push(examples.iter().rev().copied().collect());
            for shard_examples in orders {
                let mut stacked = GradShard::new(&model.params);
                model.shard_pass(&corpus, &shard_examples, 8, &mut Tape::new(), &mut stacked);
                let (mut alone, mut tape) = (GradShard::new(&model.params), Tape::new());
                for example in &shard_examples {
                    model.shard_pass(&corpus, std::slice::from_ref(example), 8, &mut tape, &mut alone);
                }
                let n = shard_examples.len();
                for ((name, got, rows), (_, want, want_rows)) in shard_bits(&model, &stacked).into_iter().zip(shard_bits(&model, &alone)) {
                    let differ = got.iter().zip(&want).filter(|(g, w)| g != w).count();
                    assert!(
                        differ == 0 && rows == want_rows,
                        "{name}: a shard of {n} stacked differs from its examples one by one in {differ} elements \
                         (written rows {rows:?} vs {want_rows:?}); {cfg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn frozen_encoder_never_enters_a_shard_and_a_reset_shard_is_all_zero() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..ds.len()).collect();
        let cfg = RrreConfig::tiny();
        assert!(matches!(cfg.encoder, EncoderMode::Frozen));
        let (model, _, _) = Rrre::training_setup(&ds, &corpus, &train, cfg);
        let mut shard = GradShard::new(&model.params);
        let examples = [(&ds.reviews[0], true), (&ds.reviews[ds.len() - 1], true)];
        model.shard_pass(&corpus, &examples, 2, &mut Tape::new(), &mut shard);
        for id in model.encoder.param_ids() {
            assert_eq!(shard.grads.written_rows(id), Some(&[][..]), "{} entered the shard", model.params.name(id));
        }
        // The tables hold the looked-up rows only: per example one own row
        // plus one per review slot of the other tower.
        for (table, slots) in [(model.user_emb.table(), cfg.s_i), (model.item_emb.table(), cfg.s_u)] {
            let rows = shard.grads.written_rows(table).expect("a lookup writes rows, not the table");
            assert!(!rows.is_empty() && rows.len() <= 2 * (1 + slots), "{rows:?}");
            assert!(rows.iter().any(|&r| shard.grads.grad(table).row(r).iter().any(|&v| v != 0.0)));
        }

        shard.reset();
        for id in model.params.ids() {
            assert_eq!(shard.grads.written_rows(id), Some(&[][..]), "{}", model.params.name(id));
            let stale = shard.grads.grad(id).as_slice().iter().position(|v| v.to_bits() != 0);
            assert_eq!(stale, None, "{} keeps a written element after reset", model.params.name(id));
        }
    }
}
