//! RRRE hyper-parameters (paper §III and §IV-E).

use serde::{Deserialize, Serialize};

/// How the BiLSTM review encoder participates in training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EncoderMode {
    /// Encode every review once with the (pretrained-word-vector, fixed-
    /// weight) BiLSTM and train attention + heads on the cached vectors.
    /// This is the paper's "pretrained as vectors" speed trick taken one
    /// step further and the default on CPU.
    Frozen,
    /// Backpropagate through the BiLSTM for every example. Exact but orders
    /// of magnitude slower; used by tests and small examples to validate the
    /// full gradient path.
    EndToEnd,
}

/// How the towers pool the review embeddings (ablation switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pooling {
    /// The paper's fraud-attention mechanism (Eq. 5–7).
    FraudAttention,
    /// Uniform mean pooling over the entity's reviews — the ablation that
    /// quantifies what the attention buys.
    Mean,
}

/// How the `m` input reviews of an entity are selected (ablation switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sampling {
    /// The paper's time-based strategy: the latest `m` reviews.
    Latest,
    /// A stable pseudo-random subset of `m` reviews per entity.
    Random,
}

/// Which rating loss the model trains with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LossVariant {
    /// The full RRRE biased loss of Eq. (14): squared errors gated by the
    /// reliability ground truth.
    Biased,
    /// The RRRE⁻ ablation of Eq. (13): plain MSE over all reviews, fakes
    /// included.
    Unbiased,
}

/// Full RRRE configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RrreConfig {
    /// Review-embedding size `k` (Fig. 2); must be even (the BiLSTM
    /// contributes `k/2` per direction).
    pub k: usize,
    /// Reviews in the UserNet input layer (`s_u`, Fig. 3).
    pub s_u: usize,
    /// Reviews in the ItemNet input layer (`s_i`, Fig. 4).
    pub s_i: usize,
    /// ID-embedding and tower-output dimension.
    pub id_dim: usize,
    /// Attention hidden size.
    pub attn_dim: usize,
    /// FM interaction factors.
    pub fm_factors: usize,
    /// Joint-loss weight λ of Eq. (15): `L = λ·loss₁ + (1−λ)·loss₂`.
    pub lambda: f32,
    /// L2 regularisation strength γ of Eq. (13)/(14).
    pub gamma: f32,
    /// Additional L2 on the user/item ID-embedding tables. Per-entity
    /// parameters see only a handful of examples each, so they need the
    /// PMF-style shrinkage that the shared weights do not.
    pub gamma_emb: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Examples per optimiser step.
    pub batch_size: usize,
    /// Encoder mode.
    pub encoder: EncoderMode,
    /// Loss variant (RRRE vs RRRE⁻).
    pub variant: LossVariant,
    /// Review pooling (fraud-attention vs mean; ablation).
    pub pooling: Pooling,
    /// Input-review selection (latest vs random; ablation).
    pub sampling: Sampling,
    /// Fraction of training reviews whose reliability label is available
    /// (paper §V future work: semi-supervised learning). Unlabelled
    /// examples skip the cross-entropy loss and gate their rating loss by
    /// the model's *own* predicted reliability (self-training).
    pub labeled_fraction: f32,
    /// RNG seed for initialisation and shuffling.
    pub seed: u64,
    /// Training threads (calling thread included, never more than one per
    /// shard of a minibatch); `1` is serial. Any value produces
    /// bit-identical models — see `rrre_core::parallel` for the determinism
    /// contract — so this is purely a throughput knob.
    pub threads: usize,
}

impl Default for RrreConfig {
    fn default() -> Self {
        Self {
            k: 64,
            s_u: 11,
            s_i: 12,
            id_dim: 16,
            attn_dim: 16,
            fm_factors: 8,
            lambda: 0.6,
            gamma: 1e-5,
            gamma_emb: 2e-2,
            lr: 0.005,
            epochs: 20,
            batch_size: 64,
            encoder: EncoderMode::Frozen,
            variant: LossVariant::Biased,
            pooling: Pooling::FraudAttention,
            sampling: Sampling::Latest,
            labeled_fraction: 1.0,
            seed: 0x44E5,
            threads: 1,
        }
    }
}

impl RrreConfig {
    /// Validates invariants; call before construction.
    ///
    /// # Panics
    /// Panics on invalid settings.
    pub fn validate(&self) {
        assert!(self.k >= 2 && self.k.is_multiple_of(2), "RrreConfig: k = {} must be even and ≥ 2", self.k);
        assert!(self.s_u >= 1, "RrreConfig: s_u must be ≥ 1");
        assert!(self.s_i >= 1, "RrreConfig: s_i must be ≥ 1");
        assert!((0.0..=1.0).contains(&self.lambda), "RrreConfig: lambda {} outside [0,1]", self.lambda);
        assert!(self.gamma >= 0.0, "RrreConfig: negative gamma");
        assert!(self.gamma_emb >= 0.0, "RrreConfig: negative gamma_emb");
        assert!(self.lr > 0.0, "RrreConfig: non-positive learning rate");
        assert!(self.batch_size >= 1, "RrreConfig: batch_size must be ≥ 1");
        assert!(
            (0.0..=1.0).contains(&self.labeled_fraction),
            "RrreConfig: labeled_fraction {} outside [0,1]",
            self.labeled_fraction
        );
        assert!(self.threads >= 1, "RrreConfig: threads must be ≥ 1");
    }

    /// This configuration with `threads` training workers.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The `RRRE_THREADS` environment override used by the CI thread-matrix
    /// smoke: `Some(n)` when the variable holds a positive integer, `None`
    /// otherwise.
    pub fn env_threads() -> Option<usize> {
        std::env::var("RRRE_THREADS").ok()?.trim().parse().ok().filter(|&n| n >= 1)
    }

    /// A small configuration for tests and smoke benchmarks.
    pub fn tiny() -> Self {
        Self {
            k: 16,
            s_u: 4,
            s_i: 6,
            id_dim: 8,
            attn_dim: 8,
            fm_factors: 4,
            epochs: 5,
            ..Default::default()
        }
    }

    /// The RRRE⁻ ablation of this configuration.
    pub fn minus(mut self) -> Self {
        self.variant = LossVariant::Unbiased;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper_settings() {
        let cfg = RrreConfig::default();
        cfg.validate();
        assert_eq!(cfg.k, 64); // §IV-E1: best embedding size
        assert_eq!(cfg.s_i, 12); // §IV-E2: chosen setting
        assert_eq!(cfg.variant, LossVariant::Biased);
    }

    #[test]
    fn minus_flips_variant_only() {
        let cfg = RrreConfig::default().minus();
        assert_eq!(cfg.variant, LossVariant::Unbiased);
        assert_eq!(cfg.k, RrreConfig::default().k);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_k_rejected() {
        RrreConfig { k: 7, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn bad_lambda_rejected() {
        RrreConfig { lambda: 1.5, ..Default::default() }.validate();
    }

    #[test]
    fn threads_default_is_serial_and_zero_is_rejected() {
        assert_eq!(RrreConfig::default().threads, 1);
        let cfg = RrreConfig::tiny().with_threads(4);
        cfg.validate();
        assert_eq!(cfg.threads, 4);
    }

    #[test]
    #[should_panic(expected = "threads")]
    fn zero_threads_rejected() {
        RrreConfig { threads: 0, ..Default::default() }.validate();
    }
}
