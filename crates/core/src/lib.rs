//! # rrre-core
//!
//! The paper's primary contribution: **Reliable Recommendation with
//! Review-level Explanations** (RRRE, ICDE 2021) — a joint neural model that
//! predicts a rating score and a reliability score for every user–item pair
//! and uses both to produce recommendations with reliable review-level
//! explanations.
//!
//! * [`ReviewEncoder`] — BiLSTM review content embedding (§III-C);
//! * [`Tower`] — UserNet/ItemNet with fraud-attention (§III-D);
//! * [`Rrre`] — the joint model, heads and training loop (§III-E);
//! * [`recommend_with`] / [`explain_with`] — the recommendation-with-
//!   reliable-explanation procedure (§III-B), written once over a per-pair
//!   scoring closure: the scoring seam. [`recommend`] / [`explain`] call it
//!   with [`Rrre::predict`], the serving engine with its tower-cached,
//!   prior-gated scorer; [`rank_by_key`] is the one two-stage ordering, the
//!   scatter-gather merge included;
//! * [`RrreConfig::minus`] — the RRRE⁻ ablation (plain MSE, Eq. 13).

#![warn(missing_docs)]

pub mod adversarial;
pub mod checkpoint;
mod config;
pub mod coverage;
mod encoder;
pub mod eval;
mod model;
pub mod parallel;
mod recommend;
mod tower;

pub use adversarial::{
    evaluate_under_attack, fake_detection_ap, fit_on_poisoned, run_robustness_sweep, AttackCell,
    AttackEvalConfig, RobustnessReport,
};
pub use checkpoint::{CheckpointConfig, FitOutcome};
pub use config::{EncoderMode, LossVariant, Pooling, RrreConfig, Sampling};
pub use encoder::ReviewEncoder;
pub use coverage::{pipeline_report, PipelineReport};
pub use eval::{evaluate, JointEvaluation};
pub use model::{ColdStartPrior, EpochStats, Prediction, Rrre};
pub use recommend::{
    explain, explain_with, rank_by_key, rank_candidates, recommend, recommend_with, Explanation,
    Recommendation, EXPLANATION_RELIABILITY_THRESHOLD,
};
pub use tower::Tower;
