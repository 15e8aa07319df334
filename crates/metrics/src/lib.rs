//! # rrre-metrics
//!
//! Evaluation metrics used by the paper's experiments: RMSE and the biased
//! RMSE of Eq. (17) for rating prediction; ROC-AUC, average precision and
//! NDCG@k (Eq. 18–19) for reliability-score ranking; plus curves,
//! calibration, significance tests and poisoning deltas.

#![warn(missing_docs)]

pub mod calibration;
pub mod curves;
pub mod poisoning;
pub mod ranking;
pub mod rmse;
pub mod stats;

pub use calibration::{brier_score, calibration_bins, expected_calibration_error, CalibrationBin};
pub use curves::{auc_from_curve, pr_curve, roc_curve, PrPoint, RocPoint};
pub use poisoning::{GridRow, PoisoningDelta, RobustnessGrid};
pub use ranking::{auc, average_precision, dcg_at_k, ndcg_at_k, precision_at_k};
pub use rmse::{brmse, mae, rmse};
pub use stats::{mean_std, paired_t_test, MeanStd, PairedTTest};
