//! Ablation studies for the design choices called out in DESIGN.md §4:
//! biased loss, fraud-attention, joint-loss weight λ, encoder mode and the
//! time-based sampling strategy.

use crate::cells::{Cell, CellCache};
use crate::methods::{rrre_config, Fit};
use crate::report::{fmt3, TextTable};
use crate::scale::Scale;
use rrre_core::{EncoderMode, Pooling, RrreConfig, Sampling};
use rrre_data::synth::SynthConfig;
use rrre_metrics::{auc, brmse};

/// Result of evaluating one configuration.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Human-readable variant label.
    pub label: String,
    /// Test bRMSE.
    pub brmse: f64,
    /// Test reliability AUC.
    pub auc: f64,
}

fn render(title: &str, points: &[AblationPoint]) -> TextTable {
    let mut table = TextTable::new(title, &["variant", "bRMSE", "AUC"]);
    for p in points {
        table.row(vec![p.label.clone(), fmt3(p.brmse), fmt3(p.auc)]);
    }
    table
}

/// Evaluates RRRE at each `(cfg, label)` variant on both tasks, on the
/// trial-0 YelpChi cell at `scale`, and renders the points under `title`.
fn ablate(
    cells: &mut CellCache,
    scale: Scale,
    title: &str,
    variants: impl IntoIterator<Item = (RrreConfig, String)>,
) -> (Vec<AblationPoint>, TextTable) {
    let preset = SynthConfig::yelp_chi();
    let cell = Cell { preset: &preset, scale, trial: 0 };
    let run = cells.run(cell);
    let (targets, weights, labels) = (run.test_ratings(), run.test_reliability(), run.test_labels());
    let points: Vec<AblationPoint> = variants
        .into_iter()
        .map(|(cfg, label)| {
            let scores = cells.scores(cell, Fit::Rrre(cfg));
            let brmse = brmse(&scores.ratings, &targets, &weights);
            AblationPoint { label, brmse, auc: auc(&scores.reliability, &labels) }
        })
        .collect();
    let table = render(title, &points);
    (points, table)
}

/// Biased (Eq. 14) vs plain (Eq. 13) rating loss — RRRE vs RRRE⁻.
pub fn ablation_biased_loss(cells: &mut CellCache, scale: Scale) -> (Vec<AblationPoint>, TextTable) {
    let base = rrre_config(scale, 0);
    let variants = [
        (base, "biased loss (RRRE, Eq. 14)".to_string()),
        (base.minus(), "plain MSE (RRRE-, Eq. 13)".to_string()),
    ];
    ablate(cells, scale, "Ablation — biased rating loss", variants)
}

/// Fraud-attention vs mean pooling.
pub fn ablation_attention(cells: &mut CellCache, scale: Scale) -> (Vec<AblationPoint>, TextTable) {
    let base = rrre_config(scale, 0);
    let variants = [
        (base, "fraud-attention (Eq. 5-7)".to_string()),
        (RrreConfig { pooling: Pooling::Mean, ..base }, "mean pooling".to_string()),
    ];
    ablate(cells, scale, "Ablation — review pooling", variants)
}

/// λ sweep of the joint loss (Eq. 15).
pub fn ablation_lambda(cells: &mut CellCache, scale: Scale) -> (Vec<AblationPoint>, TextTable) {
    let base = rrre_config(scale, 0);
    let variants = [0.0f32, 0.25, 0.5, 0.75, 1.0]
        .map(|lambda| (RrreConfig { lambda, ..base }, format!("lambda={lambda:.2}")));
    ablate(cells, scale, "Ablation — joint-loss weight lambda", variants)
}

/// Time-based (latest) vs random input-review sampling.
pub fn ablation_sampling(cells: &mut CellCache, scale: Scale) -> (Vec<AblationPoint>, TextTable) {
    let base = rrre_config(scale, 0);
    let variants = [
        (base, "time-based (latest m)".to_string()),
        (RrreConfig { sampling: Sampling::Random, ..base }, "random m-subset".to_string()),
    ];
    ablate(cells, scale, "Ablation — input-review sampling", variants)
}

/// Semi-supervised label budget (paper §V future work): how gracefully both
/// tasks degrade as reliability labels are withheld.
pub fn ablation_semi_supervised(cells: &mut CellCache, scale: Scale) -> (Vec<AblationPoint>, TextTable) {
    let base = rrre_config(scale, 0);
    let variants = [1.0f32, 0.5, 0.25, 0.1].map(|labeled_fraction| {
        (RrreConfig { labeled_fraction, ..base }, format!("{:.0}% labels", labeled_fraction * 100.0))
    });
    ablate(cells, scale, "Ablation — semi-supervised label budget", variants)
}

/// Frozen vs end-to-end encoder, always on smoke-size data: end-to-end
/// backprop through the BiLSTM on bigger data would dominate the whole
/// suite's runtime.
pub fn ablation_encoder(cells: &mut CellCache) -> (Vec<AblationPoint>, TextTable) {
    let mut base = rrre_config(Scale::Smoke, 0);
    base.epochs = base.epochs.min(3);
    let variants = [
        (base, "frozen encoder".to_string()),
        (RrreConfig { encoder: EncoderMode::EndToEnd, ..base }, "end-to-end encoder".to_string()),
    ];
    ablate(cells, Scale::Smoke, "Ablation — encoder mode (smoke-size data)", variants)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_shapes() {
        let points = vec![
            AblationPoint { label: "a".into(), brmse: 1.0, auc: 0.8 },
            AblationPoint { label: "b".into(), brmse: 1.1, auc: 0.7 },
        ];
        let t = render("t", &points);
        assert_eq!(t.len(), 2);
    }
}
