//! Reproduction of the paper's Tables II, III and IV.

use crate::cells::{Cell, CellCache};
use crate::methods::{RatingMethod, ReliabilityMethod};
use crate::report::{fmt3, TextTable};
use crate::scale::Scale;
use rrre_data::synth::SynthConfig;
use rrre_data::{dataset_stats, DatasetStats};
use rrre_metrics::stats::mean_std;
use rrre_metrics::{auc, average_precision, brmse};

/// Table II: statistics of the generated datasets.
pub fn run_table2(cells: &mut CellCache, scale: Scale) -> (Vec<DatasetStats>, TextTable) {
    let mut table = TextTable::new(
        "Table II — statistics of the (synthetic) datasets",
        &["dataset", "#reviews", "%fake", "#items", "#users", "med|W^u|", "med|W^i|"],
    );
    let mut stats = Vec::new();
    for preset in SynthConfig::all_presets() {
        let s = dataset_stats(&cells.run(Cell { preset: &preset, scale, trial: 0 }).ds);
        table.row(vec![
            s.name.clone(),
            s.n_reviews.to_string(),
            format!("{:.2}%", s.fake_pct),
            s.n_items.to_string(),
            s.n_users.to_string(),
            s.median_user_degree.to_string(),
            s.median_item_degree.to_string(),
        ]);
        stats.push(s);
    }
    (stats, table)
}

/// One dataset row of Table III: per-method bRMSE trials.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Dataset name.
    pub dataset: String,
    /// `(method, mean bRMSE)` in [`RatingMethod::ALL`] order.
    pub brmse: Vec<(RatingMethod, f64)>,
    /// Raw per-trial values, `trials[method][trial]`.
    pub trials: Vec<Vec<f64>>,
}

/// Table III: bRMSE of every rating method on every dataset, averaged over
/// `repeats` trials (the paper reports the mean of five). With more than one
/// trial the rendered cells carry `±` sample standard deviations.
pub fn run_table3(cells: &mut CellCache, scale: Scale, repeats: usize) -> (Vec<Table3Row>, TextTable) {
    assert!(repeats >= 1, "run_table3: need at least one repeat");
    let mut rows = Vec::new();
    for preset in SynthConfig::all_presets() {
        let mut trials = vec![Vec::with_capacity(repeats); RatingMethod::ALL.len()];
        for trial in 0..repeats as u64 {
            let cell = Cell { preset: &preset, scale, trial };
            let run = cells.run(cell);
            let (targets, weights) = (run.test_ratings(), run.test_reliability());
            for (mi, method) in RatingMethod::ALL.into_iter().enumerate() {
                trials[mi].push(brmse(cells.ratings(cell, method), &targets, &weights));
            }
        }
        rows.push(Table3Row {
            dataset: preset.name.clone(),
            brmse: RatingMethod::ALL
                .into_iter()
                .zip(trials.iter().map(|t| mean_std(t).mean))
                .collect(),
            trials,
        });
    }
    let mut headers: Vec<&str> = vec!["dataset"];
    headers.extend(RatingMethod::ALL.iter().map(|m| m.name()));
    let mut table = TextTable::new(
        format!("Table III — bRMSE of rating prediction (mean of {repeats} trials)"),
        &headers,
    );
    for row in &rows {
        let mut cells = vec![row.dataset.clone()];
        for t in &row.trials {
            let ms = mean_std(t);
            if repeats > 1 {
                cells.push(format!("{} ±{:.3}", fmt3(ms.mean), ms.std));
            } else {
                cells.push(fmt3(ms.mean));
            }
        }
        table.row(cells);
    }
    (rows, table)
}

/// One dataset's Table IV metrics for one method.
#[derive(Debug, Clone)]
pub struct Table4Cell {
    /// Method evaluated.
    pub method: ReliabilityMethod,
    /// ROC-AUC on benign-vs-fake.
    pub auc: f64,
    /// Average precision of ranking benign reviews first (main-table
    /// convention; see EXPERIMENTS.md on the paper's mixed conventions).
    pub ap_benign: f64,
    /// Average precision of ranking fake reviews first (spam-detection
    /// convention).
    pub ap_fake: f64,
}

/// One dataset row of Table IV.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Dataset name.
    pub dataset: String,
    /// Per-method metrics in [`ReliabilityMethod::ALL`] order.
    pub cells: Vec<Table4Cell>,
}

/// Table IV: AUC and average precision of every reliability method on every
/// dataset.
pub fn run_table4(cells: &mut CellCache, scale: Scale, repeats: usize) -> (Vec<Table4Row>, TextTable) {
    assert!(repeats >= 1, "run_table4: need at least one repeat");
    let mut rows = Vec::new();
    for preset in SynthConfig::all_presets() {
        let n_methods = ReliabilityMethod::ALL.len();
        let (mut auc_s, mut apb_s, mut apf_s) = (vec![0.0; n_methods], vec![0.0; n_methods], vec![0.0; n_methods]);
        for trial in 0..repeats as u64 {
            let cell = Cell { preset: &preset, scale, trial };
            let labels = cells.run(cell).test_labels();
            let fake_labels: Vec<bool> = labels.iter().map(|&b| !b).collect();
            for (mi, method) in ReliabilityMethod::ALL.into_iter().enumerate() {
                let scores = cells.reliability(cell, method);
                auc_s[mi] += auc(scores, &labels);
                apb_s[mi] += average_precision(scores, &labels);
                let inverted: Vec<f32> = scores.iter().map(|&s| -s).collect();
                apf_s[mi] += average_precision(&inverted, &fake_labels);
            }
        }
        let r = repeats as f64;
        rows.push(Table4Row {
            dataset: preset.name.clone(),
            cells: ReliabilityMethod::ALL
                .into_iter()
                .enumerate()
                .map(|(mi, method)| Table4Cell {
                    method,
                    auc: auc_s[mi] / r,
                    ap_benign: apb_s[mi] / r,
                    ap_fake: apf_s[mi] / r,
                })
                .collect(),
        });
    }
    let mut table = TextTable::new(
        format!("Table IV — reliability score prediction (mean of {repeats} trials)"),
        &["dataset", "method", "AUC", "AP(benign)", "AP(fake)"],
    );
    for row in &rows {
        for c in &row.cells {
            table.row(vec![
                row.dataset.clone(),
                c.method.name().to_string(),
                fmt3(c.auc),
                fmt3(c.ap_benign),
                fmt3(c.ap_fake),
            ]);
        }
    }
    (rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_covers_all_presets() {
        let (stats, table) = run_table2(&mut CellCache::default(), Scale::Smoke);
        assert_eq!(stats.len(), 5);
        assert_eq!(table.len(), 5);
        let rendered = table.render();
        assert!(rendered.contains("YelpChi-sim") && rendered.contains("CDs-sim"));
    }
}
