//! Reproduction of the paper's Figures 2–4: hyper-parameter sweeps with
//! per-epoch learning curves and wall-clock cost.
//!
//! * Fig. 2 — review-embedding size `k ∈ {8, 16, 32, 64, 128}`;
//! * Fig. 3 — UserNet input size `s_u ∈ {1, 3, 5, 7, 9, 11, 13}` with
//!   `s_i` fixed;
//! * Fig. 4 — ItemNet input size `s_i ∈ {12, 32, 52, 72, 92, 112, 132}`
//!   (clipped to the scaled item degrees) with `s_u` fixed.
//!
//! All sweeps run on the YelpChi-shaped dataset, as in §IV-E.

use crate::cells::{Cell, CellCache};
use crate::context::DatasetRun;
use crate::methods::rrre_config;
use crate::report::{fmt3, TextTable};
use crate::scale::Scale;
use rrre_core::{Rrre, RrreConfig};
use rrre_data::synth::SynthConfig;
use rrre_metrics::{auc, brmse};
use std::time::Instant;

/// One sweep point: the swept value, its learning curves and cost.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept hyper-parameter value.
    pub value: usize,
    /// Test bRMSE after each epoch.
    pub brmse_curve: Vec<f64>,
    /// Test reliability AUC after each epoch.
    pub auc_curve: Vec<f64>,
    /// Total training wall-clock seconds.
    pub train_seconds: f64,
}

/// A completed sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Which figure this reproduces.
    pub figure: &'static str,
    /// Name of the swept hyper-parameter.
    pub param: &'static str,
    /// The sweep points.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// Serialises the sweep as CSV: one row per (value, epoch) with both
    /// metric curves — the raw data behind the paper's figure plots.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{},epoch,brmse,auc,train_seconds", self.param);
        for p in &self.points {
            for (epoch, (&b, &a)) in p.brmse_curve.iter().zip(&p.auc_curve).enumerate() {
                let _ = writeln!(out, "{},{},{:.6},{:.6},{:.3}", p.value, epoch, b, a, p.train_seconds);
            }
        }
        out
    }

    /// Writes [`Sweep::to_csv`] to a file, creating parent directories.
    pub fn save_csv(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }

    /// Renders the final-epoch summary table (value, bRMSE, AUC, seconds).
    pub fn summary_table(&self) -> TextTable {
        let mut table = TextTable::new(
            format!("{} — influence of {} (final-epoch test metrics)", self.figure, self.param),
            &[self.param, "bRMSE", "AUC", "train_s"],
        );
        for p in &self.points {
            table.row(vec![
                p.value.to_string(),
                fmt3(p.brmse_curve.last().copied().unwrap_or(f64::NAN)),
                fmt3(p.auc_curve.last().copied().unwrap_or(f64::NAN)),
                format!("{:.2}", p.train_seconds),
            ]);
        }
        table
    }

    /// Renders the per-epoch bRMSE learning curves (one row per epoch).
    pub fn curve_table(&self) -> TextTable {
        let headers: Vec<String> = std::iter::once("epoch".to_string())
            .chain(self.points.iter().map(|p| format!("{}={}", self.param, p.value)))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = TextTable::new(
            format!("{} — per-epoch test bRMSE curves", self.figure),
            &header_refs,
        );
        let epochs = self.points.iter().map(|p| p.brmse_curve.len()).max().unwrap_or(0);
        for e in 0..epochs {
            let mut cells = vec![e.to_string()];
            for p in &self.points {
                cells.push(p.brmse_curve.get(e).map_or("-".into(), |&v| fmt3(v)));
            }
            table.row(cells);
        }
        table
    }
}

/// Trains one configuration with per-epoch test evaluation.
fn sweep_point(run: &DatasetRun, cfg: RrreConfig, value: usize) -> SweepPoint {
    let targets = run.test_ratings();
    let weights = run.test_reliability();
    let labels = run.test_labels();
    let mut brmse_curve = Vec::with_capacity(cfg.epochs);
    let mut auc_curve = Vec::with_capacity(cfg.epochs);
    let start = Instant::now();
    let _ = Rrre::fit_with_hook(&run.ds, &run.corpus, &run.split.train, cfg, |_, model| {
        let preds = model.predict_reviews(&run.ds, &run.corpus, &run.split.test);
        let ratings: Vec<f32> = preds.iter().map(|p| p.rating).collect();
        let rels: Vec<f32> = preds.iter().map(|p| p.reliability).collect();
        brmse_curve.push(brmse(&ratings, &targets, &weights));
        auc_curve.push(auc(&rels, &labels));
    });
    SweepPoint { value, brmse_curve, auc_curve, train_seconds: start.elapsed().as_secs_f64() }
}

/// Fig. 2: embedding-size sweep.
pub fn run_fig2(cells: &mut CellCache, scale: Scale) -> Sweep {
    let run = cells.run(Cell { preset: &SynthConfig::yelp_chi(), scale, trial: 0 });
    let ks: &[usize] = match scale {
        Scale::Smoke => &[8, 16],
        _ => &[8, 16, 32, 64, 128],
    };
    let points = ks
        .iter()
        .map(|&k| {
            let cfg = RrreConfig { k, ..rrre_config(scale, 0) };
            sweep_point(run, cfg, k)
        })
        .collect();
    Sweep { figure: "Fig. 2", param: "k", points }
}

/// Fig. 3: UserNet input-size sweep (`s_i` held at the paper's setting,
/// scaled to the generated item degrees).
pub fn run_fig3(cells: &mut CellCache, scale: Scale) -> Sweep {
    let run = cells.run(Cell { preset: &SynthConfig::yelp_chi(), scale, trial: 0 });
    let sus: &[usize] = match scale {
        Scale::Smoke => &[1, 3],
        _ => &[1, 3, 5, 7, 9, 11, 13],
    };
    let points = sus
        .iter()
        .map(|&s_u| {
            let cfg = RrreConfig { s_u, ..rrre_config(scale, 0) };
            sweep_point(run, cfg, s_u)
        })
        .collect();
    Sweep { figure: "Fig. 3", param: "s_u", points }
}

/// Fig. 4: ItemNet input-size sweep (`s_u = 11` fixed as in §IV-E2). The
/// paper's grid {12…132} is scaled by the dataset factor so the sweep stays
/// meaningful relative to the generated item degrees.
pub fn run_fig4(cells: &mut CellCache, scale: Scale) -> Sweep {
    let run = cells.run(Cell { preset: &SynthConfig::yelp_chi(), scale, trial: 0 });
    let grid: Vec<usize> = match scale {
        Scale::Smoke => vec![4, 8],
        Scale::Small => vec![3, 8, 13, 18, 23, 28, 33],
        Scale::Full => vec![12, 32, 52, 72, 92, 112, 132],
    };
    let points = grid
        .into_iter()
        .map(|s_i| {
            let cfg = RrreConfig { s_i, ..rrre_config(scale, 0) };
            sweep_point(run, cfg, s_i)
        })
        .collect();
    Sweep { figure: "Fig. 4", param: "s_i", points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_has_one_row_per_value_epoch() {
        let sweep = Sweep {
            figure: "Fig. X",
            param: "k",
            points: vec![SweepPoint {
                value: 8,
                brmse_curve: vec![1.2, 1.0],
                auc_curve: vec![0.6, 0.7],
                train_seconds: 0.5,
            }],
        };
        let csv = sweep.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("k,epoch,brmse,auc,train_seconds"));
        assert!(csv.contains("8,1,1.000000,0.700000,0.500"));
    }

    #[test]
    fn sweep_tables_render() {
        let sweep = Sweep {
            figure: "Fig. X",
            param: "k",
            points: vec![
                SweepPoint { value: 8, brmse_curve: vec![1.2, 1.0], auc_curve: vec![0.6, 0.7], train_seconds: 0.5 },
                SweepPoint { value: 16, brmse_curve: vec![1.1, 0.9], auc_curve: vec![0.65, 0.75], train_seconds: 0.9 },
            ],
        };
        let summary = sweep.summary_table().render();
        assert!(summary.contains("0.900") && summary.contains("0.750"));
        let curves = sweep.curve_table().render();
        assert!(curves.contains("k=8") && curves.contains("k=16"));
    }
}
