//! Reproduction of the paper's Tables V and VI: NDCG@k of the reliability
//! ranking on the YelpChi-shaped and CDs-shaped datasets, k ∈ {100…1000}
//! (scaled with the dataset so the ranks stay meaningful at smaller scales).

use crate::cells::{Cell, CellCache};
use crate::methods::ReliabilityMethod;
use crate::report::{fmt3, TextTable};
use crate::scale::Scale;
use rrre_data::synth::SynthConfig;
use rrre_metrics::ndcg_at_k;

/// NDCG@k results: one row per k, one column per method.
#[derive(Debug, Clone)]
pub struct NdcgResult {
    /// Dataset name.
    pub dataset: String,
    /// The evaluated k values.
    pub ks: Vec<usize>,
    /// `values[method][k_idx]` in [`ReliabilityMethod::ALL`] order.
    pub values: Vec<Vec<f64>>,
}

/// The paper's k grid (100..=1000 step 100), shrunk proportionally at
/// smaller scales and clipped to the test-set size.
pub fn k_grid(scale: Scale, test_len: usize) -> Vec<usize> {
    let factor = scale.dataset_factor();
    (1..=10)
        .map(|i| ((i * 100) as f64 * factor).round().max(1.0) as usize)
        .filter(|&k| k <= test_len)
        .collect()
}

/// Runs one NDCG table (Table V on the YelpChi preset, Table VI on CDs).
pub fn run_ndcg(cells: &mut CellCache, preset: &SynthConfig, scale: Scale, repeats: usize) -> (NdcgResult, TextTable) {
    assert!(repeats >= 1, "run_ndcg: need at least one repeat");
    let mut ks: Vec<usize> = Vec::new();
    let mut sums: Vec<Vec<f64>> = Vec::new();
    for trial in 0..repeats as u64 {
        let cell = Cell { preset, scale, trial };
        let labels = cells.run(cell).test_labels();
        if trial == 0 {
            ks = k_grid(scale, labels.len());
            sums = vec![vec![0.0; ks.len()]; ReliabilityMethod::ALL.len()];
        }
        for (mi, method) in ReliabilityMethod::ALL.into_iter().enumerate() {
            let scores = cells.reliability(cell, method);
            for (ki, &k) in ks.iter().enumerate() {
                sums[mi][ki] += ndcg_at_k(scores, &labels, k.min(labels.len()));
            }
        }
    }
    let values: Vec<Vec<f64>> = sums
        .into_iter()
        .map(|col| col.into_iter().map(|v| v / repeats as f64).collect())
        .collect();
    let result = NdcgResult { dataset: preset.name.clone(), ks: ks.clone(), values };

    let mut headers: Vec<&str> = vec!["k"];
    headers.extend(ReliabilityMethod::ALL.iter().map(|m| m.name()));
    let mut table = TextTable::new(
        format!("NDCG@k of compared methods on {} (mean of {repeats} trials)", preset.name),
        &headers,
    );
    for (ki, &k) in result.ks.iter().enumerate() {
        let mut cells = vec![k.to_string()];
        cells.extend(result.values.iter().map(|col| fmt3(col[ki])));
        table.row(cells);
    }
    (result, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_grid_scales_and_clips() {
        let ks = k_grid(Scale::Full, 650);
        assert_eq!(ks, vec![100, 200, 300, 400, 500, 600]);
        let ks = k_grid(Scale::Smoke, 10_000);
        assert_eq!(ks.len(), 10);
        assert_eq!(ks[0], 4);
    }
}
