//! Paired significance testing of the headline comparison (RRRE vs each
//! baseline and vs RRRE⁻) over repeated trials on shared splits — the
//! statistical backing for Table III's "RRRE is better" claims.

use crate::cells::{Cell, CellCache};
use crate::methods::RatingMethod;
use crate::report::{fmt3, TextTable};
use crate::scale::Scale;
use rrre_data::synth::SynthConfig;
use rrre_metrics::brmse;
use rrre_metrics::stats::paired_t_test;

/// Per-baseline significance outcome against RRRE.
#[derive(Debug, Clone)]
pub struct SignificanceRow {
    /// The baseline compared against RRRE.
    pub baseline: RatingMethod,
    /// Mean bRMSE difference (RRRE − baseline); negative favours RRRE.
    pub mean_diff: f64,
    /// The t statistic.
    pub t: f64,
    /// Two-sided significance at the 5 % level.
    pub significant: bool,
}

/// Runs `repeats` paired trials of every rating method on one preset and
/// t-tests each baseline against RRRE.
///
/// # Panics
/// Panics if `repeats < 2` (a t-test needs at least two pairs).
pub fn run_significance(
    cells: &mut CellCache,
    preset: &SynthConfig,
    scale: Scale,
    repeats: usize,
) -> (Vec<SignificanceRow>, TextTable) {
    assert!(repeats >= 2, "run_significance: need at least 2 repeats for a paired test");
    let mut per_method: Vec<Vec<f64>> = vec![Vec::with_capacity(repeats); RatingMethod::ALL.len()];
    for trial in 0..repeats as u64 {
        let cell = Cell { preset, scale, trial };
        let run = cells.run(cell);
        let (targets, weights) = (run.test_ratings(), run.test_reliability());
        for (mi, method) in RatingMethod::ALL.into_iter().enumerate() {
            per_method[mi].push(brmse(cells.ratings(cell, method), &targets, &weights));
        }
    }
    let rrre_idx = RatingMethod::ALL.iter().position(|&m| m == RatingMethod::Rrre).expect("RRRE in list");
    let rrre = per_method[rrre_idx].clone();

    let mut rows = Vec::new();
    let mut table = TextTable::new(
        format!("Paired t-test vs RRRE on {} ({} trials, bRMSE)", preset.name, repeats),
        &["baseline", "mean diff (RRRE-baseline)", "t", "significant@5%"],
    );
    for (mi, method) in RatingMethod::ALL.into_iter().enumerate() {
        if method == RatingMethod::Rrre {
            continue;
        }
        let t = paired_t_test(&rrre, &per_method[mi]).expect("repeats >= 2");
        rows.push(SignificanceRow {
            baseline: method,
            mean_diff: t.mean_diff,
            t: t.t,
            significant: t.significant_at_5pct,
        });
        table.row(vec![
            method.name().to_string(),
            fmt3(t.mean_diff),
            format!("{:.2}", t.t),
            if t.significant_at_5pct { "yes".into() } else { "no".into() },
        ]);
    }
    (rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_single_trial() {
        let _ = run_significance(&mut CellCache::default(), &SynthConfig::yelp_chi(), Scale::Smoke, 1);
    }
}
