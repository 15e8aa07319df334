//! One fit per experiment cell, at smoke scale. Tables III–VI, the
//! significance test and the ablations, run through one `CellCache`, fit
//! each distinct (cell, method, configuration) exactly once; and what a
//! cell's cache hands out is a direct fit of that cell, bit for bit.

use rrre_baselines::rating::Narre;
use rrre_bench::ablations::{
    ablation_attention, ablation_biased_loss, ablation_encoder, ablation_lambda, ablation_sampling,
    ablation_semi_supervised,
};
use rrre_bench::methods::{narre_config, rrre_config, RatingMethod, ReliabilityMethod};
use rrre_bench::ndcg::run_ndcg;
use rrre_bench::significance::run_significance;
use rrre_bench::tables::{run_table3, run_table4};
use rrre_bench::{Cell, CellCache, DatasetRun, Scale};
use rrre_core::Rrre;
use rrre_data::synth::SynthConfig;

const SCALE: Scale = Scale::Smoke;
const REPEATS: usize = 2;

fn run_ablations(cells: &mut CellCache) {
    for ablation in [
        ablation_biased_loss,
        ablation_attention,
        ablation_lambda,
        ablation_sampling,
        ablation_semi_supervised,
    ] {
        ablation(cells, SCALE);
    }
    ablation_encoder(cells);
}

#[test]
fn every_distinct_cell_and_fit_runs_once() {
    let mut cells = CellCache::default();
    // Table III: 5 presets × 2 trials, each fitting 6 rating methods.
    run_table3(&mut cells, SCALE, REPEATS);
    assert_eq!((cells.runs_prepared(), cells.fits_run()), (10, 60));
    // Table IV adds its three reliability baselines per cell; its RRRE row
    // is Table III's RRRE column.
    run_table4(&mut cells, SCALE, REPEATS);
    assert_eq!(cells.fits_run(), 60 + 30);
    // Tables V/VI and the significance test reread those cells.
    run_ndcg(&mut cells, &SynthConfig::yelp_chi(), SCALE, REPEATS);
    run_ndcg(&mut cells, &SynthConfig::cds(), SCALE, REPEATS);
    run_significance(&mut cells, &SynthConfig::yelp_chi(), SCALE, REPEATS);
    assert_eq!(cells.fits_run(), 90);
    // The ablations' base points, RRRE⁻ and (at smoke scale) the frozen
    // encoder are Table III's trial-0 YelpChi fits. New: mean pooling, five
    // λ values (none is the default 0.6), random sampling, three label
    // budgets below 100 %, and the end-to-end encoder.
    run_ablations(&mut cells);
    assert_eq!(cells.fits_run(), 90 + 11);
    // Asking again fits nothing.
    run_table3(&mut cells, SCALE, REPEATS);
    run_table4(&mut cells, SCALE, REPEATS);
    run_ablations(&mut cells);
    assert_eq!((cells.runs_prepared(), cells.fits_run()), (10, 101));
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn cached_predictions_are_a_direct_fits_bits() {
    let preset = SynthConfig::yelp_chi();
    let cell = Cell { preset: &preset, scale: SCALE, trial: 1 };
    let mut cells = CellCache::default();
    let rrre_ratings = cells.ratings(cell, RatingMethod::Rrre).to_vec();
    let rrre_reliability = cells.reliability(cell, ReliabilityMethod::Rrre).to_vec();
    let narre_ratings = cells.ratings(cell, RatingMethod::Narre).to_vec();
    assert_eq!(cells.fits_run(), 2, "Table IV's RRRE row reuses Table III's RRRE fit");

    let DatasetRun { ds, corpus, split, .. } = DatasetRun::prepare(&preset, SCALE, 1);
    let rrre = Rrre::fit(&ds, &corpus, &split.train, rrre_config(SCALE, 1)).predict_reviews(&ds, &corpus, &split.test);
    let ratings: Vec<f32> = rrre.iter().map(|p| p.rating).collect();
    let reliability: Vec<f32> = rrre.iter().map(|p| p.reliability).collect();
    assert_eq!(bits(&rrre_ratings), bits(&ratings), "RRRE ratings");
    assert_eq!(bits(&rrre_reliability), bits(&reliability), "RRRE reliability");

    let narre = Narre::fit(&ds, &corpus, &split.train, narre_config(SCALE, 1));
    assert_eq!(bits(&narre_ratings), bits(&narre.predict_reviews(&ds, &corpus, &split.test)), "NARRE ratings");
}
