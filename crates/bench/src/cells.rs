//! Experiment cells, each prepared once and each fit on it run once.
//!
//! A cell is one (preset, scale, trial). Its [`DatasetRun`] is generated,
//! encoded and split on first use, and each [`Fit`] — a method at one
//! configuration — is trained on it on first request; later requests read
//! the kept test-set predictions. Tables III–VI, the significance test and
//! the ablations all read from one [`CellCache`], so a model two
//! experiments share is trained once: Table III's RRRE column is Table IV's
//! RRRE row, Tables V/VI and the significance test reread Table III/IV
//! cells, and the ablations' base points are Table III's trial-0 YelpChi
//! cell. The figure sweeps (per-epoch curves) and the case study (a model,
//! not predictions) read the prepared runs but fit their own models.

use crate::context::DatasetRun;
use crate::methods::{Fit, RatingMethod, ReliabilityMethod, TestScores};
use crate::scale::Scale;
use rrre_data::synth::SynthConfig;

/// One experiment cell: a dataset preset at a scale and trial.
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a> {
    /// The preset; cells are told apart by its name.
    pub preset: &'a SynthConfig,
    /// The experiment scale.
    pub scale: Scale,
    /// The trial index (seeds derive from it).
    pub trial: u64,
}

type CellKey = (String, Scale, u64);

impl Cell<'_> {
    fn key(&self) -> CellKey {
        (self.preset.name.clone(), self.scale, self.trial)
    }
}

/// Every cell prepared so far and every fit run on one, with its test-set
/// predictions.
#[derive(Default)]
pub struct CellCache {
    runs: Vec<(CellKey, DatasetRun)>,
    fits: Vec<(CellKey, Fit, TestScores)>,
}

impl CellCache {
    /// Position of `cell`'s run in `runs`, preparing it on first use.
    fn run_index(&mut self, cell: Cell<'_>) -> usize {
        let key = cell.key();
        self.runs.iter().position(|(k, _)| *k == key).unwrap_or_else(|| {
            self.runs.push((key, DatasetRun::prepare(cell.preset, cell.scale, cell.trial)));
            self.runs.len() - 1
        })
    }

    /// The prepared run of `cell`.
    pub fn run(&mut self, cell: Cell<'_>) -> &DatasetRun {
        let i = self.run_index(cell);
        &self.runs[i].1
    }

    /// The test-set predictions of `fit` on `cell`, fitted on first request.
    pub fn scores(&mut self, cell: Cell<'_>, fit: Fit) -> &TestScores {
        let key = cell.key();
        let i = match self.fits.iter().position(|(k, f, _)| *k == key && *f == fit) {
            Some(i) => i,
            None => {
                let r = self.run_index(cell);
                let scores = fit.predict_test(&self.runs[r].1, cell.scale);
                self.fits.push((key, fit, scores));
                self.fits.len() - 1
            }
        };
        &self.fits[i].2
    }

    /// A rating method's predicted test ratings on `cell`.
    pub fn ratings(&mut self, cell: Cell<'_>, method: RatingMethod) -> &[f32] {
        &self.scores(cell, method.fit(cell.scale, cell.trial)).ratings
    }

    /// A reliability method's test reliability scores on `cell`.
    pub fn reliability(&mut self, cell: Cell<'_>, method: ReliabilityMethod) -> &[f32] {
        &self.scores(cell, method.fit(cell.scale, cell.trial)).reliability
    }

    /// Runs prepared so far: one per distinct cell used.
    pub fn runs_prepared(&self) -> usize {
        self.runs.len()
    }

    /// Fits run so far: one per distinct (cell, fit) requested.
    pub fn fits_run(&self) -> usize {
        self.fits.len()
    }
}
