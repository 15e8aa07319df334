//! The compared methods and how one is fitted: train a method on a prepared
//! [`DatasetRun`] and return its test-set predictions. This is the single
//! place where the per-scale hyper-parameters of every compared method live;
//! [`crate::cells::CellCache`] runs each fit once.

use crate::context::DatasetRun;
use crate::scale::Scale;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrre_baselines::rating::{DeepConn, DeepConnConfig, Der, DerConfig, Narre, NarreConfig, Pmf, PmfConfig};
use rrre_baselines::reliability::{Icwsm13, Rev2, Rev2Config, SpEagle, SpEagleConfig};
use rrre_core::{Rrre, RrreConfig};

/// Rating-prediction methods of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RatingMethod {
    /// The full RRRE model.
    Rrre,
    /// Probabilistic matrix factorisation.
    Pmf,
    /// DeepCoNN.
    DeepConn,
    /// NARRE.
    Narre,
    /// DER.
    Der,
    /// RRRE⁻ (plain-MSE ablation).
    RrreMinus,
}

impl RatingMethod {
    /// All methods in the paper's Table III column order.
    pub const ALL: [RatingMethod; 6] = [
        RatingMethod::Rrre,
        RatingMethod::Pmf,
        RatingMethod::DeepConn,
        RatingMethod::Narre,
        RatingMethod::Der,
        RatingMethod::RrreMinus,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            RatingMethod::Rrre => "RRRE",
            RatingMethod::Pmf => "PMF",
            RatingMethod::DeepConn => "DeepCoNN",
            RatingMethod::Narre => "NARRE",
            RatingMethod::Der => "DER",
            RatingMethod::RrreMinus => "RRRE-",
        }
    }
}

/// Reliability-scoring methods of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReliabilityMethod {
    /// Behavioural-feature classifier.
    Icwsm13,
    /// SpEagle+ belief propagation.
    SpEaglePlus,
    /// REV2 fixed-point iterations.
    Rev2,
    /// The full RRRE model's reliability head.
    Rrre,
}

impl ReliabilityMethod {
    /// All methods in the paper's Table IV row order.
    pub const ALL: [ReliabilityMethod; 4] = [
        ReliabilityMethod::Icwsm13,
        ReliabilityMethod::SpEaglePlus,
        ReliabilityMethod::Rev2,
        ReliabilityMethod::Rrre,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ReliabilityMethod::Icwsm13 => "ICWSM13",
            ReliabilityMethod::SpEaglePlus => "SpEagle+",
            ReliabilityMethod::Rev2 => "REV2",
            ReliabilityMethod::Rrre => "RRRE",
        }
    }
}

/// RRRE configuration at a scale (the paper's chosen hyper-parameters,
/// with budgets reduced at smaller scales).
pub fn rrre_config(scale: Scale, trial: u64) -> RrreConfig {
    let base = match scale {
        Scale::Smoke => RrreConfig { epochs: 3, ..RrreConfig::tiny() },
        Scale::Small => RrreConfig { epochs: 20, k: 32, id_dim: 16, attn_dim: 16, ..Default::default() },
        Scale::Full => RrreConfig { epochs: scale.epochs(), ..Default::default() },
    };
    RrreConfig { seed: base.seed ^ trial, ..base }
}

fn deepconn_config(scale: Scale, trial: u64) -> DeepConnConfig {
    let base = match scale {
        Scale::Smoke => DeepConnConfig { epochs: 2, doc_tokens: 24, filters: 8, latent: 8, ..Default::default() },
        Scale::Small => DeepConnConfig { epochs: 5, doc_tokens: 48, ..Default::default() },
        Scale::Full => DeepConnConfig { epochs: 8, ..Default::default() },
    };
    DeepConnConfig { seed: base.seed ^ trial, ..base }
}

/// NARRE configuration at a scale.
pub fn narre_config(scale: Scale, trial: u64) -> NarreConfig {
    let base = match scale {
        Scale::Smoke => NarreConfig { epochs: 3, s_u: 4, s_i: 6, id_dim: 8, attn_dim: 8, ..Default::default() },
        Scale::Small => NarreConfig { epochs: 10, l2: 5e-3, ..Default::default() },
        Scale::Full => NarreConfig { epochs: scale.epochs(), ..Default::default() },
    };
    NarreConfig { seed: base.seed ^ trial, ..base }
}

fn der_config(scale: Scale, trial: u64) -> DerConfig {
    let base = match scale {
        Scale::Smoke => DerConfig { epochs: 3, s_u: 4, s_i: 6, hidden: 8, ..Default::default() },
        Scale::Small => DerConfig { epochs: 10, l2: 5e-3, ..Default::default() },
        Scale::Full => DerConfig { epochs: scale.epochs(), ..Default::default() },
    };
    DerConfig { seed: base.seed ^ trial, ..base }
}

/// One method at one configuration: what a fit on a cell is keyed by.
/// RRRE carries its whole configuration (RRRE⁻ and the ablations vary it);
/// a baseline's configuration is a function of the cell's scale and trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fit {
    /// RRRE, or a variant of it, at this configuration.
    Rrre(RrreConfig),
    /// PMF.
    Pmf,
    /// DeepCoNN.
    DeepConn,
    /// NARRE.
    Narre,
    /// DER.
    Der,
    /// ICWSM13.
    Icwsm13,
    /// SpEagle+.
    SpEaglePlus,
    /// REV2.
    Rev2,
}

impl RatingMethod {
    /// The fit this method's Table III column reads on a cell.
    pub fn fit(self, scale: Scale, trial: u64) -> Fit {
        match self {
            RatingMethod::Rrre => Fit::Rrre(rrre_config(scale, trial)),
            RatingMethod::RrreMinus => Fit::Rrre(rrre_config(scale, trial).minus()),
            RatingMethod::Pmf => Fit::Pmf,
            RatingMethod::DeepConn => Fit::DeepConn,
            RatingMethod::Narre => Fit::Narre,
            RatingMethod::Der => Fit::Der,
        }
    }
}

impl ReliabilityMethod {
    /// The fit this method's Table IV row reads on a cell: for RRRE, the
    /// same fit as Table III's RRRE column.
    pub fn fit(self, scale: Scale, trial: u64) -> Fit {
        match self {
            ReliabilityMethod::Rrre => Fit::Rrre(rrre_config(scale, trial)),
            ReliabilityMethod::Icwsm13 => Fit::Icwsm13,
            ReliabilityMethod::SpEaglePlus => Fit::SpEaglePlus,
            ReliabilityMethod::Rev2 => Fit::Rev2,
        }
    }
}

/// A fit's predictions on its cell's test split: predicted ratings from a
/// rating method, reliability scores (probability-like, higher = more
/// likely benign) from a reliability method, both from RRRE.
#[derive(Debug, Clone, Default)]
pub struct TestScores {
    /// Predicted rating of each test review; empty for a reliability method.
    pub ratings: Vec<f32>,
    /// Reliability score of each test review; empty for a rating method.
    pub reliability: Vec<f32>,
}

impl Fit {
    /// Trains (or runs) the method on `run`'s training split and predicts
    /// its test split.
    pub fn predict_test(self, run: &DatasetRun, scale: Scale) -> TestScores {
        let DatasetRun { ds, corpus, split, trial } = run;
        let (train, test) = (&split.train, &split.test);
        let ratings = |ratings| TestScores { ratings, ..Default::default() };
        let reliability = |reliability| TestScores { reliability, ..Default::default() };
        match self {
            Fit::Rrre(cfg) => {
                let preds = Rrre::fit(ds, corpus, train, cfg).predict_reviews(ds, corpus, test);
                TestScores {
                    ratings: preds.iter().map(|p| p.rating).collect(),
                    reliability: preds.iter().map(|p| p.reliability).collect(),
                }
            }
            Fit::Pmf => {
                let mut rng = StdRng::seed_from_u64(0x9F ^ trial);
                ratings(Pmf::fit(ds, train, PmfConfig::default(), &mut rng).predict_reviews(ds, test))
            }
            Fit::DeepConn => ratings(
                DeepConn::fit(ds, corpus, train, deepconn_config(scale, *trial)).predict_reviews(ds, corpus, test),
            ),
            Fit::Narre => ratings(
                Narre::fit(ds, corpus, train, narre_config(scale, *trial)).predict_reviews(ds, corpus, test),
            ),
            Fit::Der => {
                ratings(Der::fit(ds, corpus, train, der_config(scale, *trial)).predict_reviews(ds, corpus, test))
            }
            Fit::Icwsm13 => reliability(Icwsm13::fit(ds, corpus, train).score(ds, corpus, test)),
            Fit::SpEaglePlus => reliability(SpEagle::run(ds, corpus, train, SpEagleConfig::default()).score(test)),
            Fit::Rev2 => reliability(Rev2::run(ds, Rev2Config::default()).score(test)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrre_data::synth::SynthConfig;

    #[test]
    fn every_rating_method_produces_test_predictions() {
        let run = DatasetRun::prepare(&SynthConfig::yelp_chi(), Scale::Smoke, 0);
        for method in RatingMethod::ALL {
            let preds = method.fit(Scale::Smoke, 0).predict_test(&run, Scale::Smoke).ratings;
            assert_eq!(preds.len(), run.split.test.len(), "{}", method.name());
            assert!(preds.iter().all(|p| (1.0..=5.0).contains(p)), "{}", method.name());
        }
    }

    #[test]
    fn every_reliability_method_produces_scores() {
        let run = DatasetRun::prepare(&SynthConfig::cds(), Scale::Smoke, 0);
        for method in ReliabilityMethod::ALL {
            let scores = method.fit(Scale::Smoke, 0).predict_test(&run, Scale::Smoke).reliability;
            assert_eq!(scores.len(), run.split.test.len(), "{}", method.name());
            assert!(scores.iter().all(|s| s.is_finite()), "{}", method.name());
        }
    }
}
