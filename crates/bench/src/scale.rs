//! Experiment scales.
//!
//! Every experiment runs at one of three scales so the same harness serves
//! smoke tests (`Smoke`), the default `repro` CLI
//! (`Small`) and a patient full run (`Full`). The scale controls the
//! synthetic dataset size multiplier and the training budgets.

use std::str::FromStr;

/// Experiment scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny: seconds per experiment; used by smoke tests.
    Smoke,
    /// Default for `repro`: minutes for the whole suite.
    Small,
    /// The preset sizes of DESIGN.md §1, unscaled.
    Full,
}

impl Scale {
    /// Dataset size multiplier applied to the preset counts.
    pub fn dataset_factor(self) -> f64 {
        match self {
            Scale::Smoke => 0.04,
            Scale::Small => 0.25,
            Scale::Full => 1.0,
        }
    }

    /// Word-embedding dimension for the corpus pipeline.
    pub fn word_dim(self) -> usize {
        match self {
            Scale::Smoke => 16,
            Scale::Small | Scale::Full => 32,
        }
    }

    /// Word2vec pretraining epochs.
    pub fn word2vec_epochs(self) -> usize {
        match self {
            Scale::Smoke => 1,
            Scale::Small => 3,
            Scale::Full => 4,
        }
    }

    /// Training epochs for the neural rating models.
    pub fn epochs(self) -> usize {
        match self {
            Scale::Smoke => 3,
            Scale::Small => 12,
            Scale::Full => 20,
        }
    }

    /// Default number of repeated trials for the mean-of-trials tables
    /// (the paper uses five).
    pub fn default_repeats(self) -> usize {
        match self {
            Scale::Smoke => 1,
            Scale::Small => 3,
            Scale::Full => 5,
        }
    }
}

impl FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Ok(Scale::Smoke),
            "small" => Ok(Scale::Small),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale '{other}' (expected smoke|small|full)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing() {
        assert_eq!("smoke".parse::<Scale>().unwrap(), Scale::Smoke);
        assert_eq!("FULL".parse::<Scale>().unwrap(), Scale::Full);
        assert!("big".parse::<Scale>().is_err());
    }

    #[test]
    fn factors_are_ordered() {
        assert!(Scale::Smoke.dataset_factor() < Scale::Small.dataset_factor());
        assert!(Scale::Small.dataset_factor() < Scale::Full.dataset_factor());
        assert!(Scale::Smoke.epochs() < Scale::Full.epochs());
    }
}
