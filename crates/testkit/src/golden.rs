//! Golden-trace regression harness.
//!
//! A [`GoldenTrace`] captures everything a training run is supposed to
//! reproduce: the per-epoch loss curve (`loss`, `loss1`, `loss2`), the
//! post-training evaluation metrics and a probe of final head outputs on
//! deterministic user/item pairs. Traces are serialized to committed JSON
//! files and re-checked on every `cargo test` via [`check_golden`]; when a
//! change is *intended*, rerun with `RRRE_UPDATE_GOLDENS=1` to rewrite the
//! files and commit the diff.
//!
//! Tolerances are deliberately far tighter than any real modelling change
//! could stay inside: the whole pipeline is seeded, so a healthy run
//! reproduces the goldens bit-for-bit and the bands only absorb
//! cross-platform libm noise.

use crate::fixtures::{trained_fixture_traced, Fixture, FixtureSpec};
use crate::parity::deterministic_pairs;
use rrre_core::evaluate;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Environment variable that switches [`check_golden`] from compare mode to
/// regenerate mode.
pub const UPDATE_ENV: &str = "RRRE_UPDATE_GOLDENS";

/// One epoch of the training loss curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Mean joint loss.
    pub loss: f64,
    /// Mean reliability cross-entropy (loss₁).
    pub loss1: f64,
    /// Mean biased rating MSE (loss₂).
    pub loss2: f64,
}

/// Post-training evaluation metrics over the training set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalRecord {
    /// ROC-AUC of the reliability head.
    pub auc: f64,
    /// Average precision ranking benign reviews first.
    pub ap_benign: f64,
    /// Plain RMSE of the rating head.
    pub rmse: f64,
    /// Biased RMSE (Eq. 17) over benign reviews.
    pub brmse: f64,
}

/// Final head outputs for one probed user/item pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeadRecord {
    /// Probed user id.
    pub user: u32,
    /// Probed item id.
    pub item: u32,
    /// Predicted rating.
    pub rating: f64,
    /// Predicted reliability.
    pub reliability: f64,
}

/// A full recorded training trace: loss curve + metrics + head probes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenTrace {
    /// Per-epoch loss curve, in epoch order.
    pub epochs: Vec<EpochRecord>,
    /// Evaluation metrics after the final epoch.
    pub eval: EvalRecord,
    /// Final head outputs on deterministic probe pairs.
    pub heads: Vec<HeadRecord>,
}

/// Absolute tolerance bands for [`compare`].
#[derive(Debug, Clone, Copy)]
pub struct GoldenTolerance {
    /// Band for each loss component.
    pub loss: f64,
    /// Band for each evaluation metric.
    pub metric: f64,
    /// Band for each head output.
    pub head: f64,
}

impl Default for GoldenTolerance {
    fn default() -> Self {
        // Everything is seeded, so honest runs match bit-for-bit; these
        // bands exist only for libm drift and sit well under the 1e-3
        // perturbation the harness must reject.
        Self { loss: 2e-4, metric: 2e-4, head: 2e-4 }
    }
}

/// Trains `spec`'s fixture while recording its trace, evaluates it on the
/// training set and probes `n_heads` deterministic pairs. Returns the trace
/// together with the trained fixture so callers can keep testing it.
pub fn capture(spec: FixtureSpec, n_heads: usize) -> (GoldenTrace, Fixture) {
    let mut epochs = Vec::new();
    let fixture = trained_fixture_traced(spec, |stats| {
        epochs.push(EpochRecord {
            epoch: stats.epoch,
            loss: stats.loss as f64,
            loss1: stats.loss1 as f64,
            loss2: stats.loss2 as f64,
        });
    });
    let joint = evaluate(&fixture.model, &fixture.dataset, &fixture.corpus, &fixture.train);
    let eval = EvalRecord { auc: joint.auc, ap_benign: joint.ap_benign, rmse: joint.rmse, brmse: joint.brmse };
    let heads = deterministic_pairs(&fixture.dataset, spec.seed, n_heads)
        .into_iter()
        .map(|(u, i)| {
            let p = fixture.model.predict(&fixture.corpus, u, i);
            HeadRecord { user: u.0, item: i.0, rating: p.rating as f64, reliability: p.reliability as f64 }
        })
        .collect();
    (GoldenTrace { epochs, eval, heads }, fixture)
}

fn check(errors: &mut Vec<String>, what: impl std::fmt::Display, golden: f64, actual: f64, tol: f64) {
    let diff = (golden - actual).abs();
    // A NaN on either side is a violation, never a pass.
    if !matches!(diff.partial_cmp(&tol), Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)) {
        errors.push(format!("{what}: golden {golden} vs actual {actual} (|Δ| = {diff:e} > {tol:e})"));
    }
}

/// Compares an actual trace against the golden one under `tol`, returning
/// every violated band (not just the first) so regressions are diagnosable
/// from one failure message.
pub fn compare(golden: &GoldenTrace, actual: &GoldenTrace, tol: GoldenTolerance) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    if golden.epochs.len() != actual.epochs.len() {
        errors.push(format!("epoch count: golden {} vs actual {}", golden.epochs.len(), actual.epochs.len()));
    }
    for (g, a) in golden.epochs.iter().zip(&actual.epochs) {
        if g.epoch != a.epoch {
            errors.push(format!("epoch index: golden {} vs actual {}", g.epoch, a.epoch));
        }
        check(&mut errors, format!("epoch {} loss", g.epoch), g.loss, a.loss, tol.loss);
        check(&mut errors, format!("epoch {} loss1", g.epoch), g.loss1, a.loss1, tol.loss);
        check(&mut errors, format!("epoch {} loss2", g.epoch), g.loss2, a.loss2, tol.loss);
    }
    check(&mut errors, "eval auc", golden.eval.auc, actual.eval.auc, tol.metric);
    check(&mut errors, "eval ap_benign", golden.eval.ap_benign, actual.eval.ap_benign, tol.metric);
    check(&mut errors, "eval rmse", golden.eval.rmse, actual.eval.rmse, tol.metric);
    check(&mut errors, "eval brmse", golden.eval.brmse, actual.eval.brmse, tol.metric);
    if golden.heads.len() != actual.heads.len() {
        errors.push(format!("head count: golden {} vs actual {}", golden.heads.len(), actual.heads.len()));
    }
    for (g, a) in golden.heads.iter().zip(&actual.heads) {
        if (g.user, g.item) != (a.user, a.item) {
            errors.push(format!(
                "head pair: golden u{}/i{} vs actual u{}/i{}",
                g.user, g.item, a.user, a.item
            ));
            continue;
        }
        check(&mut errors, format!("head u{}/i{} rating", g.user, g.item), g.rating, a.rating, tol.head);
        check(&mut errors, format!("head u{}/i{} reliability", g.user, g.item), g.reliability, a.reliability, tol.head);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Checks `actual` against the committed golden file at `path`.
///
/// * With `RRRE_UPDATE_GOLDENS=1` the file is (re)written and the check
///   passes — commit the resulting diff.
/// * Otherwise the file must exist, parse, and match within `tol`;
///   any violation panics with the full list of out-of-band values.
pub fn check_golden(path: impl AsRef<Path>, actual: &GoldenTrace, tol: GoldenTolerance) {
    let path = path.as_ref();
    if std::env::var(UPDATE_ENV).as_deref() == Ok("1") {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("check_golden: cannot create golden dir");
        }
        let json = serde_json::to_string_pretty(actual).expect("check_golden: serialize");
        std::fs::write(path, json + "\n").expect("check_golden: write golden file");
        eprintln!("check_golden: regenerated {}", path.display());
        return;
    }
    let raw = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "check_golden: cannot read golden file {} ({e}).\n\
             Generate it with: RRRE_UPDATE_GOLDENS=1 cargo test -q",
            path.display()
        )
    });
    let golden: GoldenTrace = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("check_golden: golden file {} is not valid JSON: {e:?}", path.display()));
    if let Err(errors) = compare(&golden, actual, tol) {
        panic!(
            "golden trace mismatch against {} ({} violation(s)):\n  {}\n\
             If this change is intended, regenerate with RRRE_UPDATE_GOLDENS=1 cargo test -q and commit the diff.",
            path.display(),
            errors.len(),
            errors.join("\n  ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> GoldenTrace {
        GoldenTrace {
            epochs: vec![EpochRecord { epoch: 0, loss: 1.5, loss1: 0.9, loss2: 2.1 }],
            eval: EvalRecord { auc: 0.75, ap_benign: 0.8, rmse: 1.1, brmse: 1.0 },
            heads: vec![HeadRecord { user: 3, item: 7, rating: 4.2, reliability: 0.6 }],
        }
    }

    #[test]
    fn identical_traces_compare_clean() {
        assert!(compare(&trace(), &trace(), GoldenTolerance::default()).is_ok());
    }

    #[test]
    fn perturbation_of_1e_3_is_rejected() {
        let golden = trace();
        let mut bad = trace();
        bad.epochs[0].loss += 1e-3;
        let errors = compare(&golden, &bad, GoldenTolerance::default()).unwrap_err();
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("epoch 0 loss"), "{errors:?}");
    }

    #[test]
    fn nan_never_passes() {
        let golden = trace();
        let mut bad = trace();
        bad.eval.auc = f64::NAN;
        assert!(compare(&golden, &bad, GoldenTolerance::default()).is_err());
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let t = trace();
        let json = serde_json::to_string_pretty(&t).unwrap();
        let back: GoldenTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
