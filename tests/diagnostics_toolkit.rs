//! Integration of the diagnostic toolkit around the core pipeline:
//! probability calibration, ROC/PR curves, TF–IDF similarity and the
//! pipeline report — the pieces an operator of this system would run
//! alongside the model.

use rand::{rngs::StdRng, SeedableRng};
use rrre::core::{pipeline_report, Rrre, RrreConfig};
use rrre::metrics::calibration::{brier_score, expected_calibration_error};
use rrre::metrics::{auc, auc_from_curve, pr_curve, roc_curve};
use rrre::prelude::*;
use rrre::text::word2vec::Word2VecConfig;
use rrre::text::TfIdf;

fn setup() -> (Dataset, EncodedCorpus, Vec<usize>, Vec<usize>) {
    let ds = generate(&SynthConfig::yelp_chi().scaled(0.08));
    let corpus = EncodedCorpus::build(
        &ds,
        &CorpusConfig {
            max_len: 20,
            word2vec: Word2VecConfig { dim: 16, epochs: 2, ..Default::default() },
            ..Default::default()
        },
    );
    let split = train_test_split(&ds, 0.3, &mut StdRng::seed_from_u64(7));
    (ds, corpus, split.train, split.test)
}

#[test]
fn reliability_scores_are_usable_probabilities() {
    let (ds, corpus, train, test) = setup();
    let model = Rrre::fit(&ds, &corpus, &train, RrreConfig { epochs: 8, k: 16, ..RrreConfig::tiny() });
    let scores: Vec<f32> = model
        .predict_reviews(&ds, &corpus, &test)
        .iter()
        .map(|p| p.reliability)
        .collect();
    let labels: Vec<bool> = test.iter().map(|&i| ds.reviews[i].label.is_benign()).collect();

    // Curve AUC must agree with rank AUC.
    let curve = roc_curve(&scores, &labels);
    assert!((auc_from_curve(&curve) - auc(&scores, &labels)).abs() < 1e-6);
    // PR curve ends at full recall.
    let pr = pr_curve(&scores, &labels);
    assert!((pr.last().unwrap().recall - 1.0).abs() < 1e-9);
    // Scores beat the chance Brier level for this base rate and are not
    // wildly mis-calibrated.
    let base_rate = labels.iter().filter(|&&l| l).count() as f32 / labels.len() as f32;
    let chance_brier = (base_rate * (1.0 - base_rate)) as f64;
    assert!(brier_score(&scores, &labels) < chance_brier + 0.05);
    assert!(expected_calibration_error(&scores, &labels, 10) < 0.5);
}

#[test]
fn tfidf_separates_spam_vocabulary() {
    let (ds, corpus, _, _) = setup();
    let docs: Vec<Vec<usize>> = corpus.docs.iter().map(|d| d.ids[..d.len].to_vec()).collect();
    let tfidf = TfIdf::fit(&docs, &corpus.vocab);
    let vectors: Vec<Vec<(usize, f32)>> = docs.iter().map(|d| tfidf.transform(d)).collect();

    // Mean fake–fake similarity should exceed fake–benign: fakes share the
    // hype lexicon even without verbatim templates.
    let fakes: Vec<usize> = (0..ds.len()).filter(|&i| !ds.reviews[i].label.is_benign()).take(25).collect();
    let benign: Vec<usize> = (0..ds.len()).filter(|&i| ds.reviews[i].label.is_benign()).take(25).collect();
    let mean_sim = |a: &[usize], b: &[usize]| {
        let mut total = 0.0f32;
        let mut count = 0usize;
        for &x in a {
            for &y in b {
                if x != y {
                    total += TfIdf::cosine(&vectors[x], &vectors[y]);
                    count += 1;
                }
            }
        }
        total / count.max(1) as f32
    };
    let ff = mean_sim(&fakes, &fakes);
    let fb = mean_sim(&fakes, &benign);
    assert!(ff > fb, "fake-fake tfidf sim {ff} should exceed fake-benign {fb}");
}

#[test]
fn pipeline_report_over_sampled_users() {
    let (ds, corpus, train, _) = setup();
    let model = Rrre::fit(&ds, &corpus, &train, RrreConfig { epochs: 5, k: 16, ..RrreConfig::tiny() });
    let users: Vec<UserId> = (0..15.min(ds.n_users)).map(|u| UserId(u as u32)).collect();
    let report = pipeline_report(&model, &ds, &corpus, &users, 3);
    assert_eq!(report.n_users, users.len());
    assert!(report.catalog_coverage > 0.0);
    // The pipeline exists to keep fakes out of explanations: the exposure
    // rate must stay below the dataset's fake base rate.
    assert!(
        report.fake_explanation_rate <= ds.fake_fraction() + 0.1,
        "fake explanation rate {} vs base rate {}",
        report.fake_explanation_rate,
        ds.fake_fraction()
    );
}
