//! Poisoned-fit plumbing and the adversarial robustness sweep.
//!
//! The threat model: an [`AttackCampaign`] injects sybil reviews that the
//! platform's filter has *missed*, so the defender trains on the campaign's
//! [label-poisoned view](PoisonedDataset::training_view) — every injected
//! fake reads benign. Evaluation always happens against ground truth on the
//! clean (pre-attack) held-out test set, yielding the AP-degradation /
//! RMSE-poisoning deltas of the Table-IV-style grid.
//!
//! Everything here is a pure function of [`AttackEvalConfig`]: the sweep is
//! bit-identical per seed at every thread count, which is what lets CI diff
//! the emitted grid byte-for-byte against the committed artifact.

use crate::config::RrreConfig;
use crate::eval::{evaluate, JointEvaluation};
use crate::model::{ColdStartPrior, Prediction, Rrre};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrre_data::synth::{generate, AttackCampaign, AttackFamily, PoisonedDataset, SynthConfig};
use rrre_data::{train_test_split, CorpusConfig, Dataset, EncodedCorpus, Label};
use rrre_metrics::{auc, average_precision, GridRow, PoisoningDelta, RobustnessGrid};

/// Full specification of a robustness sweep.
#[derive(Debug, Clone)]
pub struct AttackEvalConfig {
    /// Base (clean) dataset generator configuration.
    pub base: SynthConfig,
    /// Corpus/embedding configuration, shared by every cell.
    pub corpus: CorpusConfig,
    /// Model configuration, shared by every cell.
    pub model: RrreConfig,
    /// Attack families to sweep.
    pub families: Vec<AttackFamily>,
    /// Attack strengths (fraction of the base corpus), swept per family.
    pub strengths: Vec<f64>,
    /// Held-out test fraction of the clean base dataset.
    pub test_frac: f64,
    /// Seed of the train/test split.
    pub split_seed: u64,
    /// Seed of every attack campaign.
    pub campaign_seed: u64,
}

impl AttackEvalConfig {
    /// A CPU-tractable default sweep: the small YelpChi-shaped base, tiny
    /// model, all four families over three strengths.
    pub fn small() -> Self {
        Self {
            base: SynthConfig::yelp_chi().scaled(0.05),
            corpus: CorpusConfig {
                max_len: 12,
                word2vec: rrre_text::Word2VecConfig { dim: 8, epochs: 1, ..Default::default() },
                ..Default::default()
            },
            model: RrreConfig { epochs: 8, ..RrreConfig::tiny() },
            families: AttackFamily::ALL.to_vec(),
            strengths: vec![0.1, 0.25, 0.5],
            test_frac: 0.3,
            split_seed: 0xA77,
            campaign_seed: 0xA77AC4,
        }
    }
}

/// One evaluated cell of the sweep.
///
/// The grid's AP pair is **campaign-detection AP**: ranking reviews by
/// suspicion (`-reliability`), how early do the injected fakes appear among
/// the benign test traffic? `detection_ap_clean` scores the clean-trained
/// model on that set (the defender before the poison landed in training),
/// `detection_ap_poisoned` the model re-trained on the poisoned corpus —
/// the drop between them is the poisoning damage to the reliability head.
#[derive(Debug, Clone)]
pub struct AttackCell {
    /// The campaign this cell ran.
    pub campaign: AttackCampaign,
    /// Number of injected fakes.
    pub n_injected: usize,
    /// The poison-trained model's metrics on the clean test set.
    pub poisoned_eval: JointEvaluation,
    /// Campaign-detection AP of the clean-trained model.
    pub detection_ap_clean: f64,
    /// Campaign-detection AP of the poison-trained model.
    pub detection_ap_poisoned: f64,
    /// ROC-AUC of the poisoned model separating injected fakes from benign
    /// test reviews (how visible the campaign remains after poisoning).
    pub attack_auc: f64,
}

/// Fake-detection AP on `indices`: ranks reviews by descending suspicion
/// (`-reliability`) and scores how early the ground-truth fakes appear.
pub fn fake_detection_ap(
    model: &Rrre,
    ds: &Dataset,
    corpus: &EncodedCorpus,
    indices: &[usize],
) -> f64 {
    let preds = model.predict_reviews(ds, corpus, indices);
    let suspicion: Vec<f32> = preds.iter().map(|p| -p.reliability).collect();
    let is_fake: Vec<bool> =
        indices.iter().map(|&i| ds.reviews[i].label == Label::Fake).collect();
    average_precision(&suspicion, &is_fake)
}

/// Campaign-detection scores of one model: AP of ranking the injected fakes
/// first by suspicion among the benign test reviews, and the matching
/// reliability AUC (benign test vs injected).
///
/// `known_users` is the user-id range the model was trained over. Sybil
/// accounts outside it are invisible to the model's review index; scoring
/// them goes through the cold-start `prior` instead — exactly how the
/// serving tier treats a brand-new account's first posts.
fn campaign_detection(
    model: &Rrre,
    ds: &Dataset,
    corpus: &EncodedCorpus,
    benign_test: &[usize],
    injected: &[usize],
    known_users: usize,
    prior: &ColdStartPrior,
) -> (f64, f64) {
    if benign_test.is_empty() || injected.is_empty() {
        return (0.0, 0.5);
    }
    let mut indices: Vec<usize> = benign_test.to_vec();
    indices.extend_from_slice(injected);
    let preds: Vec<Prediction> = indices
        .iter()
        .map(|&i| {
            let r = &ds.reviews[i];
            if r.user.index() >= known_users {
                Prediction { rating: r.rating, reliability: prior.reliability }
            } else {
                model.predict(corpus, r.user, r.item)
            }
        })
        .collect();
    let rels: Vec<f32> = preds.iter().map(|p| p.reliability).collect();
    let suspicion: Vec<f32> = rels.iter().map(|&r| -r).collect();
    let is_injected: Vec<bool> =
        (0..indices.len()).map(|k| k >= benign_test.len()).collect();
    let is_benign: Vec<bool> = is_injected.iter().map(|&f| !f).collect();
    (average_precision(&suspicion, &is_injected), auc(&rels, &is_benign))
}

/// Trains a model on the campaign's label-poisoned training view.
///
/// `clean_train` are review indices of the *base* dataset (they are stable
/// under injection); the injected reviews are appended to the training set —
/// the attacker's posts always land in the training window, never in the
/// held-out test set.
pub fn fit_on_poisoned(
    poisoned: &PoisonedDataset,
    corpus: &EncodedCorpus,
    clean_train: &[usize],
    cfg: RrreConfig,
) -> Rrre {
    let view = poisoned.training_view();
    let mut train: Vec<usize> = clean_train.to_vec();
    train.extend_from_slice(&poisoned.injected);
    Rrre::fit(&view, corpus, &train, cfg)
}

/// Evaluates a poison-trained model: clean-test metrics plus the AUC that
/// separates the injected fakes from the benign test reviews.
pub fn evaluate_under_attack(
    model: &Rrre,
    poisoned: &PoisonedDataset,
    corpus: &EncodedCorpus,
    clean_test: &[usize],
) -> (JointEvaluation, f64) {
    let ds = &poisoned.dataset;
    let on_clean = evaluate(model, ds, corpus, clean_test);
    // Injected fakes vs benign test reviews, ranked by reliability: a robust
    // model keeps the sybil posts at the bottom even after poisoning.
    let mut indices: Vec<usize> = clean_test
        .iter()
        .copied()
        .filter(|&i| ds.reviews[i].label == Label::Benign)
        .collect();
    let n_benign = indices.len();
    indices.extend_from_slice(&poisoned.injected);
    let attack_auc = if n_benign == 0 || poisoned.injected.is_empty() {
        0.5
    } else {
        let preds = model.predict_reviews(ds, corpus, &indices);
        let rels: Vec<f32> = preds.iter().map(|p| p.reliability).collect();
        let labels: Vec<bool> = (0..indices.len()).map(|k| k < n_benign).collect();
        auc(&rels, &labels)
    };
    (on_clean, attack_auc)
}

/// The clean baseline plus every attack cell, ready for grid assembly.
#[derive(Debug, Clone)]
pub struct RobustnessReport {
    /// Clean-trained model's metrics on the clean test set.
    pub clean_eval: JointEvaluation,
    /// Clean-trained model's fake-detection AP on the clean test set.
    pub clean_ap_fake: f64,
    /// All attack cells, in family-major, strength-minor order.
    pub cells: Vec<AttackCell>,
    /// The base dataset the sweep ran over (for downstream reporting).
    pub base: Dataset,
}

impl RobustnessReport {
    /// Assembles the Table-IV-style grid from the report.
    pub fn grid(&self) -> RobustnessGrid {
        let mut grid = RobustnessGrid::new();
        for cell in &self.cells {
            grid.push(GridRow {
                family: cell.campaign.family.name().to_string(),
                strength: cell.campaign.strength,
                n_injected: cell.n_injected,
                delta: PoisoningDelta {
                    ap_clean: cell.detection_ap_clean,
                    ap_poisoned: cell.detection_ap_poisoned,
                    rmse_clean: self.clean_eval.rmse,
                    rmse_poisoned: cell.poisoned_eval.rmse,
                },
                attack_auc: cell.attack_auc,
            });
        }
        grid
    }
}

/// Runs the full sweep: one clean fit, then one poisoned fit per
/// family × strength cell, each evaluated on the clean test set.
/// Deterministic in `cfg`; `progress` is called once per finished cell
/// (clean baseline first, with `family = "clean"`).
pub fn run_robustness_sweep(
    cfg: &AttackEvalConfig,
    mut progress: impl FnMut(&str, f64),
) -> RobustnessReport {
    let base = generate(&cfg.base);
    let mut rng = StdRng::seed_from_u64(cfg.split_seed);
    let split = train_test_split(&base, cfg.test_frac, &mut rng);

    let clean_corpus = EncodedCorpus::build(&base, &cfg.corpus);
    let clean_model = Rrre::fit(&base, &clean_corpus, &split.train, cfg.model);
    let clean_eval = evaluate(&clean_model, &base, &clean_corpus, &split.test);
    let clean_ap_fake = fake_detection_ap(&clean_model, &base, &clean_corpus, &split.test);
    let prior = ColdStartPrior::calibrate(&base, 3);
    progress("clean", 0.0);

    let benign_test: Vec<usize> = split
        .test
        .iter()
        .copied()
        .filter(|&i| base.reviews[i].label == Label::Benign)
        .collect();

    let mut cells = Vec::with_capacity(cfg.families.len() * cfg.strengths.len());
    for &family in &cfg.families {
        for &strength in &cfg.strengths {
            let campaign = AttackCampaign {
                domain: cfg.base.domain,
                ..AttackCampaign::new(family, strength, cfg.campaign_seed)
            };
            let poisoned = campaign.poison(&base);
            // The encoder pipeline is *pinned* to the clean vocabulary and
            // embeddings, exactly like the serving tier's streaming ingest
            // (the vocab is frozen at train time; streamed-in text is
            // encoded against it). The attacker's reviews are appended as
            // documents under that frozen encoder.
            let mut corpus = clean_corpus.clone();
            for &i in &poisoned.injected {
                corpus.append_doc(&poisoned.dataset.reviews[i].text);
            }
            let model = fit_on_poisoned(&poisoned, &corpus, &split.train, cfg.model);
            let poisoned_eval = evaluate(&model, &poisoned.dataset, &corpus, &split.test);
            // The clean (pre-attack) defender has never seen the sybil
            // accounts: their posts score through the cold-start prior,
            // mirroring how the serving tier gates a new account's first
            // reviews. The poisoned re-fit knows every sybil.
            let (detection_ap_clean, _) = campaign_detection(
                &clean_model,
                &poisoned.dataset,
                &corpus,
                &benign_test,
                &poisoned.injected,
                base.n_users,
                &prior,
            );
            let (detection_ap_poisoned, attack_auc) = campaign_detection(
                &model,
                &poisoned.dataset,
                &corpus,
                &benign_test,
                &poisoned.injected,
                poisoned.dataset.n_users,
                &prior,
            );
            cells.push(AttackCell {
                n_injected: poisoned.n_injected(),
                campaign,
                poisoned_eval,
                detection_ap_clean,
                detection_ap_poisoned,
                attack_auc,
            });
            progress(family.name(), strength);
        }
    }
    RobustnessReport { clean_eval, clean_ap_fake, cells, base }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> AttackEvalConfig {
        AttackEvalConfig {
            base: SynthConfig::yelp_chi().scaled(0.05),
            model: RrreConfig { epochs: 2, ..RrreConfig::tiny() },
            families: vec![AttackFamily::Burst],
            strengths: vec![0.2],
            ..AttackEvalConfig::small()
        }
    }

    #[test]
    fn sweep_is_deterministic_and_grid_shaped() {
        let cfg = tiny_cfg();
        let a = run_robustness_sweep(&cfg, |_, _| {});
        let b = run_robustness_sweep(&cfg, |_, _| {});
        assert_eq!(a.grid().to_csv(), b.grid().to_csv());
        assert_eq!(a.cells.len(), 1);
        let csv = a.grid().to_csv();
        assert!(csv.starts_with(RobustnessGrid::CSV_HEADER));
        assert_eq!(csv.lines().count(), 2);
        let cell = &a.cells[0];
        assert!(cell.n_injected > 0);
        assert!((0.0..=1.0).contains(&cell.attack_auc));
        assert!(cell.poisoned_eval.rmse.is_finite());
    }

    #[test]
    fn poisoned_fit_trains_on_masked_labels_but_reports_ground_truth() {
        let cfg = tiny_cfg();
        let base = generate(&cfg.base);
        let campaign = AttackCampaign::new(AttackFamily::TemplateMutation, 0.3, 7);
        let poisoned = campaign.poison(&base);
        let corpus = EncodedCorpus::build(&poisoned.dataset, &cfg.corpus);
        let train: Vec<usize> = (0..base.len()).collect();
        let model = fit_on_poisoned(&poisoned, &corpus, &train, cfg.model);
        let (eval, attack_auc) =
            evaluate_under_attack(&model, &poisoned, &corpus, &[0, 1, 2, 3]);
        assert_eq!(eval.n, 4);
        assert!((0.0..=1.0).contains(&attack_auc));
    }
}
