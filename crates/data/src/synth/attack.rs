//! Adversarial fraud-campaign generator.
//!
//! [`AttackCampaign`] turns a clean base dataset into a *poisoned* one by
//! injecting a coordinated ring of sybil accounts, following the attack
//! families of the shilling-attack literature (fake-review generation that
//! shifts review-based recommenders, arXiv 2306.16526) and the opinion-fraud
//! literature (human/computer fraud with text mimicry, arXiv 2301.03025):
//!
//! * **Template mutation** — each target is blasted with instantiations of
//!   one seed template whose slots are mutated per review, the signature of
//!   cheap computer-generated fraud: high surface self-similarity inside a
//!   campaign, spam-lexicon-heavy text.
//! * **Rating ramp** — the campaign's star ratings drift from plausible
//!   mid-scale to the extreme over time (nuke/push), evading per-day rating
//!   deviation detectors that key on a sudden jump.
//! * **Burst** — every fake lands inside a tight time window on its target,
//!   the classic review-bomb shape.
//! * **Mimicry** — review length is drawn from the target corpus's empirical
//!   benign length distribution and words from a benign/spam mixture whose
//!   KL divergence from the benign unigram distribution stays under a
//!   configurable budget — statistically camouflaged opinion fraud.
//!
//! Everything is a pure function of the campaign spec: the same seed yields
//! a bit-identical poisoned corpus in any process, and disjoint seeds yield
//! disjoint fake-review uids.

use crate::synth::textgen::{
    self, aspects_for, fake_text, Domain, FraudDirection, DEMOTE_SPAM_WORDS, FILLER_WORDS,
    NEGATIVE_WORDS, POSITIVE_WORDS, PROMOTE_SPAM_WORDS,
};
use crate::types::{ItemId, Label, Review, UserId};
use crate::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// An attack family from the shilling / opinion-fraud literature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackFamily {
    /// Template-mutation fake text: one seed template per target, slots
    /// mutated per instantiation.
    TemplateMutation,
    /// Rating-bias ramp: stars drift from mid-scale to the extreme over the
    /// campaign (nuke/push).
    RatingRamp,
    /// Burst scheduling: all fakes inside a tight window on each target.
    Burst,
    /// Benign-statistics mimicry: length/vocab matched to the target corpus
    /// within a KL budget.
    Mimicry,
}

impl AttackFamily {
    /// All families, in grid order.
    pub const ALL: [AttackFamily; 4] = [
        AttackFamily::TemplateMutation,
        AttackFamily::RatingRamp,
        AttackFamily::Burst,
        AttackFamily::Mimicry,
    ];

    /// Stable lowercase name (CSV column / CLI value).
    pub fn name(self) -> &'static str {
        match self {
            AttackFamily::TemplateMutation => "template",
            AttackFamily::RatingRamp => "ramp",
            AttackFamily::Burst => "burst",
            AttackFamily::Mimicry => "mimicry",
        }
    }

    /// Parses a CLI value produced by [`AttackFamily::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|f| f.name() == s)
    }
}

/// A seeded, fully-deterministic fraud-campaign specification.
///
/// `strength` is the injected-fake budget as a fraction of the base corpus
/// size; all other knobs shape how the budget is spent. Two campaigns with
/// the same spec produce bit-identical reviews; see the module docs for the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct AttackCampaign {
    /// Attack family (text/rating/schedule shape).
    pub family: AttackFamily,
    /// Injected fakes as a fraction of the base corpus review count.
    pub strength: f64,
    /// Number of target items the budget is spread over.
    pub n_targets: usize,
    /// Fake reviews per sybil account (capped at `n_targets` so every
    /// `(sybil, item)` pair stays unique).
    pub reviews_per_sybil: usize,
    /// Burst window in days (the `Burst` family's schedule width).
    pub burst_window_days: i64,
    /// Max KL divergence (nats) between the mimicry word mixture and the
    /// benign unigram distribution.
    pub kl_budget: f64,
    /// Aspect lexicon the fake text draws from.
    pub domain: Domain,
    /// Campaign seed: the single source of randomness.
    pub seed: u64,
}

impl AttackCampaign {
    /// A campaign with the default shape knobs.
    pub fn new(family: AttackFamily, strength: f64, seed: u64) -> Self {
        Self {
            family,
            strength,
            n_targets: 6,
            reviews_per_sybil: 4,
            burst_window_days: 2,
            kl_budget: 0.25,
            domain: Domain::Restaurant,
            seed,
        }
    }

    /// The same campaign over a different aspect lexicon.
    pub fn with_domain(mut self, domain: Domain) -> Self {
        self.domain = domain;
        self
    }

    /// Stable 64-bit uid of the `k`-th fake review of this campaign.
    /// Distinct `k` always yield distinct uids (splitmix64 is a bijection);
    /// campaigns with different seeds occupy pseudo-random disjoint ranges.
    pub fn review_uid(&self, k: usize) -> u64 {
        splitmix64(splitmix64(self.seed) ^ (k as u64))
    }

    /// Number of fakes a campaign of this strength injects into `base`.
    pub fn budget(&self, base: &Dataset) -> usize {
        ((base.len() as f64) * self.strength.max(0.0)).round() as usize
    }

    /// Generates the campaign's fake reviews against `base`. Deterministic
    /// in the spec; returns an empty vector when the budget rounds to zero.
    pub fn generate(&self, base: &Dataset) -> Vec<AttackReview> {
        let n_fake = self.budget(base);
        if n_fake == 0 || base.is_empty() || base.n_items == 0 {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let plan = self.plan_targets(base, &mut rng);
        let rps = self.reviews_per_sybil.clamp(1, plan.targets.len());
        let n_sybils = n_fake.div_ceil(rps);

        let mimicry = if self.family == AttackFamily::Mimicry {
            Some(MimicryProfile::fit(base, self.kl_budget))
        } else {
            None
        };

        let per_target = n_fake.div_ceil(plan.targets.len());
        let mut out = Vec::with_capacity(n_fake);
        for k in 0..n_fake {
            let t = k % plan.targets.len();
            let j = k / plan.targets.len(); // position within the target's campaign
            let target = &plan.targets[t];
            let rating = self.rating(target.direction, j, per_target, &mut rng);
            let timestamp = self.schedule(target.start_day, j, per_target, &mut rng);
            let text = match (&mimicry, self.family) {
                (Some(profile), _) => profile.text(target.direction, &mut rng),
                (None, AttackFamily::TemplateMutation) => {
                    template_text(&mut rng, target.direction, t, &target.aspects)
                }
                _ => fake_text(&mut rng, target.direction, &target.aspects),
            };
            out.push(AttackReview {
                uid: self.review_uid(k),
                sybil: (k / rps) as u32,
                item: target.item,
                rating,
                timestamp,
                text,
            });
        }
        debug_assert!(out.iter().map(|r| r.sybil).max().unwrap() < n_sybils as u32);
        out
    }

    /// Injects the campaign into `base`: sybil accounts are appended to the
    /// user id space and every fake keeps its ground-truth [`Label::Fake`].
    /// Base review indices are preserved (fakes are appended after them).
    pub fn poison(&self, base: &Dataset) -> PoisonedDataset {
        let fakes = self.generate(base);
        let n_sybils = fakes.iter().map(|f| f.sybil as usize + 1).max().unwrap_or(0);
        let sybil_base = base.n_users as u32;
        let mut reviews = base.reviews.clone();
        let mut injected = Vec::with_capacity(fakes.len());
        for f in &fakes {
            injected.push(reviews.len());
            reviews.push(Review {
                user: UserId(sybil_base + f.sybil),
                item: f.item,
                rating: f.rating,
                label: Label::Fake,
                timestamp: f.timestamp,
                text: f.text.clone(),
            });
        }
        let name = format!("{}+{}x{:.2}", base.name, self.family.name(), self.strength);
        let mut dataset = Dataset::new(name, base.n_users + n_sybils, base.n_items, reviews);
        dataset.item_names = base.item_names.clone();
        if !base.user_names.is_empty() {
            dataset.user_names = base.user_names.clone();
            dataset.user_names.extend((0..n_sybils).map(|s| format!("sybil-{s:05}")));
        }
        PoisonedDataset {
            dataset,
            injected,
            sybil_users: sybil_base..sybil_base + n_sybils as u32,
            campaign: self.clone(),
        }
    }

    /// Streams the campaign into a *fixed* id space — the serving tier's
    /// ingest path cannot mint users (embedding tables are sized at train
    /// time), so sybils squat the tail of the existing user id space and
    /// targets are drawn from the existing items. Deterministic in the spec;
    /// `count` reviews, labelled fake, day-indexed timestamps from 0.
    ///
    /// Mimicry has no reference corpus online, so its stream approximates
    /// the benign distribution from the benign lexicons instead.
    pub fn stream(&self, n_users: usize, n_items: usize, count: usize) -> Vec<Review> {
        assert!(n_users > 0 && n_items > 0, "stream needs a non-empty id space");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let aspects = aspects_for(self.domain);
        let n_targets = self.n_targets.clamp(1, n_items);
        let targets: Vec<u32> = sample_without_replacement(n_items, n_targets, &mut rng);
        let directions: Vec<FraudDirection> = (0..n_targets)
            .map(|_| if rng.gen::<bool>() { FraudDirection::Promote } else { FraudDirection::Demote })
            .collect();
        let rps = self.reviews_per_sybil.clamp(1, n_targets);
        let n_sybils = count.div_ceil(rps).min(n_users);
        let per_target = count.div_ceil(n_targets);
        let target_aspects: Vec<Vec<&str>> =
            (0..n_targets).map(|_| pick_aspects(aspects, &mut rng)).collect();
        (0..count)
            .map(|k| {
                let t = k % n_targets;
                let j = k / n_targets;
                let direction = directions[t];
                let rating = self.rating(direction, j, per_target, &mut rng);
                let timestamp = self.schedule(0, j, per_target, &mut rng);
                let text = match self.family {
                    AttackFamily::TemplateMutation => {
                        template_text(&mut rng, direction, t, &target_aspects[t])
                    }
                    AttackFamily::Mimicry => {
                        lexical_mimic_text(&mut rng, direction, &target_aspects[t])
                    }
                    _ => fake_text(&mut rng, direction, &target_aspects[t]),
                };
                Review {
                    user: UserId((n_users - 1 - (k / rps) % n_sybils) as u32),
                    item: ItemId(targets[t]),
                    rating,
                    label: Label::Fake,
                    timestamp,
                    text,
                }
            })
            .collect()
    }

    /// The spam mixing rate the mimicry family settles on for `base` under
    /// this campaign's KL budget (diagnostic; used by tests and docs).
    pub fn mimicry_mixing_rate(&self, base: &Dataset) -> f64 {
        MimicryProfile::fit(base, self.kl_budget).eps
    }

    /// Star rating of the `j`-th of `m` fakes on one target.
    fn rating(&self, direction: FraudDirection, j: usize, m: usize, rng: &mut StdRng) -> f32 {
        let extreme = |p: f32, rng: &mut StdRng| -> f32 {
            let hit = rng.gen::<f32>() < p;
            match (direction, hit) {
                (FraudDirection::Promote, true) => 5.0,
                (FraudDirection::Promote, false) => 4.0,
                (FraudDirection::Demote, true) => 1.0,
                (FraudDirection::Demote, false) => 2.0,
            }
        };
        match self.family {
            // The ramp walks the star scale from neutral to the extreme as
            // the campaign progresses.
            AttackFamily::RatingRamp => {
                let frac = if m <= 1 { 1.0 } else { j as f32 / (m - 1) as f32 };
                let step = (frac * 2.0).round(); // 0, 1 or 2 stars past neutral
                match direction {
                    FraudDirection::Promote => 3.0 + step,
                    FraudDirection::Demote => 3.0 - step,
                }
            }
            // Mimicry copies the subtle rating habit of ordinary fraud.
            AttackFamily::Mimicry => {
                let roll: f32 = rng.gen();
                let p = if roll < 0.5 { 1.0 } else { 0.0 };
                if roll < 0.9 {
                    extreme(p, rng)
                } else {
                    3.0
                }
            }
            _ => extreme(0.85, rng),
        }
    }

    /// Day-indexed timestamp of the `j`-th of `m` fakes on a target whose
    /// campaign starts at `start_day`.
    fn schedule(&self, start_day: i64, j: usize, m: usize, rng: &mut StdRng) -> i64 {
        let window = match self.family {
            AttackFamily::Burst => self.burst_window_days.max(1),
            AttackFamily::TemplateMutation => 30,
            AttackFamily::RatingRamp => 60,
            AttackFamily::Mimicry => 45,
        };
        match self.family {
            // The ramp is a *schedule*: position j maps monotonically onto
            // the window so rating and time drift together.
            AttackFamily::RatingRamp => {
                let stride = (window / m.max(1) as i64).max(1);
                start_day + j as i64 * stride + rng.gen_range(0..stride.clamp(1, 3))
            }
            _ => start_day + rng.gen_range(0..window),
        }
    }

    /// Picks targets (degree-weighted, without replacement), their campaign
    /// direction (demote good items, promote bad — the profitable plays) and
    /// start day, and a small aspect lexicon per target.
    fn plan_targets(&self, base: &Dataset, rng: &mut StdRng) -> TargetPlan {
        let mut degree = vec![0usize; base.n_items];
        let mut rating_sum = vec![0f64; base.n_items];
        let (mut t_min, mut t_max) = (i64::MAX, i64::MIN);
        for r in &base.reviews {
            degree[r.item.index()] += 1;
            rating_sum[r.item.index()] += r.rating as f64;
            t_min = t_min.min(r.timestamp);
            t_max = t_max.max(r.timestamp);
        }
        let global_mean = base.reviews.iter().map(|r| r.rating as f64).sum::<f64>()
            / base.len().max(1) as f64;
        let n_targets = self.n_targets.clamp(1, base.n_items);
        let mut weights: Vec<f64> = degree.iter().map(|&d| d as f64).collect();
        let aspects = aspects_for(self.domain);
        let targets = (0..n_targets)
            .map(|_| {
                let idx = weighted_draw(&mut weights, rng);
                let mean = rating_sum[idx] / degree[idx].max(1) as f64;
                let direction = if mean >= global_mean {
                    FraudDirection::Demote
                } else {
                    FraudDirection::Promote
                };
                let span = (t_max - t_min).max(1);
                Target {
                    item: ItemId(idx as u32),
                    direction,
                    start_day: t_min + rng.gen_range(0..span),
                    aspects: pick_aspects(aspects, rng),
                }
            })
            .collect();
        TargetPlan { targets }
    }
}

/// One generated fake review, before injection into a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackReview {
    /// Campaign-stable uid (see [`AttackCampaign::review_uid`]).
    pub uid: u64,
    /// Sybil account index within the campaign (`0..n_sybils`).
    pub sybil: u32,
    /// Target item (an existing item of the base dataset).
    pub item: ItemId,
    /// Fraudulent star rating.
    pub rating: f32,
    /// Day-indexed timestamp.
    pub timestamp: i64,
    /// Fake review text.
    pub text: String,
}

/// A base dataset with an injected campaign: ground truth plus the view the
/// defender actually trains on.
#[derive(Debug, Clone)]
pub struct PoisonedDataset {
    /// Base + injected reviews; injected reviews keep [`Label::Fake`]
    /// (ground truth). Base review indices are unchanged.
    pub dataset: Dataset,
    /// Indices of the injected reviews within [`PoisonedDataset::dataset`].
    pub injected: Vec<usize>,
    /// The user ids minted for the campaign's sybil accounts.
    pub sybil_users: std::ops::Range<u32>,
    /// The spec that produced this dataset.
    pub campaign: AttackCampaign,
}

impl PoisonedDataset {
    /// Number of injected fakes.
    pub fn n_injected(&self) -> usize {
        self.injected.len()
    }

    /// The label-poisoned *training view*: identical reviews, but every
    /// injected fake reads [`Label::Benign`] — the attacker has evaded the
    /// platform's filter, so the defender trains on corrupted supervision.
    /// Evaluation must use [`PoisonedDataset::dataset`] (ground truth).
    pub fn training_view(&self) -> Dataset {
        let mut view = self.dataset.clone();
        for &i in &self.injected {
            view.reviews[i].label = Label::Benign;
        }
        view
    }
}

struct Target {
    item: ItemId,
    direction: FraudDirection,
    start_day: i64,
    aspects: Vec<&'static str>,
}

struct TargetPlan {
    targets: Vec<Target>,
}

/// Benign length/vocab statistics of a corpus plus the spam mixing rate the
/// KL budget admits. Words are sampled from
/// `(1 - eps) * benign_unigram + eps * uniform(spam)` with the largest `eps`
/// whose divergence from the (smoothed) benign distribution fits the budget.
struct MimicryProfile {
    lengths: Vec<usize>,
    words: Vec<String>,
    cumulative: Vec<f64>,
    eps: f64,
}

/// Candidate spam mixing rates, largest first.
const EPS_LADDER: [f64; 12] = [0.40, 0.35, 0.30, 0.25, 0.20, 0.15, 0.10, 0.07, 0.05, 0.03, 0.02, 0.01];

/// Benign vocabulary support size for the mimicry distribution.
const MIMICRY_VOCAB: usize = 300;

impl MimicryProfile {
    fn fit(base: &Dataset, kl_budget: f64) -> Self {
        let mut counts: HashMap<String, u64> = HashMap::new();
        let mut lengths = Vec::new();
        for r in base.reviews.iter().filter(|r| r.label == Label::Benign) {
            let tokens = rrre_text::tokenize(&r.text);
            if tokens.is_empty() {
                continue;
            }
            lengths.push(tokens.len());
            for t in tokens {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        if lengths.is_empty() {
            // Degenerate base (no benign text): fall back to the lexicons.
            lengths.push(20);
            for w in FILLER_WORDS.iter().chain(POSITIVE_WORDS).chain(NEGATIVE_WORDS) {
                counts.insert((*w).to_string(), 1);
            }
        }
        // Deterministic top-K support: count desc, word asc.
        let mut ranked: Vec<(String, u64)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(MIMICRY_VOCAB);
        let benign_total: u64 = ranked.iter().map(|(_, c)| c).sum();
        let benign_probs: Vec<f64> =
            ranked.iter().map(|(_, c)| *c as f64 / benign_total as f64).collect();

        // Both spam lexicons form the attack half of the mixture; the KL is
        // computed against an add-λ smoothed benign distribution over the
        // union support (raw benign assigns spam words probability zero,
        // which would make every mixture infinitely detectable).
        let spam: Vec<&str> = PROMOTE_SPAM_WORDS
            .iter()
            .chain(DEMOTE_SPAM_WORDS)
            .copied()
            .filter(|w| !ranked.iter().any(|(b, _)| b == w))
            .collect();
        let support = ranked.len() + spam.len();
        let lambda = 0.1;
        let smoothed_total = benign_total as f64 + lambda * support as f64;
        let q: Vec<f64> = ranked
            .iter()
            .map(|(_, c)| (*c as f64 + lambda) / smoothed_total)
            .chain(spam.iter().map(|_| lambda / smoothed_total))
            .collect();
        let spam_share = 1.0 / spam.len().max(1) as f64;
        let kl_of = |eps: f64| -> f64 {
            let mut kl = 0.0;
            for (i, &qi) in q.iter().enumerate() {
                let p = if i < benign_probs.len() {
                    (1.0 - eps) * benign_probs[i]
                } else {
                    eps * spam_share
                };
                if p > 0.0 {
                    kl += p * (p / qi).ln();
                }
            }
            kl
        };
        let eps = EPS_LADDER
            .into_iter()
            .find(|&e| kl_of(e) <= kl_budget)
            .unwrap_or(EPS_LADDER[EPS_LADDER.len() - 1]);

        let mut words: Vec<String> = ranked.into_iter().map(|(w, _)| w).collect();
        let mut cumulative = Vec::with_capacity(words.len());
        let mut acc = 0.0;
        for p in &benign_probs {
            acc += p;
            cumulative.push(acc);
        }
        words.extend(spam.iter().map(|w| (*w).to_string()));
        Self { lengths, words, cumulative, eps }
    }

    /// Samples one mimicry review. The direction only gates which spam
    /// lexicon half is drawn from when a spam slot comes up.
    fn text(&self, direction: FraudDirection, rng: &mut StdRng) -> String {
        let n_benign = self.cumulative.len();
        let spam_words = &self.words[n_benign..];
        let directional: Vec<&String> = spam_words
            .iter()
            .filter(|w| {
                let w: &str = w;
                match direction {
                    FraudDirection::Promote => PROMOTE_SPAM_WORDS.contains(&w),
                    FraudDirection::Demote => DEMOTE_SPAM_WORDS.contains(&w),
                }
            })
            .collect();
        let len = self.lengths[rng.gen_range(0..self.lengths.len())];
        let mut out: Vec<&str> = Vec::with_capacity(len);
        for _ in 0..len {
            if rng.gen::<f64>() < self.eps && !directional.is_empty() {
                out.push(directional[rng.gen_range(0..directional.len())]);
            } else {
                let roll: f64 = rng.gen();
                let idx = self.cumulative.partition_point(|&c| c < roll).min(n_benign - 1);
                out.push(&self.words[idx]);
            }
        }
        out.join(" ")
    }
}

/// A text-template slot: either a fixed word or a lexicon draw.
enum Slot {
    Fixed(&'static str),
    Spam,
    Aspect,
    Sentiment,
    Filler,
}

/// Seed templates for the template-mutation family. Each target's campaign
/// sticks to one template, so instantiations share most of their surface —
/// the within-campaign self-similarity signature of computer-generated spam.
const TEMPLATES: [&[Slot]; 4] = [
    &[
        Slot::Fixed("honestly"), Slot::Fixed("the"), Slot::Aspect, Slot::Fixed("was"),
        Slot::Sentiment, Slot::Spam, Slot::Spam, Slot::Fixed("would"), Slot::Filler,
        Slot::Fixed("again"), Slot::Fixed("the"), Slot::Aspect, Slot::Sentiment,
        Slot::Spam, Slot::Fixed("overall"), Slot::Sentiment,
    ],
    &[
        Slot::Spam, Slot::Spam, Slot::Fixed("the"), Slot::Aspect, Slot::Fixed("here"),
        Slot::Fixed("was"), Slot::Sentiment, Slot::Fixed("and"), Slot::Fixed("the"),
        Slot::Aspect, Slot::Fixed("was"), Slot::Sentiment, Slot::Filler, Slot::Spam,
        Slot::Fixed("trust"), Slot::Fixed("me"), Slot::Filler, Slot::Spam,
    ],
    &[
        Slot::Fixed("came"), Slot::Fixed("here"), Slot::Fixed("last"), Slot::Fixed("week"),
        Slot::Fixed("and"), Slot::Fixed("the"), Slot::Aspect, Slot::Fixed("was"),
        Slot::Spam, Slot::Sentiment, Slot::Spam, Slot::Fixed("definitely"), Slot::Spam,
        Slot::Filler, Slot::Aspect, Slot::Sentiment, Slot::Spam,
    ],
    &[
        Slot::Fixed("the"), Slot::Aspect, Slot::Fixed("and"), Slot::Fixed("the"),
        Slot::Aspect, Slot::Fixed("were"), Slot::Sentiment, Slot::Spam, Slot::Spam,
        Slot::Fixed("everyone"), Slot::Fixed("must"), Slot::Filler, Slot::Spam,
        Slot::Sentiment, Slot::Fixed("overall"), Slot::Spam, Slot::Filler,
    ],
];

/// Instantiates the `t`-th target's template, mutating lexicon slots.
fn template_text(
    rng: &mut StdRng,
    direction: FraudDirection,
    t: usize,
    aspects: &[&str],
) -> String {
    let spam: &[&str] = match direction {
        FraudDirection::Promote => PROMOTE_SPAM_WORDS,
        FraudDirection::Demote => DEMOTE_SPAM_WORDS,
    };
    let sentiment: &[&str] = match direction {
        FraudDirection::Promote => POSITIVE_WORDS,
        FraudDirection::Demote => NEGATIVE_WORDS,
    };
    let template = TEMPLATES[t % TEMPLATES.len()];
    let words: Vec<&str> = template
        .iter()
        .map(|slot| match slot {
            Slot::Fixed(w) => *w,
            Slot::Spam => spam[rng.gen_range(0..spam.len())],
            Slot::Aspect if !aspects.is_empty() => aspects[rng.gen_range(0..aspects.len())],
            Slot::Aspect => FILLER_WORDS[rng.gen_range(0..FILLER_WORDS.len())],
            Slot::Sentiment => sentiment[rng.gen_range(0..sentiment.len())],
            Slot::Filler => FILLER_WORDS[rng.gen_range(0..FILLER_WORDS.len())],
        })
        .collect();
    words.join(" ")
}

/// Streaming-path mimicry without a reference corpus: benign-style text with
/// a low spam mixing rate (approximates the offline profile's lexical shape).
fn lexical_mimic_text(rng: &mut StdRng, direction: FraudDirection, aspects: &[&str]) -> String {
    let spam: &[&str] = match direction {
        FraudDirection::Promote => PROMOTE_SPAM_WORDS,
        FraudDirection::Demote => DEMOTE_SPAM_WORDS,
    };
    let base = textgen::benign_text(
        rng,
        aspects,
        match direction {
            FraudDirection::Promote => 5.0,
            FraudDirection::Demote => 1.0,
        },
    );
    base.split(' ')
        .map(|w| if rng.gen::<f64>() < 0.08 { spam[rng.gen_range(0..spam.len())] } else { w })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Picks three distinct-ish aspect words for a target.
fn pick_aspects(pool: &[&'static str], rng: &mut StdRng) -> Vec<&'static str> {
    (0..3).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
}

/// One weighted draw without replacement: zeroes the drawn weight.
fn weighted_draw(weights: &mut [f64], rng: &mut StdRng) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        // All mass spent: fall back to the first non-drawn slot deterministically.
        return weights.iter().position(|&w| w >= 0.0).unwrap_or(0);
    }
    let mut roll = rng.gen::<f64>() * total;
    let mut picked = weights.len() - 1;
    for (i, &w) in weights.iter().enumerate() {
        roll -= w;
        if roll <= 0.0 && w > 0.0 {
            picked = i;
            break;
        }
    }
    weights[picked] = 0.0;
    picked
}

/// Uniform sample of `k` distinct ids out of `0..n` (k ≤ n).
fn sample_without_replacement(n: usize, k: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n as u32).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        ids.swap(i, j);
    }
    ids.truncate(k);
    ids
}

/// SplitMix64 finaliser: a bijective 64-bit mixer.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, SynthConfig};

    fn base() -> Dataset {
        generate(&SynthConfig::yelp_chi().scaled(0.05))
    }

    #[test]
    fn generate_is_deterministic() {
        let ds = base();
        let c = AttackCampaign::new(AttackFamily::Burst, 0.2, 7);
        assert_eq!(c.generate(&ds), c.generate(&ds));
    }

    #[test]
    fn budget_scales_with_strength() {
        let ds = base();
        for family in AttackFamily::ALL {
            let weak = AttackCampaign::new(family, 0.1, 3).generate(&ds);
            let strong = AttackCampaign::new(family, 0.4, 3).generate(&ds);
            assert_eq!(weak.len(), (ds.len() as f64 * 0.1).round() as usize);
            assert_eq!(strong.len(), (ds.len() as f64 * 0.4).round() as usize);
        }
    }

    #[test]
    fn poison_appends_and_labels_fake() {
        let ds = base();
        let p = AttackCampaign::new(AttackFamily::TemplateMutation, 0.15, 11).poison(&ds);
        assert_eq!(p.dataset.len(), ds.len() + p.n_injected());
        // Base reviews keep their indices and labels.
        for (i, r) in ds.reviews.iter().enumerate() {
            assert_eq!(p.dataset.reviews[i].text, r.text);
            assert_eq!(p.dataset.reviews[i].label, r.label);
        }
        for &i in &p.injected {
            assert_eq!(p.dataset.reviews[i].label, Label::Fake);
            assert!(p.sybil_users.contains(&p.dataset.reviews[i].user.0));
        }
        assert!(p.dataset.n_users > ds.n_users);
        assert_eq!(p.dataset.user_names.len(), p.dataset.n_users);
    }

    #[test]
    fn training_view_masks_only_injected_labels() {
        let ds = base();
        let p = AttackCampaign::new(AttackFamily::RatingRamp, 0.1, 5).poison(&ds);
        let view = p.training_view();
        assert_eq!(view.len(), p.dataset.len());
        for &i in &p.injected {
            assert_eq!(view.reviews[i].label, Label::Benign, "poisoned label");
            assert_eq!(view.reviews[i].text, p.dataset.reviews[i].text);
        }
        let flipped = view
            .reviews
            .iter()
            .zip(&p.dataset.reviews)
            .filter(|(a, b)| a.label != b.label)
            .count();
        assert_eq!(flipped, p.n_injected());
    }

    #[test]
    fn sybil_item_pairs_are_unique() {
        let ds = base();
        for family in AttackFamily::ALL {
            let p = AttackCampaign::new(family, 0.3, 23).poison(&ds);
            let mut pairs: Vec<(u32, u32)> = p
                .injected
                .iter()
                .map(|&i| (p.dataset.reviews[i].user.0, p.dataset.reviews[i].item.0))
                .collect();
            pairs.sort_unstable();
            let n = pairs.len();
            pairs.dedup();
            assert_eq!(pairs.len(), n, "{family:?}: duplicate (sybil, item) pair");
        }
    }

    #[test]
    fn burst_family_is_tightly_scheduled() {
        let ds = base();
        let c = AttackCampaign::new(AttackFamily::Burst, 0.2, 13);
        let fakes = c.generate(&ds);
        // Group by item: every target's campaign spans at most the window.
        let mut by_item: HashMap<u32, (i64, i64)> = HashMap::new();
        for f in &fakes {
            let e = by_item.entry(f.item.0).or_insert((i64::MAX, i64::MIN));
            e.0 = e.0.min(f.timestamp);
            e.1 = e.1.max(f.timestamp);
        }
        for (item, (lo, hi)) in by_item {
            assert!(hi - lo < c.burst_window_days, "item {item} spans {}", hi - lo);
        }
    }

    #[test]
    fn ramp_family_ratings_drift_toward_extreme() {
        let ds = base();
        let fakes = AttackCampaign::new(AttackFamily::RatingRamp, 0.3, 17).generate(&ds);
        let mut by_item: HashMap<u32, Vec<(i64, f32)>> = HashMap::new();
        for f in &fakes {
            by_item.entry(f.item.0).or_default().push((f.timestamp, f.rating));
        }
        let mut drifts = 0usize;
        let mut total = 0usize;
        for (_, mut seq) in by_item {
            if seq.len() < 4 {
                continue;
            }
            seq.sort_by_key(|&(t, _)| t);
            let early = (seq[0].1 - 3.0).abs();
            let late = (seq[seq.len() - 1].1 - 3.0).abs();
            total += 1;
            if late > early {
                drifts += 1;
            }
        }
        assert!(total > 0);
        assert!(drifts * 2 > total, "ramp drifted on only {drifts}/{total} targets");
    }

    #[test]
    fn mimicry_respects_kl_budget_via_mixing_rate() {
        let ds = base();
        let tight = AttackCampaign {
            kl_budget: 0.02,
            ..AttackCampaign::new(AttackFamily::Mimicry, 0.1, 19)
        };
        let loose = AttackCampaign {
            kl_budget: 1.0,
            ..AttackCampaign::new(AttackFamily::Mimicry, 0.1, 19)
        };
        let (e_tight, e_loose) =
            (tight.mimicry_mixing_rate(&ds), loose.mimicry_mixing_rate(&ds));
        assert!(e_tight < e_loose, "tight {e_tight} vs loose {e_loose}");
        assert!(e_tight <= 0.1, "tight budget must force a low mixing rate, got {e_tight}");
    }

    #[test]
    fn mimicry_lengths_match_benign_range() {
        let ds = base();
        let fakes = AttackCampaign::new(AttackFamily::Mimicry, 0.2, 29).generate(&ds);
        // Benign generator emits 15–40 words; mimicry resamples those lengths.
        for f in &fakes {
            let n = f.text.split(' ').count();
            assert!((15..40).contains(&n), "mimicry length {n} outside the benign range");
        }
    }

    #[test]
    fn template_family_is_self_similar_within_target() {
        let ds = base();
        let fakes = AttackCampaign::new(AttackFamily::TemplateMutation, 0.2, 31).generate(&ds);
        let mut by_item: HashMap<u32, Vec<&str>> = HashMap::new();
        for f in &fakes {
            by_item.entry(f.item.0).or_default().push(&f.text);
        }
        for (_, texts) in by_item.iter().filter(|(_, t)| t.len() >= 2) {
            // All instantiations of one target share the template length.
            let n0 = texts[0].split(' ').count();
            assert!(texts.iter().all(|t| t.split(' ').count() == n0));
        }
    }

    #[test]
    fn disjoint_seeds_yield_disjoint_uids() {
        let ds = base();
        let a = AttackCampaign::new(AttackFamily::Burst, 0.2, 1).generate(&ds);
        let b = AttackCampaign::new(AttackFamily::Burst, 0.2, 2).generate(&ds);
        let ids_a: std::collections::HashSet<u64> = a.iter().map(|r| r.uid).collect();
        assert_eq!(ids_a.len(), a.len(), "uids must be unique within a campaign");
        assert!(b.iter().all(|r| !ids_a.contains(&r.uid)));
    }

    #[test]
    fn stream_stays_inside_the_id_space() {
        let c = AttackCampaign::new(AttackFamily::Burst, 0.2, 41);
        for family in AttackFamily::ALL {
            let c = AttackCampaign { family, ..c.clone() };
            let reviews = c.stream(10, 5, 30);
            assert_eq!(reviews.len(), 30);
            for r in &reviews {
                assert!(r.user.index() < 10);
                assert!(r.item.index() < 5);
                assert!((1.0..=5.0).contains(&r.rating));
                assert_eq!(r.label, Label::Fake);
                assert!(!r.text.is_empty());
            }
            assert_eq!(reviews, c.stream(10, 5, 30), "stream must be deterministic");
        }
    }

    #[test]
    fn zero_strength_is_a_no_op() {
        let ds = base();
        let p = AttackCampaign::new(AttackFamily::Mimicry, 0.0, 43).poison(&ds);
        assert_eq!(p.n_injected(), 0);
        assert_eq!(p.dataset.len(), ds.len());
        assert_eq!(p.dataset.n_users, ds.n_users);
    }
}
