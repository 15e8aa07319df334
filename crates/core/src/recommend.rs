//! Recommendation and reliable-explanation generation (paper §III-B and the
//! §IV-F case study).
//!
//! For a user: score every item, keep the top-𝒦 by predicted rating as the
//! candidate set, then re-rank the candidates by predicted reliability.
//! For a recommended item: score the reviews written to it, keep the top-𝒦
//! by rating, re-rank by reliability, and surface the texts — filtering
//! low-reliability reviews exactly as Table VIII's case study does.
//!
//! The procedure is written once, in [`recommend_with`] / [`explain_with`],
//! over a per-pair scoring closure. [`recommend`] / [`explain`] pass
//! [`Rrre::predict`]; the serving engine passes its cached, prior-gated
//! scorer and its shard's slice of the catalog.

use crate::model::{Prediction, Rrre};
use rrre_data::{Dataset, DatasetIndex, EncodedCorpus, ItemId, UserId};

/// One recommended item with its scores.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Recommended item.
    pub item: ItemId,
    /// Display name of the item.
    pub item_name: String,
    /// Predicted rating `r̂`.
    pub rating: f32,
    /// Predicted reliability `l̂`.
    pub reliability: f32,
}

/// One explanation review for a recommended item.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Index of the review in `dataset.reviews`.
    pub review_idx: usize,
    /// Authoring user.
    pub user: UserId,
    /// Display name of the author.
    pub user_name: String,
    /// Review text shown to the customer.
    pub text: String,
    /// Predicted rating of the pair.
    pub rating: f32,
    /// Predicted reliability of the review.
    pub reliability: f32,
    /// Whether the pipeline would filter this review out for low
    /// reliability (kept in the output for the case-study table).
    pub filtered: bool,
}

/// Reliability threshold below which an explanation is filtered (the case
/// study filters a 0.405-reliability review; 0.5 is the natural benign/fake
/// decision boundary).
pub const EXPLANATION_RELIABILITY_THRESHOLD: f32 = 0.5;

/// The paper's two-stage ranking (§III-B) over any row type: keep the
/// top-`k` rows by predicted rating as the candidate set, then order the
/// candidates by predicted reliability. `key` reads a row's scores and its
/// entity key; ties break on the key ascending so rankings are
/// deterministic across runs and processes.
///
/// The one place the ordering is written: [`rank_candidates`] ranks scored
/// entities with it, and the scatter-gather tier re-ranks the union of
/// per-shard wire rows with it, which is why the gathered answer equals the
/// whole-model one bit for bit.
pub fn rank_by_key<T, K: Ord>(rows: &mut Vec<T>, k: usize, key: impl Fn(&T) -> (Prediction, K)) {
    rows.sort_by(|a, b| {
        let ((pa, ka), (pb, kb)) = (key(a), key(b));
        pb.rating.total_cmp(&pa.rating).then(ka.cmp(&kb))
    });
    rows.truncate(k);
    rows.sort_by(|a, b| {
        let ((pa, ka), (pb, kb)) = (key(a), key(b));
        pb.reliability.total_cmp(&pa.reliability).then(ka.cmp(&kb))
    });
}

/// [`rank_by_key`] over `(entity, prediction)` pairs.
pub fn rank_candidates<T: Ord + Copy>(scored: &mut Vec<(T, Prediction)>, k: usize) {
    rank_by_key(scored, k, |&(key, p)| (p, key));
}

/// Generates the top-𝒦 recommendations for `user` among `items`, scoring
/// each pair with `score`: candidates by rating, final order by reliability
/// (§III-B).
pub fn recommend_with(
    ds: &Dataset,
    user: UserId,
    items: impl IntoIterator<Item = ItemId>,
    k: usize,
    mut score: impl FnMut(UserId, ItemId) -> Prediction,
) -> Vec<Recommendation> {
    let mut scored: Vec<(ItemId, Prediction)> =
        items.into_iter().map(|item| (item, score(user, item))).collect();
    rank_candidates(&mut scored, k);
    scored
        .into_iter()
        .map(|(item, p)| Recommendation {
            item,
            item_name: ds.item_name(item),
            rating: p.rating,
            reliability: p.reliability,
        })
        .collect()
}

/// Generates the top-𝒦 recommendations for `user` over the whole catalog
/// with [`Rrre::predict`] ([`recommend_with`]).
pub fn recommend(model: &Rrre, ds: &Dataset, corpus: &EncodedCorpus, user: UserId, k: usize) -> Vec<Recommendation> {
    let items = (0..ds.n_items as u32).map(ItemId);
    recommend_with(ds, user, items, k, |u, i| model.predict(corpus, u, i))
}

/// Generates up to `k` reliable explanation reviews for `item` (§III-B),
/// scoring each review's `(author, item)` pair with `score`: top-`k` of the
/// item's reviews (looked up in `index`, an index over `ds`) by predicted
/// rating, re-ranked by reliability, with sub-threshold reviews marked
/// `filtered`.
pub fn explain_with(
    ds: &Dataset,
    index: &DatasetIndex,
    item: ItemId,
    k: usize,
    mut score: impl FnMut(UserId, ItemId) -> Prediction,
) -> Vec<Explanation> {
    let mut scored: Vec<(usize, Prediction)> = index
        .item_reviews(item)
        .iter()
        .map(|&ri| {
            let r = &ds.reviews[ri];
            (ri, score(r.user, r.item))
        })
        .collect();
    rank_candidates(&mut scored, k);
    scored
        .into_iter()
        .map(|(ri, p)| {
            let r = &ds.reviews[ri];
            Explanation {
                review_idx: ri,
                user: r.user,
                user_name: ds.user_name(r.user),
                text: r.text.clone(),
                rating: p.rating,
                reliability: p.reliability,
                filtered: p.reliability < EXPLANATION_RELIABILITY_THRESHOLD,
            }
        })
        .collect()
}

/// Generates up to `k` reliable explanation reviews for `item` with
/// [`Rrre::predict`] ([`explain_with`] over the model's own review index;
/// `ds` must be the dataset the model was built over).
pub fn explain(model: &Rrre, ds: &Dataset, corpus: &EncodedCorpus, item: ItemId, k: usize) -> Vec<Explanation> {
    explain_with(ds, model.index(), item, k, |u, i| model.predict(corpus, u, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RrreConfig;
    use rrre_data::synth::{generate, SynthConfig};
    use rrre_data::CorpusConfig;
    use rrre_text::word2vec::Word2VecConfig;

    fn trained() -> (Dataset, EncodedCorpus, Rrre) {
        let ds = generate(&SynthConfig::yelp_chi().scaled(0.05));
        let corpus = EncodedCorpus::build(
            &ds,
            &CorpusConfig {
                max_len: 14,
                word2vec: Word2VecConfig { dim: 8, epochs: 1, ..Default::default() },
                ..Default::default()
            },
        );
        let train: Vec<usize> = (0..ds.len()).collect();
        let cfg = RrreConfig { epochs: 3, ..RrreConfig::tiny() };
        let model = Rrre::fit(&ds, &corpus, &train, cfg);
        (ds, corpus, model)
    }

    #[test]
    fn recommendations_are_reliability_ordered_rating_candidates() {
        let (ds, corpus, model) = trained();
        let recs = recommend(&model, &ds, &corpus, UserId(0), 3);
        assert_eq!(recs.len(), 3.min(ds.n_items));
        for w in recs.windows(2) {
            assert!(w[0].reliability >= w[1].reliability);
        }
        // Every candidate's rating is at least as high as any non-candidate.
        let min_cand = recs.iter().map(|r| r.rating).fold(f32::INFINITY, f32::min);
        let mut all: Vec<f32> = (0..ds.n_items)
            .map(|i| model.predict(&corpus, UserId(0), ItemId(i as u32)).rating)
            .collect();
        all.sort_by(|a, b| b.total_cmp(a));
        let kth = all[recs.len() - 1];
        assert!(min_cand >= kth - 1e-5);
    }

    #[test]
    fn explanations_come_from_item_reviews_and_flag_low_reliability() {
        let (ds, corpus, model) = trained();
        let item = ItemId(0);
        let ex = explain(&model, &ds, &corpus, item, 2);
        assert!(!ex.is_empty());
        let index = ds.index();
        for e in &ex {
            assert!(index.item_reviews(item).contains(&e.review_idx));
            assert_eq!(e.filtered, e.reliability < EXPLANATION_RELIABILITY_THRESHOLD);
            assert!(!e.text.is_empty());
        }
    }

    #[test]
    fn k_larger_than_population_is_safe() {
        let (ds, corpus, model) = trained();
        let recs = recommend(&model, &ds, &corpus, UserId(1), ds.n_items + 10);
        assert_eq!(recs.len(), ds.n_items);
    }
}
