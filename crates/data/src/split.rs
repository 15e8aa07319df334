//! Train/test splitting following the paper's protocol (§IV-C): 70 % train /
//! 30 % test, with every user and item keeping at least one training review
//! whenever it has more than one overall.

use crate::{Dataset, UserId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Review-index split of a dataset.
#[derive(Debug, Clone)]
pub struct Split {
    /// Indices into `dataset.reviews` used for training.
    pub train: Vec<usize>,
    /// Indices used for testing.
    pub test: Vec<usize>,
}

/// Randomly splits review indices, then repairs the split so each user and
/// item that appears at all appears in `train` at least once (moving the
/// oldest test review of any orphaned user/item into train).
///
/// # Panics
/// Panics unless `0 < test_frac < 1`.
pub fn train_test_split(ds: &Dataset, test_frac: f64, rng: &mut impl Rng) -> Split {
    assert!(
        test_frac > 0.0 && test_frac < 1.0,
        "train_test_split: test_frac {test_frac} outside (0, 1)"
    );
    let n = ds.reviews.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let n_test = ((n as f64) * test_frac).round() as usize;
    let mut is_test = vec![false; n];
    for &i in order.iter().take(n_test) {
        is_test[i] = true;
    }

    // Repair: any user/item whose every review landed in test gets its
    // earliest review pulled back into train.
    let mut user_train = vec![0usize; ds.n_users];
    let mut item_train = vec![0usize; ds.n_items];
    for (i, r) in ds.reviews.iter().enumerate() {
        if !is_test[i] {
            user_train[r.user.index()] += 1;
            item_train[r.item.index()] += 1;
        }
    }
    let index = ds.index();
    // Indexed loops are intentional: each iteration may increment *other*
    // entries of the two count vectors, so iterator borrows do not work.
    #[allow(clippy::needless_range_loop)]
    for u in 0..ds.n_users {
        if user_train[u] == 0 {
            if let Some(&earliest) = index.user_reviews(UserId(u as u32)).first() {
                if is_test[earliest] {
                    is_test[earliest] = false;
                    user_train[u] += 1;
                    item_train[ds.reviews[earliest].item.index()] += 1;
                }
            }
        }
    }
    #[allow(clippy::needless_range_loop)]
    for it in 0..ds.n_items {
        if item_train[it] == 0 {
            if let Some(&earliest) = index.item_reviews(crate::ItemId(it as u32)).first() {
                if is_test[earliest] {
                    is_test[earliest] = false;
                    item_train[it] += 1;
                    user_train[ds.reviews[earliest].user.index()] += 1;
                }
            }
        }
    }

    let mut split = Split { train: Vec::new(), test: Vec::new() };
    for (i, &t) in is_test.iter().enumerate() {
        if t {
            split.test.push(i);
        } else {
            split.train.push(i);
        }
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ItemId, Label, Review};
    use rand::{rngs::StdRng, SeedableRng};

    fn make_dataset(n_users: u32, n_items: u32, reviews: &[(u32, u32)]) -> Dataset {
        let reviews = reviews
            .iter()
            .enumerate()
            .map(|(i, &(u, it))| Review {
                user: UserId(u),
                item: ItemId(it),
                rating: 3.0,
                label: Label::Benign,
                timestamp: i as i64,
                text: String::new(),
            })
            .collect();
        Dataset::new("t", n_users as usize, n_items as usize, reviews)
    }

    #[test]
    fn split_sizes_approximately_respected() {
        let pairs: Vec<(u32, u32)> = (0..200).map(|i| (i % 20, i % 10)).collect();
        let ds = make_dataset(20, 10, &pairs);
        let mut rng = StdRng::seed_from_u64(1);
        let s = train_test_split(&ds, 0.3, &mut rng);
        assert_eq!(s.train.len() + s.test.len(), 200);
        let frac = s.test.len() as f64 / 200.0;
        assert!((0.2..=0.35).contains(&frac), "test fraction {frac}");
    }

    #[test]
    fn every_entity_kept_in_train() {
        // Heavily skewed so the repair path triggers.
        let pairs: Vec<(u32, u32)> = (0..40).map(|i| (i % 40, i % 4)).collect();
        let ds = make_dataset(40, 4, &pairs);
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = train_test_split(&ds, 0.3, &mut rng);
            let mut user_seen = [false; 40];
            let mut item_seen = [false; 4];
            for &i in &s.train {
                user_seen[ds.reviews[i].user.index()] = true;
                item_seen[ds.reviews[i].item.index()] = true;
            }
            assert!(user_seen.iter().all(|&b| b), "seed {seed}: user missing from train");
            assert!(item_seen.iter().all(|&b| b), "seed {seed}: item missing from train");
        }
    }

    #[test]
    fn disjoint_and_exhaustive() {
        let pairs: Vec<(u32, u32)> = (0..100).map(|i| (i % 10, i % 5)).collect();
        let ds = make_dataset(10, 5, &pairs);
        let mut rng = StdRng::seed_from_u64(7);
        let s = train_test_split(&ds, 0.3, &mut rng);
        let mut seen = [0u8; 100];
        for &i in s.train.iter().chain(&s.test) {
            seen[i] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_fraction_panics() {
        let ds = make_dataset(1, 1, &[(0, 0)]);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = train_test_split(&ds, 1.0, &mut rng);
    }
}
