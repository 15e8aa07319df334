//! Differential parity oracles.
//!
//! Prediction is reachable three ways that must never drift:
//! [`Rrre::predict`], the decomposed frozen path (`infer_user_tower` +
//! `infer_item_tower` + `infer_heads`) and the serve engine sitting on
//! cached towers behind the artifact round trip. All three run the model's
//! one forward definition on the value evaluator, and these oracles assert
//! they agree **bit-for-bit** — not within a tolerance — so any inequality
//! is a real divergence, not float noise.

use rrre_core::Rrre;
use rrre_data::{Dataset, EncodedCorpus, ItemId, UserId};
use rrre_serve::engine::Engine;
use rrre_wire::Request;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` pseudo-random user/item pairs drawn deterministically from
/// `seed` over the dataset's id space. Pairs may repeat; that is fine for
/// an oracle (repeats exercise the serve cache's warm path).
pub fn deterministic_pairs(ds: &Dataset, seed: u64, count: usize) -> Vec<(UserId, ItemId)> {
    assert!(ds.n_users > 0 && ds.n_items > 0, "deterministic_pairs: empty dataset");
    let mut state = seed ^ 0xA55E_55ED_0F17_7E57;
    (0..count)
        .map(|_| {
            let u = (splitmix64(&mut state) % ds.n_users as u64) as u32;
            let i = (splitmix64(&mut state) % ds.n_items as u64) as u32;
            (UserId(u), ItemId(i))
        })
        .collect()
}

/// Asserts `predict` ≡ the decomposed frozen inference path on every pair.
///
/// The model must already expose its frozen cache (train in frozen mode or
/// load it from an artifact).
pub fn assert_model_parity(model: &Rrre, corpus: &EncodedCorpus, pairs: &[(UserId, ItemId)]) {
    assert!(model.has_frozen_cache(), "assert_model_parity: model has no frozen cache");
    for &(user, item) in pairs {
        let full = model.predict(corpus, user, item);
        let x_u = model.infer_user_tower(user, item);
        let y_i = model.infer_item_tower(user, item);
        let decomposed = model.infer_heads(user, item, &x_u, &y_i);
        assert!(
            full == decomposed,
            "predict vs decomposed frozen inference diverged at u{}/i{}: {full:?} vs {decomposed:?}",
            user.0,
            item.0
        );
    }
}

/// Asserts the serve engine reproduces `reference.predict` bit-for-bit on
/// every pair. `reference` is the in-process model the engine's artifact
/// was saved from; going through the engine additionally exercises the
/// checkpoint → artifact → tower-cache round trip.
pub fn assert_serve_parity(
    engine: &Engine,
    reference: &Rrre,
    corpus: &EncodedCorpus,
    pairs: &[(UserId, ItemId)],
) {
    for &(user, item) in pairs {
        let expected = reference.predict(corpus, user, item);
        let resp = engine.submit(Request::predict(user.0, item.0));
        assert!(resp.ok, "engine refused u{}/i{}: {:?}", user.0, item.0, resp.error);
        let got = resp
            .prediction
            .unwrap_or_else(|| panic!("engine returned no prediction for u{}/i{}", user.0, item.0));
        assert!(
            got.rating == expected.rating && got.reliability == expected.reliability,
            "engine vs predict diverged at u{}/i{}: engine ({}, {}) vs predict ({}, {})",
            user.0,
            item.0,
            got.rating,
            got.reliability,
            expected.rating,
            expected.reliability
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::FixtureSpec;

    #[test]
    fn pairs_are_deterministic_and_in_range() {
        let ds = FixtureSpec::micro().dataset();
        let a = deterministic_pairs(&ds, 7, 32);
        let b = deterministic_pairs(&ds, 7, 32);
        assert_eq!(a, b);
        for &(u, i) in &a {
            assert!((u.0 as usize) < ds.n_users);
            assert!((i.0 as usize) < ds.n_items);
        }
        let c = deterministic_pairs(&ds, 8, 32);
        assert_ne!(a, c, "different seeds must draw different pair sequences");
    }
}
