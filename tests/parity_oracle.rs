//! The differential parity oracle (tier 1): `Rrre::predict`, the
//! decomposed tape-free frozen inference path, and the serve engine behind
//! the checkpoint → artifact → tower-cache round trip must agree
//! **bit-for-bit**, across three independently-seeded models — the trained
//! model and its serving deployment are the same function, not two
//! implementations that happen to be close.

use proptest::prelude::*;
use rrre::core::{explain, recommend};
use rrre_serve::{Engine, EngineConfig, ModelArtifact};
use rrre_testkit::parity::{assert_model_parity, assert_serve_parity, deterministic_pairs};
use rrre_testkit::{trained_fixture_with, Fixture, FixtureSpec, TempDir};
use rrre_wire::{ExplanationDto, RecommendationDto};
use std::sync::OnceLock;
use std::time::Duration;

/// Three distinct master seeds ⇒ three distinct datasets, corpora and
/// weight initialisations.
const SEEDS: [u64; 3] = [0x5EED, 0xA11CE, 0x0B0E];

struct Harness {
    fixture: Fixture,
    engine: Engine,
}

/// One trained fixture + serving engine per seed, built once and shared by
/// every test in this binary (training is the expensive part).
fn harnesses() -> &'static [Harness] {
    static CELL: OnceLock<Vec<Harness>> = OnceLock::new();
    CELL.get_or_init(|| {
        SEEDS
            .iter()
            .map(|&seed| {
                let fixture = trained_fixture_with(FixtureSpec::small().with_seed(seed));
                let dir = TempDir::new(&format!("parity-{seed:x}"));
                ModelArtifact::save(dir.path(), &fixture.dataset, &fixture.corpus, &fixture.model, fixture.min_count())
                    .unwrap();
                let artifact = ModelArtifact::load(dir.path()).unwrap();
                let engine = Engine::new(
                    artifact,
                    EngineConfig { workers: 2, max_batch: 8, max_wait: Duration::from_micros(500), cache_shards: 4, ..EngineConfig::default() },
                );
                Harness { fixture, engine }
            })
            .collect()
    })
}

#[test]
fn predict_equals_decomposed_frozen_inference_on_every_seed() {
    for (h, &seed) in harnesses().iter().zip(&SEEDS) {
        let pairs = deterministic_pairs(&h.fixture.dataset, seed, 64);
        assert_model_parity(&h.fixture.model, &h.fixture.corpus, &pairs);
    }
}

#[test]
fn engine_reproduces_predict_through_the_artifact_round_trip_on_every_seed() {
    for (h, &seed) in harnesses().iter().zip(&SEEDS) {
        let pairs = deterministic_pairs(&h.fixture.dataset, seed.wrapping_add(1), 64);
        assert_serve_parity(&h.engine, &h.fixture.model, &h.fixture.corpus, &pairs);
    }
}

#[test]
fn checkpoint_reload_is_the_same_function() {
    let h = &harnesses()[0];
    let fx = &h.fixture;
    let dir = TempDir::new("parity-checkpoint");
    let path = dir.file("weights.rrrp");
    fx.model.save_weights(&path).unwrap();

    let reloaded =
        rrre::core::Rrre::from_checkpoint(&fx.dataset, &fx.corpus, fx.spec.rrre_config(), &path).unwrap();
    assert!(reloaded.has_frozen_cache(), "frozen-mode reload must rebuild the inference cache");

    let pairs = deterministic_pairs(&fx.dataset, 0xC0DE, 64);
    for &(user, item) in &pairs {
        assert_eq!(
            reloaded.predict(&fx.corpus, user, item),
            fx.model.predict(&fx.corpus, user, item),
            "checkpoint reload diverged at u{}/i{}",
            user.0,
            item.0
        );
    }
    // The reloaded model also satisfies the frozen-decomposition oracle.
    assert_model_parity(&reloaded, &fx.corpus, &pairs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Randomized sweep: any (seed, user, item) drawn by proptest must
    /// agree across all three code paths, including via the engine — and
    /// the engine's `Recommend(user, k)` / `Explain(item, k)` must equal
    /// `rrre_core::recommend` / `explain` row for row, names and texts
    /// included.
    #[test]
    fn randomized_pairs_agree_across_all_three_paths(
        which in 0usize..3,
        user_draw in any::<u32>(),
        item_draw in any::<u32>(),
        k in 1usize..16,
    ) {
        let h = &harnesses()[which];
        let ds = &h.fixture.dataset;
        let user = rrre::data::UserId(user_draw % ds.n_users as u32);
        let item = rrre::data::ItemId(item_draw % ds.n_items as u32);

        let full = h.fixture.model.predict(&h.fixture.corpus, user, item);
        let x_u = h.fixture.model.infer_user_tower(user, item);
        let y_i = h.fixture.model.infer_item_tower(user, item);
        let decomposed = h.fixture.model.infer_heads(user, item, &x_u, &y_i);
        prop_assert_eq!(full, decomposed, "predict vs decomposed at u{}/i{}", user.0, item.0);

        let resp = h.engine.submit(rrre_serve::Request::predict(user.0, item.0));
        prop_assert!(resp.ok, "engine refused u{}/i{}: {:?}", user.0, item.0, resp.error);
        let dto = resp.prediction.unwrap();
        prop_assert_eq!((dto.rating, dto.reliability), (full.rating, full.reliability),
            "engine diverged at u{}/i{}", user.0, item.0);

        let fx = &h.fixture;
        let resp = h.engine.submit(rrre_serve::Request::recommend(user.0, k));
        prop_assert!(resp.ok, "engine refused Recommend u{} k{}: {:?}", user.0, k, resp.error);
        let want: Vec<RecommendationDto> =
            recommend(&fx.model, ds, &fx.corpus, user, k).into_iter().map(Into::into).collect();
        prop_assert_eq!(resp.recommendations.unwrap(), want, "Recommend diverged at u{} k{}", user.0, k);

        let resp = h.engine.submit(rrre_serve::Request::explain(item.0, k));
        prop_assert!(resp.ok, "engine refused Explain i{} k{}: {:?}", item.0, k, resp.error);
        let want: Vec<ExplanationDto> =
            explain(&fx.model, ds, &fx.corpus, item, k).into_iter().map(Into::into).collect();
        prop_assert_eq!(resp.explanations.unwrap(), want, "Explain diverged at i{} k{}", item.0, k);
    }
}
