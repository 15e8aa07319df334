//! Shard-scoped engine semantics: ownership enforcement, manifest v3
//! round-trips, catalog partitioning and the reload guard.

use rrre_serve::{Engine, EngineConfig, ModelArtifact};
use rrre_shard::ShardMap;
use rrre_testkit::{trained_fixture_with, FixtureSpec, TempDir};
use rrre_wire::{ErrorKind, Request, ShardSpec};
use std::sync::Arc;
use std::time::Duration;

fn saved_artifact(fx: &rrre_testkit::Fixture, dir: &TempDir, spec: ShardSpec) {
    ModelArtifact::save_with_shards(
        dir.path(),
        &fx.dataset,
        &fx.corpus,
        &fx.model,
        fx.min_count(),
        spec,
    )
    .unwrap();
}

fn shard_engine(dir: &TempDir, shard: u32) -> Engine {
    let artifact = ModelArtifact::load(dir.path()).unwrap();
    Engine::new(
        artifact,
        EngineConfig {
            shard_id: Some(shard),
            workers: 1,
            max_wait: Duration::ZERO,
            ..EngineConfig::default()
        },
    )
}

/// Misrouted point lookups come back as a structured `WrongShard` naming
/// the owning shard and the map version — enough for a client to re-route
/// without a second round trip.
#[test]
fn wrong_shard_refusal_names_owner_and_map_version() {
    let fx = trained_fixture_with(FixtureSpec { scale: 0.2, ..FixtureSpec::micro() });
    let dir = TempDir::new("wrong-shard");
    let spec = ShardSpec::with_shards(3);
    saved_artifact(&fx, &dir, spec);
    let map = ShardMap::new(spec).unwrap();
    let n_items = fx.dataset.n_items as u32;

    // Find an item and a shard that does NOT own it.
    let item = 0u32;
    let owner = map.shard_of_item(item);
    let wrong = (owner + 1) % 3;
    let engine = shard_engine(&dir, wrong);

    let resp = engine.submit(Request::predict(0, item));
    assert!(!resp.ok, "unowned item must be refused");
    assert_eq!(resp.kind, Some(ErrorKind::WrongShard));
    assert_eq!(resp.shard, Some(owner), "refusal must name the owning shard");
    assert_eq!(resp.map_version, Some(spec.version), "refusal must carry the map version");

    // The owner accepts the same request.
    let owner_engine = shard_engine(&dir, owner);
    let resp = owner_engine.submit(Request::predict(0, item));
    assert!(resp.ok, "owner must serve its own item: {:?}", resp.error);
    assert_eq!(resp.shard, Some(owner));

    // Rejections are counted per engine.
    assert_eq!(engine.stats().cross_shard_rejects, 1);
    assert_eq!(owner_engine.stats().cross_shard_rejects, 0);

    // Explain is gated by the same ownership rule.
    let resp = engine.submit(Request::explain(item, 2));
    assert_eq!(resp.kind, Some(ErrorKind::WrongShard));

    let _ = n_items;
    engine.shutdown();
    owner_engine.shutdown();
}

/// The shard spec survives the manifest round trip bit for bit, and loads
/// reject a manifest whose spec is invalid.
#[test]
fn shard_spec_round_trips_through_manifest_bit_for_bit() {
    let fx = trained_fixture_with(FixtureSpec::micro());
    let dir = TempDir::new("manifest-spec");
    let spec = ShardSpec { version: 7, shards: 5, vnodes: 32, seed: 0xABCD_EF01_2345_6789 };
    saved_artifact(&fx, &dir, spec);

    let artifact = ModelArtifact::load(dir.path()).unwrap();
    assert_eq!(artifact.manifest.shard_spec, spec, "spec must round-trip exactly");

    // Same bytes in, same ring out: an engine anywhere rebuilds the exact map.
    let a = ShardMap::new(artifact.manifest.shard_spec).unwrap();
    let b = ShardMap::new(spec).unwrap();
    for item in 0..64u32 {
        assert_eq!(a.shard_of_item(item), b.shard_of_item(item));
    }

    // A manifest with a corrupted (zero-shard) spec must not load.
    let manifest_path = dir.path().join(rrre_serve::artifact::MANIFEST_FILE);
    let json = std::fs::read_to_string(&manifest_path).unwrap();
    let broken = json.replace("\"shards\": 5", "\"shards\": 0");
    assert_ne!(json, broken, "fixture must actually corrupt the spec");
    std::fs::write(&manifest_path, broken).unwrap();
    assert!(ModelArtifact::load(dir.path()).is_err(), "invalid shard spec must fail the load");
}

/// Each shard's Recommend scores a strict slice of the catalog, and the
/// slices tile it: disjoint, complete, nothing scored twice.
#[test]
fn scoped_recommends_partition_the_catalog() {
    let fx = trained_fixture_with(FixtureSpec { scale: 0.2, ..FixtureSpec::micro() });
    let dir = TempDir::new("catalog-slice");
    let spec = ShardSpec::with_shards(3);
    saved_artifact(&fx, &dir, spec);
    let n_items = fx.dataset.n_items;

    let mut seen = vec![0u32; n_items];
    for shard in 0..3 {
        let engine = shard_engine(&dir, shard);
        let resp = engine.submit(Request::recommend(0, n_items));
        assert!(resp.ok, "shard {shard} recommend refused: {:?}", resp.error);
        assert_eq!(resp.shard, Some(shard), "scoped answers are stamped with their shard");
        for row in resp.recommendations.unwrap() {
            seen[row.item as usize] += 1;
        }
        assert_eq!(engine.stats().scatter_fanout, 1, "scoped recommends count as fan-out legs");
        engine.shutdown();
    }
    assert!(
        seen.iter().all(|&n| n == 1),
        "shard slices must tile the catalog exactly once: {seen:?}"
    );
}

/// Hot reload rejects an artifact that would strand the engine (its shard
/// id out of the new map's range) and keeps serving the old generation.
#[test]
fn reload_guard_keeps_old_generation_on_bad_spec() {
    let fx = trained_fixture_with(FixtureSpec::micro());
    let dir = TempDir::new("reload-guard");
    saved_artifact(&fx, &dir, ShardSpec::with_shards(3));
    let engine = Arc::new(shard_engine(&dir, 2));

    let before = engine.submit(Request::predict(0, 0));

    // Re-save with a 2-shard map: shard 2 no longer exists.
    saved_artifact(&fx, &dir, ShardSpec::with_shards(2));
    let err = engine.reload().expect_err("reload must refuse a map that strands this engine");
    assert!(err.contains("shard"), "error should explain the shard mismatch: {err}");

    // The old generation is still serving, bit-identically.
    let after = engine.submit(Request::predict(0, 0));
    assert_eq!(before.ok, after.ok);
    if let (Some(a), Some(b)) = (&before.prediction, &after.prediction) {
        assert_eq!(a.rating.to_bits(), b.rating.to_bits());
    }
    assert_eq!(engine.stats().reload_failures, 1);

    // A valid 3-shard artifact reloads fine and bumps the generation.
    saved_artifact(&fx, &dir, ShardSpec::with_shards(3));
    let generation = engine.reload().expect("valid spec must reload");
    assert!(generation > 1);
    engine.shutdown();
}

/// Whole-model fallback: a one-shard map (or no `shard_id` at all) owns
/// everything — no refusals anywhere.
#[test]
fn single_shard_and_unscoped_engines_own_everything() {
    let fx = trained_fixture_with(FixtureSpec { scale: 0.2, ..FixtureSpec::micro() });
    let dir = TempDir::new("whole-model");
    saved_artifact(&fx, &dir, ShardSpec::with_shards(1));
    let n_items = fx.dataset.n_items as u32;

    for cfg in [
        EngineConfig { shard_id: Some(0), workers: 1, max_wait: Duration::ZERO, ..EngineConfig::default() },
        EngineConfig { shard_id: None, workers: 1, max_wait: Duration::ZERO, ..EngineConfig::default() },
    ] {
        let artifact = ModelArtifact::load(dir.path()).unwrap();
        let engine = Engine::new(artifact, cfg);
        for item in 0..n_items.min(8) {
            let resp = engine.submit(Request::predict(0, item));
            assert!(resp.ok, "whole-model engine must own item {item}: {:?}", resp.error);
        }
        assert_eq!(engine.stats().cross_shard_rejects, 0);
        engine.shutdown();
    }
}
