//! Hot-reload fault drills: every way the artifact on disk can be damaged
//! must make [`Engine::reload`] fail *closed* — the old generation keeps
//! serving bit-identical answers, the failure is visible in stats, and
//! clients hammering the engine while corrupted reloads are attempted see
//! zero failed requests.

use rrre_core::{Rrre, RrreConfig};
use rrre_serve::artifact::MANIFEST_FILE;
use rrre_wire::PredictionDto;
use rrre_serve::{Engine, EngineConfig, ModelArtifact, Request};
use rrre_testkit::fault::{artifact_payload, drop_last_row, flip_byte, rehash_artifact_file, truncate_file};
use rrre_testkit::sync::run_concurrently;
use rrre_testkit::{trained_fixture, TempDir};
use std::io::ErrorKind;
use std::sync::Arc;

fn served_artifact(tag: &str) -> (TempDir, Engine) {
    let fx = trained_fixture();
    let dir = TempDir::new(tag);
    ModelArtifact::save(dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count()).unwrap();
    let artifact = ModelArtifact::load(dir.path()).unwrap();
    let engine = Engine::new(artifact, EngineConfig { workers: 2, ..EngineConfig::default() });
    (dir, engine)
}

/// A deterministic probe set: predictions for a small grid of pairs.
fn probe(engine: &Engine) -> Vec<(u32, u32, PredictionDto)> {
    let generation = engine.generation();
    let (n_users, n_items) =
        (generation.artifact.dataset.n_users, generation.artifact.dataset.n_items);
    drop(generation);
    let mut out = Vec::new();
    for u in 0..n_users.min(4) as u32 {
        for i in 0..n_items.min(4) as u32 {
            let resp = engine.submit(Request::predict(u, i));
            assert!(resp.ok, "probe predict failed: {:?}", resp.error);
            out.push((u, i, resp.prediction.expect("ok predict carries a prediction")));
        }
    }
    out
}

#[test]
fn every_corruption_fails_closed_and_restore_recovers() {
    let (dir, engine) = served_artifact("reload-fault");
    let baseline = probe(&engine);
    assert_eq!(engine.stats().generation, 1);

    // Payload files get truncated AND bit-flipped (the checksum layer must
    // catch both); the manifest gets truncated (a mid-write torn manifest).
    // A flipped manifest byte can land in an unvalidated field like the
    // dataset display name, so it is not a guaranteed-rejection drill.
    let mut expected_failures = 0u64;
    let payload = |stem| artifact_payload(dir.path(), stem);
    let corruptions = vec![
        (payload("dataset"), true),
        (payload("vectors"), true),
        (payload("model"), true),
        (payload("reviews"), true),
        (dir.file(MANIFEST_FILE), false),
    ];
    for (path, also_flip) in corruptions {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let pristine = std::fs::read(&path).unwrap();

        let drills: &[&str] = if also_flip { &["truncate", "flip"] } else { &["truncate"] };
        for &what in drills {
            if what == "truncate" {
                truncate_file(&path, pristine.len() as u64 / 3).unwrap();
            } else {
                flip_byte(&path, pristine.len() / 2).unwrap();
            }
            let load_err =
                ModelArtifact::load(dir.path()).err().expect("a damaged artifact must not load");
            assert_eq!(load_err.kind(), ErrorKind::InvalidData, "{what} of {file}: {load_err}");
            let err = engine
                .reload()
                .expect_err(&format!("{what} of {file} must fail the reload"));
            assert!(
                err.contains("keeps serving"),
                "reload error must name the surviving generation: {err}"
            );
            expected_failures += 1;

            let stats = engine.stats();
            assert_eq!(stats.generation, 1, "generation must not advance on a failed reload");
            assert_eq!(stats.reload_failures, expected_failures);
            assert_eq!(
                probe(&engine),
                baseline,
                "old generation must serve bit-identical predictions after {what} of {file}"
            );
            std::fs::write(&path, &pristine).unwrap();
        }
    }

    // Pristine artifact again: the reload goes through and bumps the
    // generation, with fresh (cold) caches.
    let new_id = engine.reload().expect("reload of the restored artifact must succeed");
    assert_eq!(new_id, 2);
    let stats = engine.stats();
    assert_eq!(stats.generation, 2);
    assert_eq!(stats.reloads, expected_failures + 1);
    assert_eq!(stats.reload_failures, expected_failures);
    assert_eq!(probe(&engine), baseline, "reloaded weights are the same weights");
}

#[test]
fn rehashed_foreign_or_misshapen_review_vectors_fail_the_reload_closed() {
    let fx = trained_fixture();
    let dir = TempDir::new("reload-foreign-reviews");
    ModelArtifact::save(dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count()).unwrap();
    let engine = Engine::new(
        ModelArtifact::load(dir.path()).unwrap(),
        EngineConfig { workers: 2, ..EngineConfig::default() },
    );
    let baseline = probe(&engine);

    // Another model's rows over the same corpus: right shape, wrong bits.
    let other_cfg = RrreConfig { seed: fx.spec.seed ^ 0xF0F0, epochs: 1, ..fx.spec.rrre_config() };
    let other = Rrre::fit(&fx.dataset, &fx.corpus, &fx.train, other_cfg);
    let other_dir = TempDir::new("reload-foreign-reviews-source");
    ModelArtifact::save(other_dir.path(), &fx.dataset, &fx.corpus, &other, fx.min_count()).unwrap();

    let (reviews, manifest) = (artifact_payload(dir.path(), "reviews"), dir.file(MANIFEST_FILE));
    let pristine = (std::fs::read(&reviews).unwrap(), std::fs::read(&manifest).unwrap());
    for (failures, what) in (1..).zip(["foreign", "misshapen"]) {
        if what == "foreign" {
            std::fs::copy(artifact_payload(other_dir.path(), "reviews"), &reviews).unwrap();
        } else {
            drop_last_row(&reviews).unwrap();
        }
        rehash_artifact_file(dir.path(), "reviews").unwrap();
        let load_err = ModelArtifact::load(dir.path()).err().expect("must not load");
        assert_eq!(load_err.kind(), ErrorKind::InvalidData, "{what}: {load_err}");
        let err = engine.reload().expect_err(&format!("{what} review vectors must fail the reload"));
        assert!(err.contains("review vectors") && err.contains("keeps serving"), "{what}: {err}");
        let stats = engine.stats();
        assert_eq!((stats.generation, stats.reload_failures), (1, failures));
        assert_eq!(probe(&engine), baseline, "old generation must serve after {what} review vectors");
        std::fs::write(&reviews, &pristine.0).unwrap();
        std::fs::write(&manifest, &pristine.1).unwrap();
    }
    assert_eq!(engine.reload().unwrap(), 2);
    assert_eq!(probe(&engine), baseline);
}

#[test]
fn reload_refuses_a_shard_map_version_rollback() {
    use rrre_wire::ShardSpec;
    let fx = trained_fixture();
    let dir = TempDir::new("reload-rollback");
    let spec_v5 = ShardSpec { version: 5, ..ShardSpec::with_shards(1) };
    ModelArtifact::save_with_shards(
        dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count(), spec_v5,
    )
    .unwrap();
    let engine = Engine::new(
        ModelArtifact::load(dir.path()).unwrap(),
        EngineConfig { workers: 2, ..EngineConfig::default() },
    );
    let baseline = probe(&engine);

    // A stale artifact restored over a newer one: identical weights, older
    // topology version. Every byte on disk validates — only the version
    // ordering is wrong — so this is exactly the rollback the guard exists
    // to catch.
    let spec_v4 = ShardSpec { version: 4, ..spec_v5 };
    ModelArtifact::save_with_shards(
        dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count(), spec_v4,
    )
    .unwrap();
    let err = engine.reload().expect_err("a version rollback must refuse to reload");
    assert!(
        err.contains("behind the serving version"),
        "the refusal must name the version ordering: {err}"
    );
    let stats = engine.stats();
    assert_eq!(stats.generation, 1, "generation must not advance on a refused rollback");
    assert_eq!(stats.reload_failures, 1);
    assert_eq!(probe(&engine), baseline, "the serving generation must be untouched");

    // Moving forward again reloads cleanly.
    let spec_v6 = ShardSpec { version: 6, ..spec_v5 };
    ModelArtifact::save_with_shards(
        dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count(), spec_v6,
    )
    .unwrap();
    assert_eq!(engine.reload().unwrap(), 2);
    assert_eq!(probe(&engine), baseline);
    engine.shutdown();
}

#[test]
fn reload_protocol_verb_swaps_and_reports_the_new_generation() {
    let (_dir, engine) = served_artifact("reload-verb");
    let resp = engine.submit(Request::reload().with_id(7));
    assert!(resp.ok, "Reload verb failed: {:?}", resp.error);
    assert_eq!(resp.id, Some(7));
    assert_eq!(resp.generation, Some(2));
    assert_eq!(engine.stats().generation, 2);
}

#[test]
fn concurrent_clients_see_zero_failures_during_corrupted_reloads() {
    let (dir, engine) = served_artifact("reload-storm");
    let engine = Arc::new(engine);
    let baseline = probe(&engine);

    let model_path = artifact_payload(dir.path(), "model");
    let pristine = std::fs::read(&model_path).unwrap();
    let len = std::fs::metadata(&model_path).unwrap().len();
    truncate_file(&model_path, len / 3).unwrap();

    // Thread 0 hammers reloads of the corrupted artifact; the rest serve
    // traffic. Not one client request may fail while reloads are failing.
    const CLIENTS: usize = 6;
    const REQUESTS: usize = 25;
    const RELOADS: usize = 5;
    let (n_users, n_items) = {
        let generation = engine.generation();
        (generation.artifact.dataset.n_users as u32, generation.artifact.dataset.n_items as u32)
    };
    let shared = Arc::clone(&engine);
    let failures = run_concurrently(CLIENTS + 1, move |idx| {
        if idx == 0 {
            let mut failed_reloads = 0usize;
            for _ in 0..RELOADS {
                if shared.reload().is_err() {
                    failed_reloads += 1;
                }
            }
            assert_eq!(failed_reloads, RELOADS, "corrupted artifact must never reload");
            0usize
        } else {
            (0..REQUESTS)
                .filter(|&r| {
                    let u = (idx - 1) as u32 % n_users;
                    let resp = shared.submit(Request::predict(u, r as u32 % n_items));
                    !resp.ok || resp.generation != Some(1)
                })
                .count()
        }
    });
    assert_eq!(
        failures.iter().sum::<usize>(),
        0,
        "every client request during corrupted reloads must succeed on generation 1"
    );

    let stats = engine.stats();
    assert_eq!(stats.reload_failures, RELOADS as u64);
    assert_eq!(stats.generation, 1);

    // Repair and verify a clean swap still works afterwards.
    std::fs::write(&model_path, &pristine).unwrap();
    assert_eq!(engine.reload().unwrap(), 2);
    assert_eq!(probe(&engine), baseline);
}
