//! Engine semantics under concurrency: every response arrives, every
//! prediction matches the single-threaded reference exactly, the cache
//! counters reconcile, and a warm cache serves predictions without
//! re-running the towers.
//!
//! All fan-out goes through `rrre_testkit::sync::run_concurrently`, which
//! releases the worker threads from a barrier — contention is guaranteed by
//! construction, not by hoping the spawns overlap — and the deadline test
//! uses a by-definition-expired deadline instead of sleeping.

use rrre_data::{ItemId, UserId};
use rrre_serve::{Engine, EngineConfig, ModelArtifact, Request};
use rrre_testkit::sync::{run_concurrently, EXPIRED_DEADLINE_MS};
use rrre_testkit::{trained_fixture, Fixture, TempDir};
use std::sync::Arc;
use std::time::Duration;

fn engine_over_fixture(tag: &str) -> (Engine, Fixture) {
    let fx = trained_fixture();
    let dir = TempDir::new(tag);
    ModelArtifact::save(dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count()).unwrap();
    let artifact = ModelArtifact::load(dir.path()).unwrap();
    let engine = Engine::new(
        artifact,
        EngineConfig {
            workers: 4,
            max_batch: 8,
            max_wait: Duration::from_micros(500),
            cache_shards: 4,
            ..EngineConfig::default()
        },
    );
    (engine, fx)
}

#[test]
fn concurrent_predicts_match_reference_and_counters_reconcile() {
    let (engine, fx) = engine_over_fixture("concurrency");
    let engine = Arc::new(engine);
    let n_users = fx.dataset.n_users as u32;
    let n_items = fx.dataset.n_items as u32;

    const THREADS: usize = 8;
    const REQUESTS: u32 = 40;

    let per_thread = {
        let engine = Arc::clone(&engine);
        run_concurrently(THREADS, move |t| {
            let t = t as u32;
            let mut out = Vec::new();
            for r in 0..REQUESTS {
                // Deterministic pair mix with deliberate cross-thread
                // collisions so the cache sees hits *and* misses.
                let user = (t * 7 + r) % n_users;
                let item = (t + r * 3) % n_items;
                let resp = engine.submit(Request::predict(user, item).with_id(u64::from(r)));
                assert!(resp.ok, "predict failed: {:?}", resp.error);
                assert_eq!(resp.id, Some(u64::from(r)), "response id mismatch");
                out.push((user, item, resp.prediction.expect("missing payload")));
            }
            out
        })
    };

    let mut total = 0u64;
    for out in per_thread {
        for (user, item, dto) in out {
            total += 1;
            let reference = fx.model.predict(&fx.corpus, UserId(user), ItemId(item));
            assert_eq!(dto.rating, reference.rating, "rating diverged for ({user}, {item})");
            assert_eq!(
                dto.reliability, reference.reliability,
                "reliability diverged for ({user}, {item})"
            );
        }
    }
    assert_eq!(total, THREADS as u64 * u64::from(REQUESTS), "lost responses");

    let stats = engine.stats();
    assert_eq!(stats.requests, total);
    assert_eq!(stats.errors, 0);
    // Each predict performs exactly one lookup per cache.
    assert_eq!(stats.user_cache_hits + stats.user_cache_misses, total);
    assert_eq!(stats.item_cache_hits + stats.item_cache_misses, total);
    // Towers run exactly once per cache miss, never more (the shard lock
    // serialises concurrent misses on the same pair).
    assert_eq!(stats.tower_evals, stats.user_cache_misses + stats.item_cache_misses);
    assert!(stats.cache_hit_rate > 0.0, "collision-heavy mix must produce hits");
    assert!(stats.batches > 0);
    assert!(stats.mean_batch >= 1.0);
}

#[test]
fn warm_cache_serves_without_tower_reruns() {
    let (engine, _fx) = engine_over_fixture("warm");

    let cold = engine.submit(Request::predict(1, 1));
    assert!(cold.ok);
    let after_cold = engine.stats();
    assert_eq!(after_cold.tower_evals, 2, "cold predict = one user + one item tower");

    for _ in 0..10 {
        let warm = engine.submit(Request::predict(1, 1));
        assert!(warm.ok);
        assert_eq!(warm.prediction, cold.prediction, "warm path changed the answer");
    }
    let after_warm = engine.stats();
    assert_eq!(
        after_warm.tower_evals, after_cold.tower_evals,
        "warm predictions must not re-run the towers"
    );
    assert_eq!(after_warm.user_cache_hits, 10);
    assert_eq!(after_warm.item_cache_hits, 10);
}

#[test]
fn errors_are_responses_not_hangs() {
    let (engine, fx) = engine_over_fixture("errors");

    let resp = engine.submit(Request::predict(u32::MAX, 0));
    assert!(!resp.ok);
    assert!(resp.error.unwrap().contains("out of range"));

    let resp = engine.submit(Request::recommend(0, 0));
    assert!(!resp.ok, "k = 0 must be rejected");

    let resp = engine.submit(Request { user: None, ..Request::predict(0, 0) });
    assert!(!resp.ok, "missing user must be rejected");

    let stats = engine.stats();
    assert_eq!(stats.errors, 3);
    // Errors never touch the caches.
    assert_eq!(stats.user_cache_hits + stats.user_cache_misses, 0);

    // A valid request still works afterwards.
    let ok = engine.submit(Request::predict(0, (fx.dataset.n_items - 1) as u32));
    assert!(ok.ok);
}

#[test]
fn expired_deadline_is_rejected_not_served() {
    let (engine, _fx) = engine_over_fixture("deadline");
    // A zero deadline has expired the instant the job is enqueued — the
    // engine's `elapsed >= deadline` check refuses it deterministically,
    // with no race against worker pickup speed.
    let resp = engine.submit(Request { deadline_ms: Some(EXPIRED_DEADLINE_MS), ..Request::predict(0, 0) });
    assert!(!resp.ok);
    assert!(resp.error.unwrap().contains("deadline"));
    assert_eq!(engine.stats().deadline_misses, 1);
}

#[test]
fn shutdown_is_graceful_and_idempotent() {
    let (engine, _fx) = engine_over_fixture("shutdown");
    assert!(engine.submit(Request::stats()).ok);
    engine.shutdown();
    engine.shutdown();
    let resp = engine.submit(Request::predict(0, 0));
    assert!(!resp.ok);
    assert!(resp.error.unwrap().contains("shut down"));
}
