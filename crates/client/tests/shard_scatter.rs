//! Scatter-gather correctness drills over in-process sharded fleets.
//!
//! The contract under test, from strongest to weakest guarantee:
//!
//! 1. **Parity oracle** — a 3-shard deployment answers Predict, Recommend
//!    and Explain *bit-identically* to a single whole-model engine over the
//!    same artifact, across three master seeds. Sharding is a deployment
//!    detail, never a model change.
//! 2. **Degraded answers** — with one shard entirely down (both replicas
//!    killed mid-burst), no request fails client-visibly, the other shards
//!    see no failed attempt, ranking answers come back `ok`, flagged
//!    `degraded` with the missing shard id, and every row they do contain
//!    carries the exact whole-model score.
//! 3. **Deadline splitting** — a black-holed shard consumes only the
//!    scatter's shared budget, not `shards × timeout`, and retry attempts
//!    advertise a shrinking `deadline_ms` to the server.

use rrre_client::{Client, ClientConfig, ShardedClient};
use rrre_testkit::{trained_fixture_with, FixtureSpec, ShardedDeployment};
use rrre_wire::{Request, Response};
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn quiet_cfg() -> ClientConfig {
    ClientConfig {
        probe_interval: None, // no background probes: deterministic attempt counts
        request_timeout: Duration::from_millis(2_000),
        ..ClientConfig::default()
    }
}

/// Asserts two success responses carry bit-identical payloads (ids and
/// degraded markers excluded — those are transport-level).
fn assert_payload_eq(scattered: &Response, reference: &Response, what: &str) {
    assert!(scattered.ok, "{what}: scattered answer refused: {:?}", scattered.error);
    assert!(reference.ok, "{what}: reference answer refused: {:?}", reference.error);
    match (&scattered.prediction, &reference.prediction) {
        (Some(a), Some(b)) => {
            assert_eq!(a.rating.to_bits(), b.rating.to_bits(), "{what}: rating bits diverge");
            assert_eq!(
                a.reliability.to_bits(),
                b.reliability.to_bits(),
                "{what}: reliability bits diverge"
            );
        }
        (a, b) => assert_eq!(a.is_some(), b.is_some(), "{what}: prediction presence diverges"),
    }
    match (&scattered.recommendations, &reference.recommendations) {
        (Some(a), Some(b)) => {
            assert_eq!(a.len(), b.len(), "{what}: recommendation count diverges");
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.item, y.item, "{what}: recommended item diverges");
                assert_eq!(x.rating.to_bits(), y.rating.to_bits(), "{what}: rec rating bits");
                assert_eq!(
                    x.reliability.to_bits(),
                    y.reliability.to_bits(),
                    "{what}: rec reliability bits"
                );
            }
        }
        (a, b) => assert_eq!(a.is_some(), b.is_some(), "{what}: recommendations presence"),
    }
    match (&scattered.explanations, &reference.explanations) {
        (Some(a), Some(b)) => {
            assert_eq!(a.len(), b.len(), "{what}: explanation count diverges");
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.review_idx, y.review_idx, "{what}: explanation review diverges");
                assert_eq!(x.rating.to_bits(), y.rating.to_bits(), "{what}: expl rating bits");
                assert_eq!(
                    x.reliability.to_bits(),
                    y.reliability.to_bits(),
                    "{what}: expl reliability bits"
                );
                assert_eq!(x.filtered, y.filtered, "{what}: expl filter verdict diverges");
            }
        }
        (a, b) => assert_eq!(a.is_some(), b.is_some(), "{what}: explanations presence"),
    }
}

/// The acceptance oracle: a 3-shard scatter-gather deployment is
/// bit-identical to one whole-model engine over the same artifact, for
/// three different master seeds.
#[test]
fn three_shard_scatter_matches_single_node_across_seeds() {
    for seed in [0x5EED_u64, 0x00AC_E0F5_EED5, 0xD15EA5E] {
        let fx = trained_fixture_with(FixtureSpec::micro().with_seed(seed));
        let dep = ShardedDeployment::launch(&fx, 3, 1);
        let reference = dep.whole_model_engine();
        let client = ShardedClient::new(dep.topology(), quiet_cfg()).unwrap();

        let users = fx.dataset.n_users as u32;
        let items = fx.dataset.n_items as u32;
        let mut requests = Vec::new();
        for user in 0..users.min(4) {
            requests.push(Request::recommend(user, 5));
            for item in 0..items.min(6) {
                requests.push(Request::predict(user, item));
            }
        }
        for item in 0..items.min(6) {
            requests.push(Request::explain(item, 3));
        }

        for req in requests {
            let what = format!("seed {seed:#x}, {:?} u={:?} i={:?}", req.op, req.user, req.item);
            let scattered = client.request(req.clone()).unwrap_or_else(|e| {
                panic!("{what}: scatter-gather failed client-visibly: {e}")
            });
            assert_ne!(scattered.degraded, Some(true), "{what}: fleet is healthy");
            let reference_resp = reference.submit(req);
            assert_payload_eq(&scattered, &reference_resp, &what);
        }

        client.shutdown();
        reference.shutdown();
    }
}

/// One shard entirely down — both its replicas killed mid-burst: the burst
/// finishes with zero client-visible failures, the unaffected shards never
/// see a failed attempt, point lookups for the dead shard's entities fail,
/// ranking over the survivors comes back `ok` + `degraded` + missing shard
/// id, and every surviving row is still the whole-model score for that item.
#[test]
fn kill_one_shard_yields_flagged_exact_partial_answers() {
    // Micro's catalog is a single item; this drill needs items on both
    // sides of the kill, so scale the catalog up to 8 items.
    let fx = trained_fixture_with(FixtureSpec { scale: 0.2, ..FixtureSpec::micro() });
    let mut dep = ShardedDeployment::launch(&fx, 3, 2);
    let reference = dep.whole_model_engine();
    let map = rrre_shard::ShardMap::new(dep.spec()).unwrap();
    let client = ShardedClient::new(
        dep.topology(),
        ClientConfig {
            request_timeout: Duration::from_millis(400),
            connect_timeout: Duration::from_millis(200),
            retries: 1,
            ..quiet_cfg()
        },
    )
    .unwrap();

    let users = fx.dataset.n_users as u32;
    let items = fx.dataset.n_items as u32;

    // Kill whichever shard owns item 0 — guaranteed to strand ≥1 item even
    // on a tiny catalog — a third of the way into a scatter-gather burst.
    let dead = map.shard_of_item(0);
    for i in 0..30u32 {
        if i == 10 {
            dep.kill_shard(dead);
        }
        let resp = client
            .request(Request::recommend(i % users, 5))
            .unwrap_or_else(|e| panic!("request {i} must not fail client-visibly: {e}"));
        assert!(resp.ok, "request {i} refused: {:?}", resp.error);
        assert_eq!(resp.degraded == Some(true), i >= 10, "request {i}: degraded iff a shard is gone");
    }
    let snap = client.snapshot();
    for live in (0..3).filter(|&s| s != dead) {
        for replica in &snap.shards[live as usize].replicas {
            assert_eq!(replica.failures, 0, "unaffected shard {live} saw a failed attempt: {replica:?}");
        }
        // The survivors' own counters are live: they served the scatter
        // legs, and the shard-routed client misrouted nothing to them.
        let served: Vec<_> = (0..2).map(|r| dep.engine(live, r).unwrap().stats()).collect();
        assert!(served.iter().map(|s| s.scatter_fanout).sum::<u64>() > 0, "shard {live} served no leg");
        assert!(served.iter().all(|s| s.cross_shard_rejects == 0), "shard {live} got misrouted traffic");
    }

    // Point lookups split by ownership: dead shard's items error, others work.
    let (mut dead_items, mut live_items) = (0, 0);
    for item in 0..items {
        let owner = map.shard_of_item(item);
        let outcome = client.request(Request::predict(0, item));
        if owner == dead {
            dead_items += 1;
            assert!(outcome.is_err(), "item {item} owned by the dead shard must fail");
        } else {
            live_items += 1;
            let resp = outcome.unwrap_or_else(|e| panic!("item {item} on live shard: {e}"));
            let reference_resp = reference.submit(Request::predict(0, item));
            assert_payload_eq(&resp, &reference_resp, &format!("live predict item {item}"));
        }
    }
    assert!(dead_items > 0 && live_items > 0, "fixture must spread items across shards");

    // Ranking degrades instead of failing, and stays exact on what it has.
    for user in 0..users.min(3) {
        let resp = client
            .request(Request::recommend(user, items as usize))
            .unwrap_or_else(|e| panic!("degraded recommend user {user} must not fail: {e}"));
        assert!(resp.ok, "degraded recommend refused: {:?}", resp.error);
        assert_eq!(resp.degraded, Some(true), "partial answer must be flagged");
        assert_eq!(resp.missing_shards.as_deref(), Some(&[dead][..]));
        let rows = resp.recommendations.expect("degraded recommend still carries rows");
        assert!(!rows.is_empty(), "two live shards must contribute rows");
        let reference_resp = reference.submit(Request::recommend(user, items as usize));
        let full = reference_resp.recommendations.unwrap();
        for row in &rows {
            assert_ne!(map.shard_of_item(row.item), dead, "no row may come from the dead shard");
            let whole = full.iter().find(|r| r.item == row.item).expect("row exists in full list");
            assert_eq!(
                row.rating.to_bits(),
                whole.rating.to_bits(),
                "degraded rows are incomplete, never wrong"
            );
        }
    }

    let snap = client.snapshot();
    assert!(snap.degraded_responses > 0, "client must count its degraded answers");
    client.shutdown();
    reference.shutdown();
}

/// A TCP stub that accepts connections, records each request line's
/// `deadline_ms`, and never answers — a black hole with a tape recorder.
fn black_hole_recorder() -> (String, mpsc::Receiver<u64>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut lines = BufReader::new(stream).lines();
                while let Some(Ok(line)) = lines.next() {
                    let deadline = serde_json::from_str::<serde_json::Value>(&line)
                        .ok()
                        .and_then(|v| v.get("deadline_ms")?.as_u64());
                    if let Some(ms) = deadline {
                        let _ = tx.send(ms);
                    }
                    // …and never reply: the client's per-attempt timeout fires.
                }
            });
        }
    });
    (addr, rx)
}

/// `request_with_deadline` re-budgets every attempt from the *remaining*
/// wall-clock: the server sees a strictly shrinking `deadline_ms`, and the
/// whole call ends by the deadline instead of `attempts × timeout`.
#[test]
fn deadline_budget_shrinks_across_attempts_and_bounds_the_call() {
    let (addr, deadlines) = black_hole_recorder();
    let client = Client::new(
        vec![addr],
        ClientConfig {
            connect_timeout: Duration::from_millis(100),
            request_timeout: Duration::from_millis(120),
            retries: 10, // far more than the budget can fund
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            // Keep the breaker out of this test: it can't fill a window
            // this large within one request's attempts.
            breaker_window: 64,
            breaker_threshold: 64,
            probe_interval: None,
            seed: 7,
            ..ClientConfig::default()
        },
    );

    let budget = Duration::from_millis(300);
    let started = Instant::now();
    let outcome = client.request_with_deadline(Request::predict(0, 0), Instant::now() + budget);
    let took = started.elapsed();
    assert!(outcome.is_err(), "black-holed replica cannot produce an answer");
    assert!(
        took < budget + Duration::from_millis(200),
        "call must end near the deadline, not retries × timeout (took {took:?})"
    );

    let seen: Vec<u64> = deadlines.try_iter().collect();
    assert!(seen.len() >= 2, "budget of 300ms over 120ms attempts funds ≥2 attempts: {seen:?}");
    for pair in seen.windows(2) {
        assert!(
            pair[1] < pair[0],
            "later attempts must advertise strictly smaller deadline_ms: {seen:?}"
        );
    }
    assert!(seen[0] <= 300, "first advertised deadline_ms is capped by the budget: {seen:?}");
    client.shutdown();
}

/// A black-holed shard spends the scatter's *shared* deadline: the other
/// shards' sub-requests are unaffected and the whole scatter returns in
/// roughly one timeout, degraded around the silent shard.
#[test]
fn slow_shard_cannot_consume_another_shards_time() {
    let fx = trained_fixture_with(FixtureSpec::micro());
    let dep = ShardedDeployment::launch(&fx, 3, 1);

    // Re-point shard 2 at a black hole (accepts, never answers).
    let (hole, _deadlines) = black_hole_recorder();
    let mut topology = dep.topology();
    topology.replicas[2] = vec![hole];

    let timeout = Duration::from_millis(400);
    let client = ShardedClient::new(
        topology,
        ClientConfig {
            request_timeout: timeout,
            connect_timeout: Duration::from_millis(200),
            retries: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            ..quiet_cfg()
        },
    )
    .unwrap();

    let started = Instant::now();
    let resp = client
        .request(Request::recommend(0, 8))
        .expect("two live shards still produce a degraded answer");
    let took = started.elapsed();
    assert!(resp.ok);
    assert_eq!(resp.degraded, Some(true));
    assert_eq!(resp.missing_shards.as_deref(), Some(&[2u32][..]));
    assert!(
        took < timeout * 2,
        "scatter must end within the shared budget, not shards × timeout (took {took:?})"
    );
    client.shutdown();
}
