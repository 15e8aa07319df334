//! The headline resilience drill: three replicas serving one artifact,
//! one replica killed mid-burst — the client must finish the burst with
//! **zero** visible failures, open the dead replica's breaker, and after
//! the replica restarts (on a new port, behind the same stable proxy
//! address) recover it via health probes and route traffic back.
//!
//! Deterministic: the proxies are transparent (no probabilistic faults),
//! the client's jitter RNG is seeded, and every assertion is on ordered
//! request outcomes or monotone counters — no racing on exact counts.

use rrre_client::{Client, ClientConfig};
use rrre_serve::server::Server;
use rrre_serve::{Engine, EngineConfig, ModelArtifact, Request};
use rrre_testkit::chaos::ChaosProxy;
use rrre_testkit::{trained_fixture, TempDir};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn replica_from(dir: &TempDir) -> (Arc<Engine>, Server) {
    let artifact = ModelArtifact::load(dir.path()).unwrap();
    let engine = Arc::new(Engine::new(artifact, EngineConfig { workers: 2, ..EngineConfig::default() }));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    (engine, server)
}

#[test]
fn kill_one_of_three_mid_burst_zero_failures_then_breaker_recovers_on_restart() {
    // One artifact, three replicas serving it.
    let fx = trained_fixture();
    let dir = TempDir::new("failover-artifact");
    ModelArtifact::save(dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count()).unwrap();

    let (_engine_a, mut server_a) = replica_from(&dir);
    let (engine_b, mut server_b) = replica_from(&dir);
    let (_engine_c, mut server_c) = replica_from(&dir);

    // Each replica sits behind a transparent chaos proxy: the client's
    // endpoint addresses stay stable across the kill/restart cycle.
    let proxy_a = ChaosProxy::start(server_a.local_addr().to_string()).unwrap();
    let proxy_b = ChaosProxy::start(server_b.local_addr().to_string()).unwrap();
    let proxy_c = ChaosProxy::start(server_c.local_addr().to_string()).unwrap();

    let client = Client::new(
        vec![
            proxy_a.local_addr().to_string(),
            proxy_b.local_addr().to_string(),
            proxy_c.local_addr().to_string(),
        ],
        ClientConfig {
            connect_timeout: Duration::from_millis(300),
            request_timeout: Duration::from_millis(800),
            retries: 3,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(20),
            breaker_window: 4,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(60), // recovery must come from probes
            probe_interval: Some(Duration::from_millis(40)),
            probe_timeout: Duration::from_millis(250),
            seed: 0xFA110,
            ..ClientConfig::default()
        },
    );

    let users = fx.dataset.n_users as u32;
    let mut ok = 0usize;
    let mut engine_b = Some(engine_b);
    // Phase 1: burst with all replicas up; kill replica B mid-burst.
    for i in 0..30u32 {
        if i == 10 {
            server_b.stop();
            drop(engine_b.take());
        }
        let resp = client.request(Request::predict(i % users, 0)).unwrap_or_else(|e| {
            panic!("request {i} must not fail client-visibly: {e}")
        });
        assert!(resp.ok, "request {i} refused: {:?}", resp.error);
        ok += 1;
    }
    assert_eq!(ok, 30, "zero client-visible failures through the kill");

    // The killed replica's breaker must open (via failed attempts and/or
    // failed probes) and its probe verdict must go not-ready.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let snap = client.snapshot();
        if snap.replicas[1].breaker_open && !snap.replicas[1].probe_ready {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "breaker for the killed replica never opened: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(client.snapshot().replicas[1].breaker_opens >= 1);

    // Restart replica B on a brand-new port and swing the proxy over to
    // it — the client keeps the same endpoint address throughout.
    let (_engine_b2, mut server_b2) = replica_from(&dir);
    proxy_b.set_upstream(server_b2.local_addr().to_string());

    // Probes must close the breaker (cooldown is 60 s, so a half-open
    // trial cannot be the mechanism) and mark the replica ready again.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let snap = client.snapshot();
        if !snap.replicas[1].breaker_open && snap.replicas[1].probe_ready {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "probes never recovered the restarted replica: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Phase 2: traffic flows again, including to the recovered replica.
    let attempts_before = client.snapshot().replicas[1].attempts;
    for i in 0..9u32 {
        let resp = client.request(Request::predict(i % users, 0)).unwrap();
        assert!(resp.ok);
    }
    assert!(
        client.snapshot().replicas[1].attempts > attempts_before,
        "the recovered replica must receive traffic again"
    );

    client.shutdown();
    server_a.stop();
    server_b2.stop();
    server_c.stop();
}
