//! Chaos-proxy drills against a real engine + TCP server: network faults
//! between client and server must never corrupt results, wedge the
//! server, or surface as client-visible failures while retry budget
//! remains.
//!
//! All faults are injected by [`rrre_testkit::chaos::ChaosProxy`] with
//! forced schedules, so each test exercises one specific failure at one
//! specific request — no probabilistic flakiness.

use rrre_client::{Client, ClientConfig};
use rrre_serve::server::Server;
use rrre_serve::{Engine, EngineConfig, ModelArtifact, Request};
use rrre_testkit::chaos::{ChaosProxy, Fault};
use rrre_testkit::{trained_fixture, TempDir};
use std::sync::Arc;
use std::time::Duration;

fn serving_stack(tag: &str) -> (TempDir, Arc<Engine>, Server) {
    let fx = trained_fixture();
    let dir = TempDir::new(tag);
    ModelArtifact::save(dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count()).unwrap();
    let artifact = ModelArtifact::load(dir.path()).unwrap();
    let engine = Arc::new(Engine::new(artifact, EngineConfig { workers: 2, ..EngineConfig::default() }));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    (dir, engine, server)
}

fn quick_client(addrs: Vec<String>) -> Client {
    Client::new(
        addrs,
        ClientConfig {
            connect_timeout: Duration::from_millis(300),
            request_timeout: Duration::from_millis(500),
            retries: 3,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(20),
            breaker_threshold: 2,
            breaker_window: 4,
            breaker_cooldown: Duration::from_secs(30),
            seed: 11,
            ..ClientConfig::default()
        },
    )
}

#[test]
fn mid_line_disconnect_is_retried_and_the_server_keeps_serving() {
    let (_dir, engine, mut server) = serving_stack("chaos-midline");
    let proxy = ChaosProxy::start(server.local_addr().to_string()).unwrap();
    proxy.force_once(Fault::TruncateRequest);

    let client = quick_client(vec![proxy.local_addr().to_string()]);
    let resp = client.request(Request::predict(0, 0)).unwrap();
    assert!(resp.ok, "retry must absorb the mid-line disconnect: {:?}", resp.error);
    let snap = client.snapshot();
    assert!(snap.retries >= 1, "the truncated attempt must have been retried");
    assert_eq!(proxy.stats().truncated_requests, 1);

    // The server shrugged off the partial line: direct traffic still works.
    let direct = engine.submit(Request::predict(1, 0));
    assert!(direct.ok, "server must keep serving after a mid-line disconnect");
    server.stop();
}

#[test]
fn corrupted_response_bytes_are_rejected_and_retried() {
    let (_dir, engine, mut server) = serving_stack("chaos-corrupt");
    let proxy = ChaosProxy::start(server.local_addr().to_string()).unwrap();
    proxy.force_once(Fault::CorruptResponse);

    let client = quick_client(vec![proxy.local_addr().to_string()]);
    let resp = client.request(Request::predict(0, 0)).unwrap();
    assert!(resp.ok, "corruption must be survived via retry: {:?}", resp.error);
    assert_eq!(proxy.stats().corrupted, 1, "the fault must actually have fired");
    assert!(client.snapshot().retries >= 1);

    // The recovered answer equals the engine's own (the client never
    // returned the corrupted bytes as data).
    let truth = engine.submit(Request::predict(0, 0));
    assert_eq!(resp.prediction, truth.prediction);
    server.stop();
}

#[test]
fn blackholed_replica_times_out_opens_its_breaker_and_traffic_fails_over() {
    let (_dir_a, _engine_a, mut server_a) = serving_stack("chaos-blackhole-a");
    let (_dir_b, _engine_b, mut server_b) = serving_stack("chaos-blackhole-b");
    let proxy_a = ChaosProxy::start(server_a.local_addr().to_string()).unwrap();
    let proxy_b = ChaosProxy::start(server_b.local_addr().to_string()).unwrap();
    proxy_a.set_forced(Some(Fault::Blackhole));

    let client = quick_client(vec![
        proxy_a.local_addr().to_string(),
        proxy_b.local_addr().to_string(),
    ]);
    for i in 0..6 {
        let resp = client.request(Request::predict(i % 3, 0)).unwrap();
        assert!(resp.ok, "failover must hide the blackholed replica: {:?}", resp.error);
    }
    let snap = client.snapshot();
    assert!(snap.replicas[0].breaker_open, "the blackholed replica's breaker must be open");
    assert!(snap.replicas[0].breaker_opens >= 1);
    assert!(
        snap.replicas[0].failures >= 2,
        "timeouts against the blackhole must be recorded: {snap:?}"
    );
    assert!(snap.replicas[1].attempts >= 6, "the healthy replica must have absorbed the traffic");
    assert!(proxy_a.stats().blackholed >= 2, "attempts must actually have been blackholed");
    server_a.stop();
    server_b.stop();
}
