//! Proof that the client's retries are idempotency-disciplined.
//!
//! A recording shim sits between the chaos proxy and a real engine and
//! logs every `(op, id)` the engine actually observes. The chaos proxy's
//! `SwallowResponse` fault delivers a request upstream and then destroys
//! the response — the one failure mode where the engine executed work the
//! client cannot confirm. The assertions:
//!
//! * an idempotent op is retried **with the same correlation id**, so the
//!   engine-side log shows the duplicate and the duplicate is harmless;
//! * a non-idempotent op (`Reload`) is *not* replayed — the engine
//!   observes exactly one execution and the client reports the ambiguous
//!   failure instead of guessing.

use rrre_client::{Client, ClientConfig, ErrorClass};
use rrre_wire::{decode_request, encode_response, Op};
use rrre_serve::{Engine, EngineConfig, ModelArtifact, Request};
use rrre_testkit::chaos::{ChaosConfig, ChaosProxy, Fault};
use rrre_testkit::{trained_fixture, TempDir};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Duration;

type OpLog = Arc<Mutex<Vec<(Op, Option<u64>)>>>;

/// A minimal TCP front end over a real [`Engine`] that records every
/// decodable request the engine is handed, in arrival order.
fn recording_server(engine: Arc<Engine>) -> (String, OpLog) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let log: OpLog = Arc::new(Mutex::new(Vec::new()));
    let accept_log = Arc::clone(&log);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let engine = Arc::clone(&engine);
            let log = Arc::clone(&accept_log);
            std::thread::spawn(move || {
                let mut writer = stream.try_clone().unwrap();
                let reader = BufReader::new(stream);
                for line in reader.lines() {
                    let Ok(line) = line else { break };
                    if line.trim().is_empty() {
                        continue;
                    }
                    if let Ok(req) = decode_request(&line) {
                        log.lock().unwrap().push((req.op, req.id));
                    }
                    let resp = engine.submit_line(&line);
                    let out = encode_response(&resp);
                    if writer.write_all(out.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
                        break;
                    }
                }
            });
        }
    });
    (addr, log)
}

fn stack(tag: &str) -> (TempDir, Arc<Engine>, ChaosProxy, OpLog, Client) {
    let fx = trained_fixture();
    let dir = TempDir::new(tag);
    ModelArtifact::save(dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count()).unwrap();
    let artifact = ModelArtifact::load(dir.path()).unwrap();
    let engine = Arc::new(Engine::new(artifact, EngineConfig { workers: 2, ..EngineConfig::default() }));
    let (addr, log) = recording_server(Arc::clone(&engine));
    let proxy = ChaosProxy::start(addr, ChaosConfig::default()).unwrap();
    let client = Client::new(
        vec![proxy.local_addr().to_string()],
        ClientConfig {
            connect_timeout: Duration::from_millis(300),
            request_timeout: Duration::from_millis(600),
            retries: 3,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(20),
            // No pooling: chaos faults are drawn per accepted connection,
            // so every request must dial fresh for the forced schedule to
            // line up with the request sequence.
            pool_per_replica: 0,
            seed: 0x1DE4,
            ..ClientConfig::default()
        },
    );
    (dir, engine, proxy, log, client)
}

#[test]
fn swallowed_response_forces_a_same_id_retry_for_idempotent_ops() {
    let (_dir, _engine, proxy, log, client) = stack("idem-swallow");
    proxy.force_once(Fault::SwallowResponse);

    let resp = client.request(Request::predict(0, 0)).unwrap();
    assert!(resp.ok, "the retry must recover the swallowed response: {:?}", resp.error);
    assert_eq!(client.snapshot().retries, 1);

    let observed = log.lock().unwrap().clone();
    let predicts: Vec<_> = observed.iter().filter(|(op, _)| *op == Op::Predict).collect();
    assert_eq!(predicts.len(), 2, "the engine must have seen the request twice: {observed:?}");
    assert_eq!(predicts[0].1, predicts[1].1, "the retry must reuse the correlation id");
    assert!(predicts[0].1.is_some(), "the client must have stamped an id");
}

#[test]
fn non_idempotent_reload_is_never_replayed_after_a_swallowed_response() {
    let (_dir, engine, proxy, log, client) = stack("idem-reload");
    let reloads_before = engine.stats().reloads;
    proxy.force_once(Fault::SwallowResponse);

    let err = client.request(Request::reload()).unwrap_err();
    assert_eq!(err.kind, ErrorClass::ConnectionLost, "the ambiguity must be surfaced, not hidden");
    assert_eq!(err.attempts, 1, "no second attempt may be made");

    let observed = log.lock().unwrap().clone();
    let reloads: Vec<_> = observed.iter().filter(|(op, _)| *op == Op::Reload).collect();
    assert_eq!(reloads.len(), 1, "the engine must see exactly one Reload: {observed:?}");
    assert_eq!(
        engine.stats().reloads,
        reloads_before + 1,
        "exactly one reload side effect must have happened"
    );
}

#[test]
fn chaotic_burst_produces_duplicates_only_for_idempotent_ops() {
    let (_dir, _engine, proxy, log, client) = stack("idem-burst");

    // Swallow every fifth connection's response: each swallow forces one
    // same-id retry. The schedule is forced (not probabilistic), so the
    // test is exactly reproducible.
    for i in 0..20u32 {
        if i % 5 == 0 {
            proxy.force_once(Fault::SwallowResponse);
        }
        let resp = client.request(Request::predict(i % 3, 0)).unwrap();
        assert!(resp.ok, "request {i} must survive the chaos: {:?}", resp.error);
    }

    let observed = log.lock().unwrap().clone();
    let mut by_id: std::collections::HashMap<u64, Vec<Op>> = std::collections::HashMap::new();
    for (op, id) in &observed {
        by_id.entry(id.expect("client stamps every request")).or_default().push(*op);
    }
    let duplicated: Vec<_> = by_id.values().filter(|ops| ops.len() > 1).collect();
    assert!(
        !duplicated.is_empty(),
        "the swallow schedule must have forced at least one duplicate: {observed:?}"
    );
    for ops in duplicated {
        for op in ops {
            assert!(
                op.is_idempotent(),
                "a non-idempotent op was replayed: {observed:?}"
            );
        }
    }
    assert_eq!(proxy.stats().swallowed, 4, "all four forced swallows must have fired");
}
