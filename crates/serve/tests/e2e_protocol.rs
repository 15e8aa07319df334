//! End-to-end acceptance: train a tiny model → write an artifact → load it
//! into an engine → serve it over TCP → drive concurrent clients through
//! the wire protocol → every answer matches direct `rrre_core` calls, and
//! the cache counters prove warm predictions skip the towers.

use rrre_data::{ItemId, UserId};
use rrre_wire::{ErrorKind, Response};
use rrre_serve::{Engine, EngineConfig, ModelArtifact, Server};
use rrre_testkit::{trained_fixture, TempDir};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Response {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.ends_with('\n'), "responses are newline-terminated");
    serde_json::from_str(&reply).expect("response must be valid JSON")
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

#[test]
fn full_pipeline_train_checkpoint_serve_query() {
    // Train → artifact on disk → fresh process-equivalent load.
    let fx = trained_fixture();
    let dir = TempDir::new("e2e");
    ModelArtifact::save(dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count()).unwrap();
    let artifact = ModelArtifact::load(dir.path()).unwrap();
    drop(dir);

    let engine = Arc::new(Engine::new(
        artifact,
        EngineConfig {
            workers: 3,
            max_batch: 8,
            max_wait: Duration::from_micros(500),
            cache_shards: 8,
            ..EngineConfig::default()
        },
    ));
    let mut server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // --- Concurrent clients over real sockets -------------------------------
    let n_users = fx.dataset.n_users as u32;
    let n_items = fx.dataset.n_items as u32;
    let clients: Vec<_> = (0..4u32)
        .map(|c| {
            std::thread::spawn(move || {
                let (mut stream, mut reader) = connect(addr);
                let mut out = Vec::new();
                for r in 0..20u32 {
                    let user = (c * 5 + r) % n_users;
                    let item = (c + r * 2) % n_items;
                    let resp = roundtrip(
                        &mut stream,
                        &mut reader,
                        &format!(r#"{{"op":"Predict","user":{user},"item":{item},"id":{r}}}"#),
                    );
                    assert!(resp.ok, "predict failed: {:?}", resp.error);
                    assert_eq!(resp.id, Some(u64::from(r)), "pipelined replies arrive in order");
                    out.push((user, item, resp.prediction.unwrap()));
                }
                out
            })
        })
        .collect();

    for client in clients {
        for (user, item, dto) in client.join().expect("client thread panicked") {
            let reference = fx.model.predict(&fx.corpus, UserId(user), ItemId(item));
            assert_eq!(dto.rating, reference.rating, "wire rating diverged for ({user}, {item})");
            assert_eq!(dto.reliability, reference.reliability);
        }
    }

    let (mut stream, mut reader) = connect(addr);

    // --- Recommend and explain match rrre_core exactly ----------------------
    let resp = roundtrip(&mut stream, &mut reader, r#"{"op":"Recommend","user":0,"k":3}"#);
    assert!(resp.ok);
    let wire_recs = resp.recommendations.unwrap();
    let direct = rrre_core::recommend(&fx.model, &fx.dataset, &fx.corpus, UserId(0), 3);
    assert_eq!(wire_recs.len(), direct.len());
    for (w, d) in wire_recs.iter().zip(&direct) {
        assert_eq!(w.item, d.item.0);
        assert_eq!(w.item_name, d.item_name);
        assert_eq!(w.rating, d.rating);
        assert_eq!(w.reliability, d.reliability);
    }

    let resp = roundtrip(&mut stream, &mut reader, r#"{"op":"Explain","item":0,"k":2}"#);
    assert!(resp.ok);
    let wire_ex = resp.explanations.unwrap();
    let direct = rrre_core::explain(&fx.model, &fx.dataset, &fx.corpus, ItemId(0), 2);
    assert_eq!(wire_ex.len(), direct.len());
    for (w, d) in wire_ex.iter().zip(&direct) {
        assert_eq!(w.review_idx, d.review_idx);
        assert_eq!(w.text, d.text);
        assert_eq!(w.rating, d.rating);
        assert_eq!(w.reliability, d.reliability);
        assert_eq!(w.filtered, d.filtered);
    }

    // --- Warm-cache proof over the wire -------------------------------------
    let before: Response = roundtrip(&mut stream, &mut reader, r#"{"op":"Stats"}"#);
    let before = before.stats.unwrap();
    for _ in 0..5 {
        let r = roundtrip(&mut stream, &mut reader, r#"{"op":"Predict","user":0,"item":0}"#);
        assert!(r.ok);
    }
    let after: Response = roundtrip(&mut stream, &mut reader, r#"{"op":"Stats"}"#);
    let after = after.stats.unwrap();
    // Pair (0,0) was warmed by the recommend sweep above: five repeats add
    // zero tower evaluations — the review encoder and towers never run on
    // the warm path.
    assert_eq!(after.tower_evals, before.tower_evals, "warm predicts must not evaluate towers");
    assert_eq!(after.requests, before.requests + 6);
    assert!(after.cache_hit_rate > 0.0);
    assert!(after.p99_latency_us > 0);

    // --- Protocol robustness -------------------------------------------------
    let resp = roundtrip(&mut stream, &mut reader, "this is not json");
    assert!(!resp.ok, "malformed lines get error responses, not dropped connections");
    assert!(resp.error.unwrap().contains("bad request"));

    let resp = roundtrip(&mut stream, &mut reader, r#"{"op":"Predict","user":0}"#);
    assert!(!resp.ok, "missing item must be an error");

    // The connection still works after errors.
    let resp = roundtrip(&mut stream, &mut reader, r#"{"op":"Predict","user":0,"item":0}"#);
    assert!(resp.ok);

    // --- The retired eviction op is refused like any unknown op --------------
    // Tower caches live exactly as long as their generation, so there is
    // nothing to evict; the refusal leaves the connection serving.
    let resp = roundtrip(&mut stream, &mut reader, r#"{"op":"Invalidate","user":0,"item":0,"id":5}"#);
    assert!(!resp.ok);
    assert_eq!(resp.kind, Some(ErrorKind::BadRequest));
    assert_eq!(resp.id, Some(5), "the id is recovered from the refused line");
    assert!(resp.error.unwrap().contains("Invalidate"), "the refusal names the op");
    let resp = roundtrip(&mut stream, &mut reader, r#"{"op":"Predict","user":0,"item":0}"#);
    assert!(resp.ok, "{:?}", resp.error);

    // --- Graceful teardown ----------------------------------------------------
    drop(stream);
    server.stop();
    engine.shutdown();
    let stats = engine.stats();
    // The malformed and the unknown-op lines were answered before reaching
    // the engine; only the missing-item request counts as an engine error.
    assert_eq!(stats.errors, 1, "exactly the one deliberate engine error");
    assert!(stats.deadline_misses == 0);
}
