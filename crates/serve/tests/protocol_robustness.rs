//! Serve-boundary robustness: malformed, oversized, truncated and
//! adversarial client behaviour must surface as *structured* protocol
//! errors — never a panic, never a silently dropped connection, and never
//! unbounded buffering.

use rrre_wire::{Response, MAX_LINE_BYTES};
use rrre_serve::{Engine, EngineConfig, ModelArtifact, Server};
use rrre_testkit::fault::{oversized_line, roundtrip_line, send_partial_line};
use rrre_testkit::{trained_fixture, TempDir};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn served_engine(tag: &str) -> (Arc<Engine>, Server) {
    let fx = trained_fixture();
    let dir = TempDir::new(tag);
    ModelArtifact::save(dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count()).unwrap();
    let artifact = ModelArtifact::load(dir.path()).unwrap();
    let engine = Arc::new(Engine::new(
        artifact,
        EngineConfig { workers: 2, max_batch: 4, max_wait: Duration::from_micros(500), cache_shards: 2, ..EngineConfig::default() },
    ));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    (engine, server)
}

fn parse(reply: &str) -> Response {
    serde_json::from_str(reply.trim()).unwrap_or_else(|e| panic!("not a protocol response: {reply:?} ({e})"))
}

#[test]
fn oversized_line_gets_error_and_connection_survives() {
    let (_engine, mut server) = served_engine("oversized");
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // A line well past the bound: the server must answer with a structured
    // error naming the limit, without buffering the whole line.
    let big = oversized_line(4 * MAX_LINE_BYTES);
    stream.write_all(big.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let resp = parse(&reply);
    assert!(!resp.ok);
    assert!(resp.error.as_deref().unwrap().contains(&MAX_LINE_BYTES.to_string()), "{resp:?}");

    // The oversized line was fully discarded: the same connection keeps
    // speaking the protocol.
    stream.write_all(b"{\"op\":\"Stats\"}\n").unwrap();
    stream.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let resp = parse(&reply);
    assert!(resp.ok, "connection must stay usable after an oversized line: {resp:?}");
    assert!(resp.stats.is_some());

    server.stop();
}

#[test]
fn partial_line_at_disconnect_gets_best_effort_error() {
    let (_engine, mut server) = served_engine("partial");
    let addr = server.local_addr();

    // Client dies mid-request: 12 bytes of a valid predict line, no
    // newline, then the write half closes. The server answers with a parse
    // error instead of closing silently.
    let line = r#"{"op":"Predict","user":0,"item":0}"#;
    let reply = send_partial_line(addr, line, 12).unwrap();
    let resp = parse(&reply);
    assert!(!resp.ok);
    assert!(resp.error.as_deref().unwrap().contains("bad request"), "{resp:?}");

    // A *complete* line without a trailing newline before shutdown is still
    // served — the payload was all there.
    let reply = send_partial_line(addr, line, line.len()).unwrap();
    let resp = parse(&reply);
    assert!(resp.ok, "complete unterminated line must be served: {resp:?}");
    assert!(resp.prediction.is_some());

    server.stop();
}

#[test]
fn unknown_fields_and_malformed_json_get_structured_errors() {
    let (_engine, mut server) = served_engine("unknown-fields");
    let addr = server.local_addr();

    let resp = parse(&roundtrip_line(addr, r#"{"op":"Predict","user":0,"item":0,"speed":"max"}"#).unwrap());
    assert!(!resp.ok);
    assert!(resp.error.as_deref().unwrap().contains("speed"), "{resp:?}");

    let resp = parse(&roundtrip_line(addr, r#"[{"op":"Stats"}]"#).unwrap());
    assert!(!resp.ok);
    assert!(resp.error.as_deref().unwrap().contains("object"), "{resp:?}");

    let resp = parse(&roundtrip_line(addr, "\u{7f}garbage\u{1}").unwrap());
    assert!(!resp.ok);

    server.stop();
}

#[test]
fn abrupt_disconnects_do_not_poison_the_server() {
    let (engine, mut server) = served_engine("disconnect");
    let addr = server.local_addr();

    // A batch of clients that connect, maybe write a fragment, and vanish.
    for i in 0..8 {
        let mut stream = TcpStream::connect(addr).unwrap();
        if i % 2 == 0 {
            let _ = stream.write_all(b"{\"op\":\"Pre");
        }
        drop(stream);
    }

    // The server still serves real clients afterwards.
    let resp = parse(&roundtrip_line(addr, r#"{"op":"Predict","user":1,"item":1}"#).unwrap());
    assert!(resp.ok, "server must survive abrupt disconnects: {resp:?}");
    assert!(resp.prediction.is_some());

    server.stop();
    engine.shutdown();
}
