//! Pipelining correctness against the event-driven server core.
//!
//! One connection, many requests in flight: the server claims frames as
//! they decode, workers answer in **completion** order, and the client
//! must match responses back to requests by the correlation ids the wire
//! protocol echoes. These tests keep a window of 64 requests in flight on
//! one [`LineConn`], tracking the ids themselves, through a real engine +
//! TCP server and check that every id comes back
//! exactly once with the answer a direct engine call gives, that
//! per-request deadlines are honored independently of their neighbours in
//! the pipeline, and that a mid-pipeline `Crash` drill leaves every other
//! in-flight request answered or cleanly refused — never hung.

use rrre_client::LineConn;
use rrre_serve::server::{Server, ServerConfig};
use rrre_serve::{Engine, EngineConfig, ModelArtifact};
use rrre_testkit::{trained_fixture, TempDir};
use rrre_wire::{ErrorKind, Op, Request, Response};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

const RECV_TIMEOUT: Duration = Duration::from_secs(5);
const WINDOW: usize = 64;

fn serving_stack(tag: &str, cfg: EngineConfig) -> (TempDir, Arc<Engine>, Server) {
    let fx = trained_fixture();
    let dir = TempDir::new(tag);
    ModelArtifact::save(dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count()).unwrap();
    let artifact = ModelArtifact::load(dir.path()).unwrap();
    let engine = Arc::new(Engine::new(artifact, cfg));
    let server = Server::start_with(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig { max_inflight_per_conn: WINDOW, ..ServerConfig::default() },
    )
    .unwrap();
    (dir, engine, server)
}

/// One connection and the ids it has in flight.
struct Window {
    conn: LineConn,
    pending: HashSet<u64>,
}

impl Window {
    fn open(server: &Server) -> Self {
        let conn = LineConn::dial(&server.local_addr().to_string(), Duration::from_secs(1)).unwrap();
        Self { conn, pending: HashSet::new() }
    }

    /// Sends without waiting for anything; returns the request's id.
    fn send(&mut self, req: Request) -> u64 {
        let id = req.id.expect("every pipelined request carries an id");
        self.conn.send(&req, RECV_TIMEOUT).unwrap();
        assert!(self.pending.insert(id), "id {id} already in flight");
        id
    }

    /// Receives until the window is empty, keyed by id — tolerating (in
    /// fact expecting) completion-order arrival.
    fn drain_by_id(&mut self) -> HashMap<u64, Response> {
        let mut by_id = HashMap::new();
        while !self.pending.is_empty() {
            let resp = self.conn.recv(RECV_TIMEOUT).expect("every in-flight id must be answered");
            match resp.id {
                Some(id) if self.pending.remove(&id) => {
                    assert!(by_id.insert(id, resp).is_none(), "id {id} answered twice");
                }
                _ => panic!("response matched nothing in flight: {resp:?}"),
            }
        }
        by_id
    }
}

#[test]
fn sixty_four_in_flight_match_direct_engine_answers_by_id() {
    let (_dir, engine, mut server) = serving_stack(
        "pipeline-64",
        EngineConfig { workers: 4, ..EngineConfig::default() },
    );
    let mut client = Window::open(&server);

    // A mix of cheap Predicts and heavier Recommends so completion order
    // genuinely shuffles relative to submission order across 4 workers.
    let make_req = |i: usize| {
        if i.is_multiple_of(3) {
            Request::recommend(i as u32 % 2, 2)
        } else {
            Request::predict(i as u32 % 2, i as u32 % 2)
        }
    };
    let mut sent = Vec::new();
    for i in 0..WINDOW {
        // Non-contiguous explicit ids: correlation must not assume a dense
        // or ordered id space.
        let req = make_req(i).with_id(1000 + 7 * i as u64);
        sent.push((req.id.unwrap(), make_req(i)));
        client.send(req);
    }
    assert_eq!(client.pending.len(), WINDOW);

    let by_id = client.drain_by_id();
    assert_eq!(by_id.len(), WINDOW, "every id answered exactly once");
    for (id, req) in sent {
        let resp = &by_id[&id];
        assert!(resp.ok, "id {id} must succeed: {:?}", resp.error);
        // The pipelined answer is bit-identical to a direct engine call —
        // correlation ids route payloads, not just acks.
        let truth = engine.submit(req);
        assert_eq!(resp.prediction, truth.prediction, "id {id} got another request's payload");
        assert_eq!(
            resp.recommendations.as_ref().map(|r| r.iter().map(|x| x.item).collect::<Vec<_>>()),
            truth.recommendations.as_ref().map(|r| r.iter().map(|x| x.item).collect::<Vec<_>>()),
            "id {id} got another request's ranking"
        );
    }

    // The front-end counters saw the pipeline: a fresh Stats request on
    // the same connection reports this very socket as open and nothing
    // still in flight.
    let id = client.send(Request::stats().with_id(1));
    let by_id = client.drain_by_id();
    let stats = by_id[&id].stats.as_ref().expect("Stats carries a snapshot");
    assert!(stats.open_conns >= 1, "this connection must be counted open");
    // The gauge is decremented when the completion drains back to the
    // event loop, so the Stats request sees exactly itself in flight.
    assert_eq!(stats.pipelined_inflight, 1, "only the Stats request itself is in flight");
    server.stop();
}

#[test]
fn deadlines_are_honored_per_request_within_the_pipeline() {
    let (_dir, _engine, mut server) = serving_stack(
        "pipeline-deadlines",
        // One worker serializes the queue so queued neighbours genuinely
        // wait behind each other — the expired deadline must fail alone.
        EngineConfig { workers: 1, ..EngineConfig::default() },
    );
    let mut client = Window::open(&server);

    let mut expired = Vec::new();
    let mut generous = Vec::new();
    for i in 0..32u64 {
        let req = Request::predict(i as u32 % 2, i as u32 % 2).with_id(i);
        let req = if i % 4 == 0 {
            expired.push(i);
            // Already-expired deadline: must come back DeadlineExceeded,
            // without poisoning the requests pipelined around it.
            req.with_deadline_ms(0)
        } else {
            generous.push(i);
            req.with_deadline_ms(30_000)
        };
        client.send(req);
    }

    let by_id = client.drain_by_id();
    for id in expired {
        let resp = &by_id[&id];
        assert!(!resp.ok, "id {id} carried an expired deadline");
        assert_eq!(resp.kind, Some(ErrorKind::DeadlineExceeded), "id {id}: {resp:?}");
    }
    for id in generous {
        let resp = &by_id[&id];
        assert!(resp.ok, "id {id} had 30s of budget: {:?}", resp.error);
    }
    server.stop();
}

#[test]
fn oversized_frame_mid_pipeline_fails_alone_and_the_pipeline_keeps_answering() {
    use rrre_wire::MAX_LINE_BYTES;
    use rrre_testkit::fault::oversized_line;
    use std::io::{BufRead, BufReader, Write};

    let (_dir, engine, mut server) = serving_stack(
        "pipeline-oversized",
        EngineConfig { workers: 2, ..EngineConfig::default() },
    );

    // Three frames written back to back before reading anything: a valid
    // request, a line past the 16 KiB bound, another valid request. The
    // middle one must be refused *by itself* — a structured BadRequest
    // with a null id (its id is inside the bytes the server refused to
    // buffer) — while both real requests around it are answered.
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(RECV_TIMEOUT)).unwrap();
    let first = r#"{"op":"Predict","user":0,"item":0,"id":1}"#;
    let big = oversized_line(MAX_LINE_BYTES);
    let second = r#"{"op":"Predict","user":1,"item":1,"id":2}"#;
    assert!(big.len() > MAX_LINE_BYTES);
    stream.write_all(format!("{first}\n{big}\n{second}\n").as_bytes()).unwrap();

    let mut reader = BufReader::new(stream);
    let mut answered = std::collections::HashMap::new();
    let mut refused = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("every frame gets a response line");
        let resp: Response = serde_json::from_str(line.trim()).unwrap();
        match resp.id {
            Some(id) => {
                assert!(answered.insert(id, resp).is_none(), "id {id} answered twice");
            }
            None => refused.push(resp),
        }
    }

    let [oversized] = refused.as_slice() else {
        panic!("exactly one null-id refusal expected, got {refused:?}");
    };
    assert!(!oversized.ok);
    assert_eq!(oversized.kind, Some(ErrorKind::BadRequest), "{oversized:?}");
    for id in [1u64, 2] {
        let resp = &answered[&id];
        assert!(resp.ok, "request {id} around the oversized frame must succeed: {resp:?}");
        let truth = engine.submit(Request::predict(id as u32 - 1, id as u32 - 1));
        assert_eq!(resp.prediction, truth.prediction, "id {id} payload must be its own");
    }
    server.stop();
}

#[test]
fn mid_pipeline_crash_leaves_every_other_request_answered_or_refused() {
    let (_dir, _engine, mut server) = serving_stack(
        "pipeline-crash",
        EngineConfig {
            workers: 2,
            fault_injection: true,
            breaker_threshold: 1000, // the breaker must not steal this test
            panic_backoff: Duration::from_millis(10),
            ..EngineConfig::default()
        },
    );
    let mut client = Window::open(&server);

    let mut normal = Vec::new();
    let mut crash_id = 0;
    for i in 0..WINDOW as u64 {
        let req = if i == WINDOW as u64 / 2 {
            crash_id = i;
            Request { op: Op::Crash, ..Request::stats() }.with_id(i)
        } else {
            normal.push(i);
            Request::predict(i as u32 % 2, i as u32 % 2).with_id(i)
        };
        client.send(req);
    }

    // Every id — the crash included — must be answered; a worker panic
    // mid-batch may take co-batched neighbours down with it, but only to a
    // structured refusal, never to silence or a hang.
    let by_id = client.drain_by_id();
    assert_eq!(by_id.len(), WINDOW);
    let crash_resp = &by_id[&crash_id];
    assert!(!crash_resp.ok);
    assert_eq!(crash_resp.kind, Some(ErrorKind::Internal), "{crash_resp:?}");
    let mut answered = 0;
    for id in normal {
        let resp = &by_id[&id];
        if resp.ok {
            answered += 1;
        } else {
            assert!(
                matches!(
                    resp.kind,
                    Some(ErrorKind::Internal)
                        | Some(ErrorKind::Overloaded)
                        | Some(ErrorKind::Unavailable)
                ),
                "id {id} must fail structurally if at all: {resp:?}"
            );
        }
    }
    assert!(answered >= 1, "the surviving worker must keep answering around the crash");

    // The connection itself survived the drill: it speaks again.
    let id = client.send(Request::health().with_id(WINDOW as u64));
    let by_id = client.drain_by_id();
    assert!(by_id[&id].health.is_some(), "health must answer on the same connection");
    server.stop();
}
