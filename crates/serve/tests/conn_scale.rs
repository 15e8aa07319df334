//! Connection-scale soak and idle reaping for the event-driven server core.
//!
//! `idle_reaping_closes_silent_and_loris_sockets_and_spares_active_ones`
//! pins the reaper on three sockets in the default gate. The soak ramps to
//! thousands of concurrent connections — a mix of fully idle
//! sockets, slow-loris writers parked mid-frame, and active requesters —
//! and asserts the properties a readiness-driven core must keep at scale:
//!
//! * **accept fairness**: a brand-new connection gets accepted and
//!   answered promptly while thousands of established sockets sit open;
//! * **no event-loop stalls**: a `Health` probe (answered inline on the
//!   loop thread, no worker hop) round-trips in well under 100 ms at every
//!   point of the ramp;
//! * **idle-timeout reaping**: once traffic stops, idle and loris sockets
//!   are closed by the per-tick idle sweep and the `open_conns` gauge
//!   collapses.
//!
//! The soak is `#[ignore]`d: it needs thousands of file descriptors (two
//! per connection — both ends live in this process) and several seconds of
//! wall clock. `scripts/ci.sh` runs it with a raised `ulimit -n`; the
//! in-test guard skips gracefully when the soft limit is too small.
//! `RRRE_CONN_SCALE` overrides the target connection count.

#![cfg(target_os = "linux")]

use rrre_serve::server::{Server, ServerConfig};
use rrre_serve::{Engine, EngineConfig, ModelArtifact};
use rrre_testkit::{trained_fixture, trained_fixture_with, FixtureSpec, TempDir};
use rrre_wire::{Request, Response};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const IDLE_TIMEOUT: Duration = Duration::from_secs(6);

/// Soft cap on open files, from `/proc/self/limits` (Linux-only, like the
/// epoll core under test).
fn max_open_files() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

fn target_conns() -> usize {
    std::env::var("RRRE_CONN_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(5000)
}

fn send_line(stream: &mut TcpStream, req: &Request) -> std::io::Result<()> {
    let mut line = serde_json::to_string(req).expect("Request serialises");
    line.push('\n');
    stream.write_all(line.as_bytes())
}

fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<Response> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    serde_json::from_str(line.trim())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .expect("connect must succeed under the connection cap");
    stream.set_nodelay(true).unwrap();
    stream
}

/// One request–response round trip on a fresh connection, returning the
/// elapsed time.
fn fresh_roundtrip(addr: SocketAddr, req: &Request) -> Duration {
    let started = Instant::now();
    let mut stream = connect(addr);
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    send_line(&mut stream, req).unwrap();
    let mut reader = BufReader::new(stream);
    let resp = read_response(&mut reader).expect("fresh connection must be answered");
    assert!(resp.ok, "fresh connection refused: {:?}", resp.error);
    started.elapsed()
}

/// Blocks until the server closes `stream` (a read returns 0) and returns
/// how long that took from `since`; fails if it stays open past `budget`.
fn wait_for_reap(stream: &mut TcpStream, since: Instant, budget: Duration) -> Duration {
    stream.set_read_timeout(Some(budget)).unwrap();
    let mut byte = [0u8; 16];
    match stream.read(&mut byte) {
        Ok(0) => since.elapsed(),
        Ok(n) => panic!("got {n} unexpected bytes instead of a reap"),
        Err(e) => panic!("not reaped within {budget:?}: {e}"),
    }
}

#[test]
fn idle_reaping_closes_silent_and_loris_sockets_and_spares_active_ones() {
    const IDLE: Duration = Duration::from_millis(300);
    let fx = trained_fixture_with(FixtureSpec::micro());
    let dir = TempDir::new("idle-reap");
    ModelArtifact::save(dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count()).unwrap();
    let engine = Arc::new(Engine::new(
        ModelArtifact::load(dir.path()).unwrap(),
        EngineConfig { workers: 1, ..EngineConfig::default() },
    ));
    let mut server = Server::start_with(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig { idle_timeout: Some(IDLE), ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr();

    // An active socket: one request every ~100 ms for 3× the timeout, then
    // one more. Every answer proves the connection was never reaped.
    let active = std::thread::spawn(move || {
        let mut stream = connect(addr);
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let started = Instant::now();
        loop {
            let last = started.elapsed() > 3 * IDLE;
            send_line(&mut stream, &Request::health()).unwrap();
            let resp = read_response(&mut reader).expect("an active socket must stay open");
            assert!(resp.ok, "{:?}", resp.error);
            if last {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });

    // A silent socket, and a slow loris: half a frame, then nothing. The
    // server's idle clock starts no earlier than `since`, so neither may
    // close before the timeout; both must close within a few of them.
    let since = Instant::now();
    let mut silent = connect(addr);
    let mut loris = connect(addr);
    loris.write_all(b"{\"op\":\"Pre").unwrap();
    for (name, stream) in [("silent", &mut silent), ("loris", &mut loris)] {
        let took = wait_for_reap(stream, since, 6 * IDLE);
        assert!(took >= IDLE, "{name} socket reaped after {took:?}, before the {IDLE:?} timeout");
    }

    active.join().unwrap();
    server.stop();
    engine.shutdown();
}

#[test]
#[ignore = "needs thousands of fds and seconds of wall clock; run via scripts/ci.sh"]
fn five_thousand_connections_stay_fair_responsive_and_reapable() {
    let target = target_conns();
    // Two fds per connection (client + server end share this process),
    // plus generous slack for the fixture, probe and accept-fairness
    // churn.
    let needed = 2 * target as u64 + 512;
    match max_open_files() {
        Some(soft) if soft >= needed => {}
        Some(soft) => {
            eprintln!(
                "skipping: soft fd limit {soft} < {needed} needed for {target} connections \
                 (raise with `ulimit -n` or shrink with RRRE_CONN_SCALE)"
            );
            return;
        }
        None => {
            eprintln!("skipping: /proc/self/limits unreadable");
            return;
        }
    }

    let fx = trained_fixture();
    let dir = TempDir::new("conn-scale");
    ModelArtifact::save(dir.path(), &fx.dataset, &fx.corpus, &fx.model, fx.min_count()).unwrap();
    let artifact = ModelArtifact::load(dir.path()).unwrap();
    let engine = Arc::new(Engine::new(
        artifact,
        EngineConfig { workers: 2, ..EngineConfig::default() },
    ));
    let mut server = Server::start_with(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: target + 64,
            idle_timeout: Some(IDLE_TIMEOUT),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // The stall probe: `Health` is intercepted inline on the event-loop
    // thread (no worker hop), so its round trip is a direct measurement of
    // loop responsiveness. It runs through the whole ramp; to stay alive
    // under the idle timeout it is, by construction, never idle.
    let probe_stop = Arc::new(AtomicBool::new(false));
    let probe = {
        let stop = Arc::clone(&probe_stop);
        std::thread::spawn(move || -> Duration {
            let mut stream = connect(addr);
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut worst = Duration::ZERO;
            while !stop.load(Ordering::Relaxed) {
                let started = Instant::now();
                send_line(&mut stream, &Request::health()).unwrap();
                read_response(&mut reader).expect("probe must always be answered");
                worst = worst.max(started.elapsed());
                std::thread::sleep(Duration::from_millis(10));
            }
            worst
        })
    };

    // The ramp: ~80% fully idle, ~10% slow loris (a partial frame, then
    // silence), ~10% active (one answered request, then idle). All of them
    // stay open — the point is the standing population.
    let mut idle = Vec::new();
    let mut loris = Vec::new();
    let mut active = Vec::new();
    let ramp_started = Instant::now();
    for i in 0..target {
        match i % 10 {
            0 => {
                let mut stream = connect(addr);
                // Half a frame: valid JSON prefix, no newline. The decoder
                // buffers it as a partial and the reaper must still claim
                // the socket later.
                stream.write_all(b"{\"op\":\"Pre").unwrap();
                loris.push(stream);
            }
            1 => {
                let mut stream = connect(addr);
                stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                send_line(&mut stream, &Request::predict(i as u32 % 2, i as u32 % 2)).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let resp = read_response(&mut reader).expect("active conn must be answered");
                assert!(resp.ok, "active request failed at conn {i}: {:?}", resp.error);
                active.push(stream);
            }
            _ => idle.push(connect(addr)),
        }
    }
    assert_eq!(idle.len() + loris.len() + active.len(), target);
    // The idle clock starts from each socket's last bytes, so a ramp
    // slower than the timeout would have early conns reaped mid-test —
    // that's an environment problem, not a server one.
    assert!(
        ramp_started.elapsed() < IDLE_TIMEOUT,
        "ramp to {target} conns took {:?} (≥ idle timeout {IDLE_TIMEOUT:?}); \
         rerun with a smaller RRRE_CONN_SCALE on this machine",
        ramp_started.elapsed()
    );
    // Refresh every standing socket's activity clock so the reap window
    // measured below starts *now*, not at each socket's connect time. A
    // blank line is a no-op frame (the server skips it); the loris conns
    // get one more mid-frame byte, staying parked on a partial.
    for stream in &mut idle {
        stream.write_all(b"\n").unwrap();
    }
    for stream in &mut loris {
        stream.write_all(b"d").unwrap();
    }
    for stream in &mut active {
        stream.write_all(b"\n").unwrap();
    }
    let refreshed_at = Instant::now();

    // Accept fairness: with `target` sockets established, a newcomer is
    // accepted and answered promptly. 25 fresh round trips, each bounded.
    for _ in 0..25 {
        let took = fresh_roundtrip(addr, &Request::predict(0, 0));
        assert!(
            took < Duration::from_secs(1),
            "fresh connection starved behind {target} standing conns: {took:?}"
        );
    }

    // The standing population really is standing: the server-side gauge
    // counts the ramp plus the probe (fresh conns above are closed; their
    // teardown may still be in flight, hence the small slack).
    let stats_resp = {
        let mut stream = connect(addr);
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        send_line(&mut stream, &Request::stats()).unwrap();
        read_response(&mut BufReader::new(stream)).unwrap()
    };
    let open = stats_resp.stats.as_ref().expect("Stats carries a snapshot").open_conns;
    assert!(
        open >= target as u64 && open <= target as u64 + 32,
        "open_conns gauge {open} does not reflect the ~{target} standing connections"
    );

    // Zero event-loop stalls: stop the probe and check its worst round
    // trip. 100 ms is the acceptance bound; an accept burst of `target`
    // connections plus epoll churn must not block the loop anywhere.
    probe_stop.store(true, Ordering::Relaxed);
    let worst = probe.join().unwrap();
    assert!(
        worst < Duration::from_millis(100),
        "event loop stalled: worst Health round trip {worst:?} ≥ 100ms"
    );

    // Reaping: all ramp sockets now go silent. Within the idle timeout
    // plus sweep-tick slack, the server closes them — observed as
    // EOF on a sample of client ends and a collapsed gauge.
    let reap_deadline = refreshed_at + IDLE_TIMEOUT + Duration::from_secs(7);
    let mut sample: Vec<TcpStream> = Vec::new();
    sample.extend(idle.drain(..).take(20));
    sample.extend(loris.drain(..).take(20));
    sample.extend(active.drain(..).take(20));
    for stream in &mut sample {
        let budget = reap_deadline.saturating_duration_since(Instant::now()).max(
            Duration::from_millis(1),
        );
        wait_for_reap(stream, Instant::now(), budget);
    }
    // The gauge collapses to (roughly) just the Stats connection below;
    // stragglers within one sweep tick are tolerated.
    let collapsed_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut stream = connect(addr);
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        send_line(&mut stream, &Request::stats()).unwrap();
        let resp = read_response(&mut BufReader::new(stream)).unwrap();
        let open = resp.stats.as_ref().unwrap().open_conns;
        if open <= 64 {
            break;
        }
        assert!(
            Instant::now() < collapsed_deadline,
            "idle reaping left {open} of ~{target} connections open"
        );
        std::thread::sleep(Duration::from_millis(200));
    }

    drop(idle);
    drop(loris);
    drop(active);
    server.stop();
    engine.shutdown();
}
