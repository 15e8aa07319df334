//! Chaos proxy: a TCP interposer that injects network faults between a
//! client and one upstream replica.
//!
//! The proxy is transparent until a test forces a fault:
//! [`ChaosProxy::force_once`] queues one for the next accepted connection
//! (FIFO), and [`ChaosProxy::set_forced`] applies one to every connection
//! until cleared, so a drill gets a *specific* fault at a *specific*
//! request. Nothing is random, so every chaos run replays.
//!
//! [`ChaosProxy::set_upstream`] retargets the proxy live, so a client can
//! keep one stable endpoint address while the replica behind it is
//! killed and restarted on a new port — exactly the failover drill the
//! resilience tests run.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often pump loops and the accept loop re-check the stop flag.
const POLL: Duration = Duration::from_millis(10);

/// One injected network fault, scoped to a single proxied connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Accept and read the client's bytes but never forward or respond —
    /// the connection is a black hole and the client must time out.
    Blackhole,
    /// Forward only a prefix of the first request chunk upstream — the
    /// server sees a mid-line disconnect — then drop the connection.
    TruncateRequest,
    /// Flip a byte in the first response chunk (the client must detect
    /// undecodable bytes instead of trusting the stream).
    CorruptResponse,
    /// Deliver the request upstream, then discard the response and drop
    /// the connection — the request **executed** but the client cannot
    /// know; the probe for retry-idempotency discipline.
    SwallowResponse,
}

/// Counters of what the proxy actually did (totals since start).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections black-holed.
    pub blackholed: u64,
    /// Connections whose request was truncated mid-line.
    pub truncated_requests: u64,
    /// Connections whose response was corrupted.
    pub corrupted: u64,
    /// Connections whose response was swallowed after delivery upstream.
    pub swallowed: u64,
}

#[derive(Default)]
struct StatCells {
    connections: AtomicU64,
    blackholed: AtomicU64,
    truncated_requests: AtomicU64,
    corrupted: AtomicU64,
    swallowed: AtomicU64,
}

struct Inner {
    stop: AtomicBool,
    upstream: Mutex<String>,
    forced_once: Mutex<VecDeque<Fault>>,
    forced_all: Mutex<Option<Fault>>,
    stats: StatCells,
}

impl Inner {
    /// Decides this connection's fault: the forced queue first, then the
    /// standing override; with neither, none.
    fn plan(&self) -> Option<Fault> {
        if let Some(f) = self.forced_once.lock().unwrap_or_else(|e| e.into_inner()).pop_front() {
            return Some(f);
        }
        *self.forced_all.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A running chaos proxy. Dropped or [`ChaosProxy::stop`]ped, it closes
/// its listener and joins its accept thread; per-connection pump threads
/// observe the stop flag within one poll interval.
pub struct ChaosProxy {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral loopback port in front of `upstream` and starts
    /// proxying, transparently until a fault is forced.
    pub fn start(upstream: impl Into<String>) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            stop: AtomicBool::new(false),
            upstream: Mutex::new(upstream.into()),
            forced_once: Mutex::new(VecDeque::new()),
            forced_all: Mutex::new(None),
            stats: StatCells::default(),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("rrre-chaos-accept".into())
                .spawn(move || accept_loop(&listener, &inner))?
        };
        Ok(Self { addr, inner, accept: Some(accept) })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Retargets the proxy to a new upstream address. Existing pumped
    /// connections keep their old upstream; new connections use the new
    /// one — which is exactly what a replica restart looks like to a
    /// client holding a stable endpoint.
    pub fn set_upstream(&self, upstream: impl Into<String>) {
        *self.inner.upstream.lock().unwrap_or_else(|e| e.into_inner()) = upstream.into();
    }

    /// Queues a fault for the next accepted connection (FIFO if called
    /// repeatedly).
    pub fn force_once(&self, fault: Fault) {
        self.inner.forced_once.lock().unwrap_or_else(|e| e.into_inner()).push_back(fault);
    }

    /// Sets (or with `None` clears) a fault applied to every subsequent
    /// connection that has no queued [`ChaosProxy::force_once`] fault.
    pub fn set_forced(&self, fault: Option<Fault>) {
        *self.inner.forced_all.lock().unwrap_or_else(|e| e.into_inner()) = fault;
    }

    /// What the proxy has done so far.
    pub fn stats(&self) -> ChaosStats {
        let s = &self.inner.stats;
        ChaosStats {
            connections: s.connections.load(Ordering::SeqCst),
            blackholed: s.blackholed.load(Ordering::SeqCst),
            truncated_requests: s.truncated_requests.load(Ordering::SeqCst),
            corrupted: s.corrupted.load(Ordering::SeqCst),
            swallowed: s.swallowed.load(Ordering::SeqCst),
        }
    }

    /// Stops accepting and joins the accept thread. Idempotent.
    pub fn stop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    while !inner.stop.load(Ordering::SeqCst) {
        let (client, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
                continue;
            }
            Err(_) => continue,
        };
        if client.set_nonblocking(false).is_err() {
            continue;
        }
        inner.stats.connections.fetch_add(1, Ordering::SeqCst);
        let plan = inner.plan();
        let upstream = inner.upstream.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let inner = Arc::clone(inner);
        let spawned = std::thread::Builder::new()
            .name("rrre-chaos-conn".into())
            .spawn(move || handle_conn(client, &upstream, plan, &inner));
        drop(spawned);
    }
}

fn handle_conn(client: TcpStream, upstream: &str, plan: Option<Fault>, inner: &Arc<Inner>) {
    match plan {
        Some(Fault::Blackhole) => {
            inner.stats.blackholed.fetch_add(1, Ordering::SeqCst);
            blackhole(client, inner);
        }
        other => {
            let Some(addr) = upstream.to_socket_addrs().ok().and_then(|mut a| a.next()) else {
                return;
            };
            let Ok(server) = TcpStream::connect_timeout(&addr, Duration::from_secs(1)) else {
                return; // upstream down: client sees an immediate close
            };
            pump_pair(client, server, other, inner);
        }
    }
}

/// Reads and discards client bytes until EOF or proxy stop; never writes.
fn blackhole(client: TcpStream, inner: &Arc<Inner>) {
    let _ = client.set_read_timeout(Some(POLL));
    let mut sink = [0u8; 4096];
    let mut client = client;
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        match client.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

/// What a pump does with one freshly read chunk.
enum Action {
    /// Forward the (possibly mutated) chunk and keep pumping.
    Forward,
    /// Forward the chunk, then tear the connection pair down.
    ForwardThenClose,
    /// Discard the chunk and tear the connection pair down.
    DropThenClose,
}

/// Bidirectional byte pump with per-direction fault hooks. Runs the
/// response direction on the current thread and the request direction on a
/// helper; when either direction ends, both sockets are shut down so the
/// other unblocks promptly.
fn pump_pair(client: TcpStream, server: TcpStream, fault: Option<Fault>, inner: &Arc<Inner>) {
    let done = Arc::new(AtomicBool::new(false));
    let c2s = (client.try_clone(), server.try_clone());
    let (Ok(client_read), Ok(server_write)) = c2s else { return };

    // Request direction: client → server.
    let req_handle = {
        let inner = Arc::clone(inner);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut first = true;
            pump(client_read, server_write, &inner, &done, move |chunk, stats| {
                let action = match fault {
                    Some(Fault::TruncateRequest) if first => {
                        stats.truncated_requests.fetch_add(1, Ordering::SeqCst);
                        // Cut mid-line: drop the trailing newline plus a
                        // couple of payload bytes so the server sees a
                        // partial line, then EOF.
                        let keep = chunk.len().saturating_sub(3).max(1).min(chunk.len());
                        chunk.truncate(keep);
                        Action::ForwardThenClose
                    }
                    _ => Action::Forward,
                };
                first = false;
                action
            });
        })
    };

    // Response direction: server → client.
    {
        let done = Arc::clone(&done);
        let mut first = true;
        pump(server, client, inner, &done, move |chunk, stats| {
            let action = match fault {
                Some(Fault::CorruptResponse) if first => {
                    stats.corrupted.fetch_add(1, Ordering::SeqCst);
                    if let Some(b) = chunk.first_mut() {
                        *b ^= 0x5A;
                    }
                    Action::Forward
                }
                Some(Fault::SwallowResponse) if first => {
                    stats.swallowed.fetch_add(1, Ordering::SeqCst);
                    Action::DropThenClose
                }
                _ => Action::Forward,
            };
            first = false;
            action
        });
    }
    let _ = req_handle.join();
}

/// One pump direction: read chunks from `from`, pass them through `fate`,
/// write survivors to `to`. Ends on EOF, hard error, proxy stop, or the
/// shared `done` flag (set whenever either direction decides to close);
/// on exit both sockets are shut down.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    inner: &Arc<Inner>,
    done: &Arc<AtomicBool>,
    mut fate: impl FnMut(&mut Vec<u8>, &StatCells) -> Action,
) {
    let _ = from.set_read_timeout(Some(POLL));
    let mut buf = [0u8; 4096];
    loop {
        if inner.stop.load(Ordering::SeqCst) || done.load(Ordering::SeqCst) {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {
                continue;
            }
            Err(_) => break,
        };
        let mut chunk = buf[..n].to_vec();
        match fate(&mut chunk, &inner.stats) {
            Action::Forward => {
                if to.write_all(&chunk).and_then(|_| to.flush()).is_err() {
                    break;
                }
            }
            Action::ForwardThenClose => {
                let _ = to.write_all(&chunk).and_then(|_| to.flush());
                break;
            }
            Action::DropThenClose => break,
        }
    }
    done.store(true, Ordering::SeqCst);
    let _ = from.shutdown(std::net::Shutdown::Both);
    let _ = to.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A trivial upstream echo-line server: answers every line with
    /// `ack:<line>`.
    fn echo_server() -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().unwrap();
                    let reader = BufReader::new(stream);
                    for line in reader.lines() {
                        let Ok(line) = line else { break };
                        if writer.write_all(format!("ack:{line}\n").as_bytes()).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        (addr, handle)
    }

    fn exchange_line(addr: &SocketAddr, line: &str, timeout: Duration) -> std::io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        let mut reader = BufReader::new(stream);
        let mut out = String::new();
        match reader.read_line(&mut out)? {
            0 => Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "closed")),
            _ if out.ends_with('\n') => Ok(out.trim_end().to_string()),
            _ => Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "truncated")),
        }
    }

    #[test]
    fn transparent_proxy_passes_lines_through() {
        let (upstream, _h) = echo_server();
        let proxy = ChaosProxy::start(upstream).unwrap();
        let out = exchange_line(&proxy.local_addr(), "hello", Duration::from_secs(1)).unwrap();
        assert_eq!(out, "ack:hello");
        assert_eq!(proxy.stats().connections, 1);
    }

    #[test]
    fn forced_faults_break_the_exchange_in_distinct_ways() {
        let (upstream, _h) = echo_server();
        let proxy = ChaosProxy::start(upstream).unwrap();
        let t = Duration::from_millis(300);

        proxy.force_once(Fault::TruncateRequest);
        assert!(exchange_line(&proxy.local_addr(), "a", t).is_err(), "a cut request must get no answer");

        proxy.force_once(Fault::SwallowResponse);
        assert!(exchange_line(&proxy.local_addr(), "b", t).is_err(), "swallowed response must look like EOF");

        proxy.force_once(Fault::CorruptResponse);
        let corrupted = exchange_line(&proxy.local_addr(), "c", t).unwrap();
        assert_ne!(corrupted, "ack:c", "corruption must alter the bytes");

        proxy.force_once(Fault::Blackhole);
        let err = exchange_line(&proxy.local_addr(), "d", t).unwrap_err();
        assert!(
            matches!(err.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "blackhole must time the client out, got {err:?}"
        );

        // And afterwards the proxy is transparent again.
        let out = exchange_line(&proxy.local_addr(), "e", t).unwrap();
        assert_eq!(out, "ack:e");

        let stats = proxy.stats();
        assert_eq!(stats.truncated_requests, 1);
        assert_eq!(stats.swallowed, 1);
        assert_eq!(stats.corrupted, 1);
        assert_eq!(stats.blackholed, 1);
    }

    #[test]
    fn set_upstream_retargets_new_connections() {
        let (up_a, _ha) = echo_server();
        let proxy = ChaosProxy::start(up_a).unwrap();
        let t = Duration::from_secs(1);
        assert_eq!(exchange_line(&proxy.local_addr(), "x", t).unwrap(), "ack:x");

        // Second upstream answers differently so retargeting is observable.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let up_b = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let mut writer = stream.try_clone().unwrap();
                let reader = BufReader::new(stream);
                for line in reader.lines() {
                    let Ok(line) = line else { break };
                    if writer.write_all(format!("B:{line}\n").as_bytes()).is_err() {
                        break;
                    }
                }
            }
        });
        proxy.set_upstream(up_b);
        assert_eq!(exchange_line(&proxy.local_addr(), "x", t).unwrap(), "B:x");
    }
}
