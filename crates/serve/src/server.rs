//! The TCP front end: newline-delimited JSON over an event-driven core.
//!
//! One event-loop thread (the private `event_loop` module) owns the
//! listener and every connection, registered with an epoll instance
//! ([`crate::sys`]) —
//! no thread per connection, so the front end scales to thousands of
//! concurrent sockets. Reads are nonblocking into per-connection
//! incremental NDJSON buffers ([`crate::frame::FrameDecoder`]); requests
//! pipeline freely up to [`ServerConfig::max_inflight_per_conn`] per
//! connection; responses are flushed with `writev`, batching queued
//! frames into single syscalls, and leave in **completion** order —
//! pipelining clients match responses to requests by the correlation ids
//! the wire protocol echoes.
//!
//! Overload, backpressure, and shutdown are all explicit:
//!
//! * connections past [`ServerConfig::max_connections`] get one
//!   structured `unavailable` response and are closed;
//! * a connection whose queued output exceeds
//!   [`ServerConfig::write_buffer_cap`], or with its in-flight quota
//!   full, stops being read — the kernel receive buffer fills and TCP
//!   pushes back on the peer, bounding server memory per connection;
//! * idle connections are reaped by a timer wheel ([`crate::timer`])
//!   after [`ServerConfig::idle_timeout`], when one is configured (the
//!   default, `None`, keeps the historical never-reap behavior);
//! * [`Server::stop`] is idempotent: it marks the engine draining, wakes
//!   the loop, stops accepting and reading, and gives queued + in-flight
//!   work up to [`ServerConfig::drain_deadline`] to flush before closing
//!   everything.

use crate::engine::Engine;
use crate::event_loop::{self, Notifier};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Front-end limits and shutdown pacing.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Concurrent connections served; excess connections receive one
    /// structured `unavailable` response and are closed.
    pub max_connections: usize,
    /// The event loop's poll tick: the upper bound on how long the loop
    /// sleeps with nothing to do, and therefore on how late it can notice
    /// the stop flag if the wakeup pipe ever fails.
    pub read_timeout: Duration,
    /// How long [`Server::stop`] waits for queued and in-flight work to
    /// drain before closing connections anyway.
    pub drain_deadline: Duration,
    /// Reap connections idle (no bytes received) this long. `None` — the
    /// default — never reaps, matching the thread-per-connection core this
    /// one replaced.
    pub idle_timeout: Option<Duration>,
    /// Requests one connection may have in flight before the loop stops
    /// reading it (per-connection pipelining backpressure).
    pub max_inflight_per_conn: usize,
    /// Queued response bytes per connection before the loop stops reading
    /// it (write backpressure for slow readers).
    pub write_buffer_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 256,
            read_timeout: Duration::from_millis(100),
            drain_deadline: Duration::from_secs(2),
            idle_timeout: None,
            max_inflight_per_conn: 64,
            write_buffer_cap: 256 * 1024,
        }
    }
}

/// A running TCP front end over an [`Engine`].
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    event_loop: Option<JoinHandle<()>>,
    /// Kept so [`Server::stop`] can flip the engine's draining flag the
    /// moment shutdown begins — health probes see not-ready while
    /// in-flight work is still finishing.
    engine: Arc<Engine>,
    /// Wakes the event loop out of `epoll_wait` for shutdown.
    notifier: Arc<Notifier>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// with default [`ServerConfig`] limits.
    pub fn start(engine: Arc<Engine>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::start_with(engine, addr, ServerConfig::default())
    }

    /// [`Server::start`] with explicit limits.
    pub fn start_with(
        engine: Arc<Engine>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Self> {
        assert!(cfg.max_connections >= 1, "Server: max_connections must be ≥ 1");
        assert!(!cfg.read_timeout.is_zero(), "Server: read_timeout must be non-zero");
        assert!(cfg.max_inflight_per_conn >= 1, "Server: max_inflight_per_conn must be ≥ 1");
        assert!(cfg.write_buffer_cap >= 1, "Server: write_buffer_cap must be ≥ 1");
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        let notifier = Arc::new(Notifier::new(wake_tx));
        let stop = Arc::new(AtomicBool::new(false));
        let event_loop = {
            let stop = Arc::clone(&stop);
            let engine = Arc::clone(&engine);
            let notifier = Arc::clone(&notifier);
            std::thread::Builder::new()
                .name("rrre-serve-loop".into())
                .spawn(move || event_loop::run(listener, engine, stop, cfg, notifier, wake_rx))?
        };
        Ok(Self { addr, stop, event_loop: Some(event_loop), engine, notifier })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, waits up to the drain deadline for queued and
    /// in-flight work, and joins the loop thread. Idempotent — repeated
    /// calls (or a call followed by `Drop`) are no-ops.
    pub fn stop(&mut self) {
        self.engine.set_draining(true);
        self.stop.store(true, Ordering::SeqCst);
        self.notifier.wake();
        if let Some(handle) = self.event_loop.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}
