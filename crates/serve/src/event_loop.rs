//! The readiness-driven connection core: one epoll thread multiplexing
//! every connection.
//!
//! One thread owns the listener, a wakeup pipe, and every connection's
//! socket, registered level-triggered with an `epoll` instance
//! ([`crate::sys`]). Each loop iteration: wait for readiness (bounded by
//! the poll tick), accept a batch, read every readable socket into its
//! [`rrre_wire::FrameDecoder`], submit decoded frames to the engine
//! with completion callbacks, drain the completion queue into
//! per-connection output queues, flush with `writev`, and — at most once
//! per poll tick — reap connections that have been silent for the idle
//! timeout.
//!
//! Workers never touch sockets: a completion pushes `(token, response)`
//! onto the [`Notifier`] and writes one byte to the wakeup pipe; the loop
//! drains the queue on its own thread. Responses therefore leave in
//! *completion* order — pipelining clients correlate by the ids echoed in
//! every response, which the wire protocol has carried from the start.

use crate::conn::Conn;
use crate::engine::Engine;
use crate::server::ServerConfig;
use crate::stats::FrontendStats;
use crate::sys::{self, Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use rrre_wire::{encode_response, ErrorKind, FrameEvent, Response, MAX_LINE_BYTES};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const LISTENER_TOKEN: u64 = 0;
const WAKE_TOKEN: u64 = 1;
/// Connection tokens start above the two reserved ones.
const FIRST_CONN_TOKEN: u64 = 2;
/// Connections accepted per listener event — level-triggered, so a deeper
/// backlog re-arms immediately; the bound just keeps one iteration from
/// starving reads during an accept storm.
const ACCEPT_BATCH: usize = 256;
/// Bytes read from one socket per readiness event, for the same fairness
/// reason (the remainder re-arms level-triggered).
const READ_BUDGET: usize = 256 * 1024;
/// Readiness events collected per `epoll_wait`.
const EVENTS_CAP: usize = 1024;

/// The worker-side half of request completion: a queue of answered
/// responses plus the wakeup pipe that gets the loop's attention.
pub(crate) struct Notifier {
    completions: Mutex<Vec<(u64, Response)>>,
    wake_tx: UnixStream,
}

impl Notifier {
    pub(crate) fn new(wake_tx: UnixStream) -> Self {
        let _ = wake_tx.set_nonblocking(true);
        Self { completions: Mutex::new(Vec::new()), wake_tx }
    }

    /// Called from worker threads (or inline for refusals): queue the
    /// response for `token` and wake the loop.
    pub(crate) fn complete(&self, token: u64, response: Response) {
        self.completions.lock().unwrap_or_else(|e| e.into_inner()).push((token, response));
        self.wake();
    }

    /// Wakes the loop without a completion (shutdown). A full pipe means a
    /// wakeup is already pending, so `WouldBlock` is success.
    pub(crate) fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1u8]);
    }

    fn drain(&self) -> Vec<(u64, Response)> {
        std::mem::take(&mut *self.completions.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

fn encode_line(resp: &Response) -> Vec<u8> {
    let mut bytes = encode_response(resp).into_bytes();
    bytes.push(b'\n');
    bytes
}

struct EventLoop {
    epoll: Epoll,
    listener: TcpListener,
    engine: Arc<Engine>,
    frontend: Arc<FrontendStats>,
    notifier: Arc<Notifier>,
    cfg: ServerConfig,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    stopping: bool,
}

/// Runs the loop until stopped and drained. Consumes the (nonblocking)
/// listener; `wake_rx` is the read half of the [`Notifier`]'s pipe.
pub(crate) fn run(
    listener: TcpListener,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    cfg: ServerConfig,
    notifier: Arc<Notifier>,
    wake_rx: UnixStream,
) {
    let Ok(epoll) = Epoll::new() else { return };
    if epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN).is_err() {
        return;
    }
    let _ = wake_rx.set_nonblocking(true);
    if epoll.add(wake_rx.as_raw_fd(), EPOLLIN, WAKE_TOKEN).is_err() {
        return;
    }
    let frontend = engine.frontend_stats();
    let mut el = EventLoop {
        epoll,
        listener,
        engine,
        frontend,
        notifier,
        cfg,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        stopping: false,
    };
    let mut events = vec![EpollEvent { events: 0, token: 0 }; EVENTS_CAP];
    let mut wake_buf = [0u8; 256];
    let mut drain_until: Option<Instant> = None;
    let mut next_reap = Instant::now();
    let mut dirty: Vec<u64> = Vec::new();

    loop {
        let now = Instant::now();
        if !el.stopping && stop.load(Ordering::SeqCst) {
            // Stop: unregister the listener, stop reading everywhere, and
            // give queued + in-flight work until the drain deadline.
            el.stopping = true;
            drain_until = Some(now + el.cfg.drain_deadline);
            let _ = el.epoll.delete(el.listener.as_raw_fd());
            let tokens: Vec<u64> = el.conns.keys().copied().collect();
            for t in tokens {
                el.pump(t);
            }
        }
        if el.stopping {
            if el.conns.is_empty() {
                break;
            }
            if drain_until.is_some_and(|d| now >= d) {
                break;
            }
        }

        let timeout = el.poll_timeout(now, drain_until);
        let n = match el.epoll.wait(&mut events, timeout) {
            Ok(n) => n,
            Err(_) => break,
        };
        let now = Instant::now();
        dirty.clear();
        for ev in &events[..n] {
            // Copy out of the packed struct before use.
            let token = ev.token;
            let bits = ev.events;
            match token {
                LISTENER_TOKEN => el.accept_ready(now),
                WAKE_TOKEN => {
                    while matches!((&wake_rx).read(&mut wake_buf), Ok(n) if n > 0) {}
                }
                t => {
                    el.conn_event(t, bits, now);
                    dirty.push(t);
                }
            }
        }

        // Completions answered since the last drain. The gauge decrements
        // even when the connection died mid-flight — the request is no
        // longer in the pipeline either way.
        for (token, response) in el.notifier.drain() {
            el.frontend.pipelined_inflight.fetch_sub(1, Ordering::Relaxed);
            if let Some(conn) = el.conns.get_mut(&token) {
                conn.inflight = conn.inflight.saturating_sub(1);
                conn.enqueue(encode_line(&response));
                dirty.push(token);
            }
        }

        // Idle reaping: one sweep per poll tick at most, so a connection
        // is closed within one tick of its timeout and activity costs
        // nothing but the `last_activity` stamp.
        if let Some(idle) = el.cfg.idle_timeout.filter(|_| now >= next_reap) {
            next_reap = now + el.cfg.read_timeout;
            let silent: Vec<u64> = el
                .conns
                .iter()
                .filter(|(_, conn)| conn.last_activity + idle <= now)
                .map(|(&token, _)| token)
                .collect();
            for token in silent {
                el.close(token);
            }
        }

        dirty.sort_unstable();
        dirty.dedup();
        for &token in &dirty {
            el.pump(token);
        }
    }
}

impl EventLoop {
    /// The `epoll_wait` bound: the poll tick, capped by the drain
    /// deadline.
    fn poll_timeout(&self, now: Instant, drain_until: Option<Instant>) -> i32 {
        let mut cap = self.cfg.read_timeout;
        if let Some(d) = drain_until {
            cap = cap.min(d.saturating_duration_since(now));
        }
        (cap.as_millis() as i64).clamp(1, 60_000) as i32
    }

    fn accept_ready(&mut self, now: Instant) {
        if self.stopping {
            return;
        }
        for _ in 0..ACCEPT_BATCH {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // One response is one small write; Nagle holding it back pairs
            // with the peer's delayed ACK into a ~40 ms stall per frame.
            stream.set_nodelay(true).ok();
            if self.conns.len() >= self.cfg.max_connections {
                // One honest refusal beats a silent close: the client
                // learns this is load, not a crash. The socket is fresh,
                // so a single nonblocking write fits its empty buffer.
                let resp =
                    Response::unavailable(None, "server is at its connection cap, retry later");
                let _ = (&stream).write_all(&encode_line(&resp));
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            if self.epoll.add(stream.as_raw_fd(), EPOLLIN, token).is_err() {
                continue;
            }
            let mut conn = Conn::new(stream, MAX_LINE_BYTES, now);
            conn.registered_interest = EPOLLIN;
            self.frontend.open_conns.fetch_add(1, Ordering::Relaxed);
            self.conns.insert(token, conn);
        }
    }

    fn conn_event(&mut self, token: u64, bits: u32, now: Instant) {
        if !self.conns.contains_key(&token) {
            return;
        }
        // ERR/HUP mean the peer is fully gone (reset or closed both
        // halves); nothing queued can be delivered. They are reported
        // regardless of registered interest, so a backpressured connection
        // must close here or it would spin on the level trigger.
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            self.close(token);
            return;
        }
        if bits & EPOLLIN != 0 {
            self.read_ready(token, now);
        }
        // EPOLLOUT needs no handling here: `pump` flushes every dirty
        // connection after the event sweep.
    }

    /// Reads everything the socket has (bounded per event for fairness)
    /// into the connection's frame decoder.
    fn read_ready(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let mut buf = [0u8; 16 * 1024];
        let mut total = 0usize;
        let mut failed = false;
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = now;
                    conn.decoder.push(&buf[..n]);
                    total += n;
                    if total >= READ_BUDGET {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            self.close(token);
            return;
        }
        if total > 0 && self.conns.get(&token).is_some_and(|c| c.decoder.has_partial()) {
            self.frontend.frames_partial.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The per-connection state machine, run after any event touches a
    /// connection: claim decoded frames up to the in-flight quota, flush
    /// queued output, close if every obligation is met, and reconcile
    /// epoll interest with what the connection now wants.
    fn pump(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if !self.stopping {
            while conn.inflight < self.cfg.max_inflight_per_conn {
                let event = match conn.decoder.next_event() {
                    Some(ev) => Some(ev),
                    // EOF with an unterminated tail: the old core answered
                    // a mid-line disconnect best-effort rather than
                    // silently closing; `finish` is idempotent.
                    None if conn.eof => conn.decoder.finish(),
                    None => None,
                };
                match event {
                    Some(FrameEvent::Oversized(err)) => {
                        let resp =
                            Response::error_kind(None, ErrorKind::BadRequest, err.to_string());
                        conn.enqueue(encode_line(&resp));
                    }
                    Some(FrameEvent::Frame(bytes)) => {
                        let text = String::from_utf8_lossy(&bytes);
                        if text.trim().is_empty() {
                            continue;
                        }
                        conn.inflight += 1;
                        self.frontend.pipelined_inflight.fetch_add(1, Ordering::Relaxed);
                        let notifier = Arc::clone(&self.notifier);
                        self.engine
                            .submit_line_async(&text, move |resp| notifier.complete(token, resp));
                    }
                    None => break,
                }
            }
        }
        let mut failed = false;
        if conn.has_output() && flush_conn(conn, &self.frontend).is_err() {
            failed = true;
        }
        let drained = conn.is_drained() && conn.decoder.pending_events() == 0;
        let done = (conn.eof && drained)
            || (conn.close_after_flush && !conn.has_output())
            || (self.stopping && drained);
        if failed || done {
            self.close(token);
            return;
        }
        let mut want = 0u32;
        if !self.stopping
            && conn.wants_read(self.cfg.max_inflight_per_conn, self.cfg.write_buffer_cap)
        {
            want |= EPOLLIN;
        }
        if conn.has_output() {
            want |= EPOLLOUT;
        }
        if want != conn.registered_interest
            && self.epoll.modify(conn.stream.as_raw_fd(), want, token).is_ok()
        {
            conn.registered_interest = want;
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.frontend.open_conns.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Flushes as much queued output as the socket accepts, in `writev`
/// batches. Returns `Err` only for a dead socket — `WouldBlock` simply
/// leaves the rest for the next writable event.
fn flush_conn(conn: &mut Conn, frontend: &FrontendStats) -> std::io::Result<()> {
    while conn.has_output() {
        let written = {
            let slices = conn.out_slices();
            sys::writev_once(conn.stream.as_raw_fd(), &slices)?
        };
        if written == 0 {
            break;
        }
        let before = conn.out.len();
        conn.consume_out(written);
        if before.saturating_sub(conn.out.len()) >= 2 {
            frontend.writev_batches.fetch_add(1, Ordering::Relaxed);
        }
    }
    Ok(())
}
