//! # rrre-client
//!
//! The client side of the RRRE serving protocol. [`LineConn`] is one
//! bounded connection to one endpoint, and the only code that reads
//! protocol responses off a socket: requests out, answers in, lockstep
//! ([`LineConn::exchange`]) or pipelined ([`LineConn::send`] and
//! [`LineConn::recv`], the caller matching ids). The replication shippers
//! in `rrre-serve` use it directly.
//!
//! On top of it, one [`Client`] fronts a fixed set of replica endpoints
//! and gives callers a single [`Client::request`] that hides the
//! unreliable parts of the path:
//!
//! * **connection pooling** — idle sockets are reused per replica, with a
//!   one-shot grace redial when a pooled socket turns out to be stale;
//!   every socket is a [`LineConn`], which reads responses through the
//!   server's own frame decoder and never buffers more than
//!   [`rrre_wire::MAX_RESPONSE_BYTES`] of one;
//! * **deadline propagation** — the per-attempt timeout is also written
//!   into the request's `deadline_ms` field, so the server sheds work the
//!   client has already given up on;
//! * **retries** — idempotent ops (see [`rrre_wire::Op::is_idempotent`])
//!   are retried across replicas with capped decorrelated-jitter backoff
//!   ([`backoff::DecorrelatedJitter`]); non-idempotent ops are retried
//!   only after a connect failure (nothing was sent) or a structured
//!   `Overloaded`/`Unavailable` refusal, whose resend is safe (see
//!   [`rrre_wire::ErrorKind`]);
//! * **leader redirect** — a `NotLeader` refusal from a replicated shard
//!   proves the request was never applied, so it is always retried; when
//!   the refusal carries the current leader's address and that address is
//!   one of this client's replicas, the next attempt is steered straight
//!   at it instead of round-robining through followers;
//! * **circuit breaking** — each replica has a sliding-window breaker
//!   ([`breaker::Breaker`]); a replica with an open breaker is skipped by
//!   replica selection until its cooldown elapses or a health probe sees
//!   it recover;
//! * **health probing** — with [`ClientConfig::probe_interval`] set, a
//!   background thread polls each replica's `Health` op and feeds the
//!   verdicts into routing: a not-ready replica stops receiving traffic
//!   without burning a single user request, and a recovered one is closed
//!   back into rotation immediately instead of waiting for a half-open
//!   trial.
//!
//! All randomness (backoff jitter) comes from one seeded RNG, so a client
//! built with a fixed [`ClientConfig::seed`] has a reproducible retry
//! schedule — the property the chaos tests lean on.

#![warn(missing_docs)]

pub mod backoff;
pub mod breaker;
mod conn;
mod replica;
pub mod sharded;

pub use conn::LineConn;
pub use sharded::{ShardedClient, ShardedSnapshot};

use backoff::DecorrelatedJitter;
use breaker::Breaker;
use rand::{rngs::StdRng, SeedableRng};
use replica::Replica;
use rrre_wire::{ErrorKind, Request, Response};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Client`]. Start from `ClientConfig::default()` and
/// override fields; every duration is wall-clock.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout per dial.
    pub connect_timeout: Duration,
    /// Per-attempt request timeout; also propagated to the server as the
    /// request's `deadline_ms` when the caller didn't set one.
    pub request_timeout: Duration,
    /// Extra attempts after the first (so `retries = 2` means at most 3
    /// attempts). Applies in full to idempotent ops; non-idempotent ops
    /// only consume retries on failures that prove non-execution.
    pub retries: usize,
    /// Backoff floor between retries.
    pub backoff_base: Duration,
    /// Backoff ceiling between retries.
    pub backoff_cap: Duration,
    /// Sliding-window size of each replica's circuit breaker.
    pub breaker_window: usize,
    /// Failures within the window that open the breaker.
    pub breaker_threshold: usize,
    /// How long an open breaker refuses traffic before allowing one
    /// half-open trial.
    pub breaker_cooldown: Duration,
    /// Poll each replica's `Health` op at this interval from a background
    /// thread. `None` (the default) disables probing: routing then relies
    /// on breakers alone, which keeps single-threaded tests deterministic.
    pub probe_interval: Option<Duration>,
    /// Timeout for one health probe (kept short — a probe that is slow is
    /// as good as failed).
    pub probe_timeout: Duration,
    /// Idle connections kept pooled per replica.
    pub pool_per_replica: usize,
    /// Seed for the backoff-jitter RNG; fixed seed ⇒ reproducible retry
    /// schedule.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_millis(250),
            request_timeout: Duration::from_secs(2),
            retries: 2,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(250),
            breaker_window: 8,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(400),
            probe_interval: None,
            probe_timeout: Duration::from_millis(250),
            pool_per_replica: 2,
            seed: 0xC11E57,
        }
    }
}

/// Why a [`Client::request`] ultimately failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorClass {
    /// No TCP connection could be established (nothing was sent — always
    /// safe to retry, even for non-idempotent ops).
    Connect,
    /// An attempt timed out waiting for the response.
    Timeout,
    /// The connection died mid-exchange (reset, mid-line EOF, partial
    /// write). Ambiguous: the server may or may not have executed the
    /// request, so only idempotent ops retry past this.
    ConnectionLost,
    /// The server answered, but with bytes that don't decode as a protocol
    /// response, with a line past [`rrre_wire::MAX_RESPONSE_BYTES`], or
    /// with a response whose correlation id doesn't match the request (a
    /// stale or corrupted stream).
    Protocol,
    /// The server answered with a structured error that retries could not
    /// clear.
    Server(ErrorKind),
    /// Every replica was unavailable (breaker open and not due for a
    /// trial, or probed dead).
    NoReplica,
}

/// Terminal failure of one logical request, after all retry budget was
/// spent.
#[derive(Debug, Clone)]
pub struct ClientError {
    /// Classification of the last failure.
    pub kind: ErrorClass,
    /// Attempts actually made (0 only when no replica could be selected
    /// at all).
    pub attempts: usize,
    message: String,
}

impl ClientError {
    fn new(kind: ErrorClass, message: impl Into<String>) -> Self {
        Self { kind, attempts: 0, message: message.into() }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.attempts {
            0 => write!(f, "{:?}: {}", self.kind, self.message),
            n => write!(f, "{:?} after {n} attempt(s): {}", self.kind, self.message),
        }
    }
}

impl std::error::Error for ClientError {}

/// Point-in-time view of one replica as the client sees it.
#[derive(Debug, Clone)]
pub struct ReplicaSnapshot {
    /// Endpoint address.
    pub addr: String,
    /// Request attempts routed here (probes not counted).
    pub attempts: u64,
    /// Attempts that failed (transport error or retryable server refusal).
    pub failures: u64,
    /// Whether the breaker is currently open or half-open.
    pub breaker_open: bool,
    /// Lifetime count of breaker open transitions.
    pub breaker_opens: u64,
    /// Last health-probe verdict (`true` when probing is disabled).
    pub probe_ready: bool,
}

/// Point-in-time view of the whole client.
#[derive(Debug, Clone)]
pub struct ClientSnapshot {
    /// Logical requests submitted via [`Client::request`].
    pub requests: u64,
    /// Retry attempts made beyond each request's first attempt.
    pub retries: u64,
    /// Always 0: the client has no hedging. Kept only because the frozen
    /// benchmark reads it as `client.hedges`; the next benchmark change
    /// drops both.
    pub hedges: u64,
    /// Per-replica detail, in constructor order.
    pub replicas: Vec<ReplicaSnapshot>,
}

struct Shared {
    cfg: ClientConfig,
    replicas: Vec<Replica>,
    rr: AtomicUsize,
    next_id: AtomicU64,
    rng: Mutex<StdRng>,
    stop: AtomicBool,
    requests: AtomicU64,
    retries: AtomicU64,
}

/// A resilient multi-replica client. Cheap to share: internally one
/// `Arc`; clone-free concurrent use via `&self` methods.
pub struct Client {
    shared: Arc<Shared>,
    prober: Mutex<Option<JoinHandle<()>>>,
}

impl Client {
    /// Builds a client over the given replica endpoints (`host:port`
    /// strings). Panics if `addrs` is empty — a client with nowhere to
    /// send is a configuration bug, not a runtime condition.
    pub fn new(addrs: Vec<String>, cfg: ClientConfig) -> Self {
        assert!(!addrs.is_empty(), "Client::new: at least one replica address is required");
        let replicas = addrs
            .into_iter()
            .map(|addr| {
                Replica::new(
                    addr,
                    Breaker::new(cfg.breaker_window, cfg.breaker_threshold, cfg.breaker_cooldown),
                    cfg.pool_per_replica,
                )
            })
            .collect();
        let shared = Arc::new(Shared {
            rng: Mutex::new(StdRng::seed_from_u64(cfg.seed)),
            cfg,
            replicas,
            rr: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        });
        let prober = shared.cfg.probe_interval.map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || probe_loop(shared))
        });
        Self { shared, prober: Mutex::new(prober) }
    }

    /// Sends one logical request, applying replica selection, retries with
    /// backoff and breaker accounting. A missing `id` is filled from the
    /// client's counter and reused verbatim across every retry of this
    /// request; a missing `deadline_ms` is set to the per-attempt timeout.
    ///
    /// Returns `Ok` for any response the server committed to — including
    /// structured errors like `BadRequest` that retrying cannot fix; those
    /// are the caller's to inspect via [`Response::ok`]. Returns `Err`
    /// only when the retry budget ran out (or the op was not safe to
    /// retry).
    pub fn request(&self, req: Request) -> Result<Response, ClientError> {
        self.run(req, None)
    }

    /// [`Client::request`] bounded by an *overall* wall-clock deadline
    /// instead of a per-attempt budget. Every attempt's timeout — and the
    /// `deadline_ms` written into the request, overwriting any
    /// caller-supplied value — is the *remaining* budget at that moment
    /// (capped at [`ClientConfig::request_timeout`]), and backoff sleeps
    /// are clipped to it, so retries spend down one shared allowance
    /// rather than granting each attempt a fresh one. Once the deadline
    /// passes, the request fails with the last attempt's error (or
    /// [`ErrorClass::Timeout`] if none was made) instead of starting
    /// another attempt.
    ///
    /// This is how the scatter-gather tier splits one caller deadline
    /// across per-shard sub-requests: each sub-request gets what is *left*
    /// of the caller's budget, so a slow shard can exhaust only its own
    /// time, never another shard's.
    pub fn request_with_deadline(
        &self,
        req: Request,
        deadline: Instant,
    ) -> Result<Response, ClientError> {
        self.run(req, Some(deadline))
    }

    fn run(&self, mut req: Request, deadline: Option<Instant>) -> Result<Response, ClientError> {
        let shared = &self.shared;
        let cfg = &shared.cfg;
        if req.id.is_none() {
            req.id = Some(shared.next_id.fetch_add(1, Ordering::SeqCst));
        }
        if req.deadline_ms.is_none() && deadline.is_none() {
            req.deadline_ms = Some(cfg.request_timeout.as_millis() as u64);
        }
        shared.requests.fetch_add(1, Ordering::SeqCst);
        let idempotent = req.op.is_idempotent();
        let mut backoff = DecorrelatedJitter::new(cfg.backoff_base, cfg.backoff_cap);
        let mut last_err: Option<ClientError> = None;
        let mut last_idx: Option<usize> = None;
        // Follow-the-leader: a `NotLeader` refusal that names a replica we
        // already know steers the next attempt straight at it instead of
        // round-robining through followers that will refuse the same way.
        let mut steer: Option<usize> = None;
        let budget = cfg.retries + 1;
        // Finer than this and the server would see a 0ms deadline, which
        // is expired by definition — not worth an attempt.
        const MIN_BUDGET: Duration = Duration::from_millis(1);
        for attempt in 1..=budget {
            if attempt > 1 {
                let mut sleep = {
                    let mut rng = shared.rng.lock().unwrap_or_else(|e| e.into_inner());
                    backoff.next(&mut rng)
                };
                if let Some(d) = deadline {
                    sleep = sleep.min(d.saturating_duration_since(Instant::now()));
                }
                std::thread::sleep(sleep);
                shared.retries.fetch_add(1, Ordering::SeqCst);
            }
            let timeout = match deadline {
                Some(d) => {
                    let remaining = d.saturating_duration_since(Instant::now());
                    if remaining < MIN_BUDGET {
                        break;
                    }
                    // Each attempt sees — and tells the server about — only
                    // what is left of the overall budget.
                    req.deadline_ms = Some(remaining.as_millis() as u64);
                    cfg.request_timeout.min(remaining)
                }
                None => cfg.request_timeout,
            };
            let picked = steer.take().or_else(|| shared.pick(last_idx));
            let Some(idx) = picked else {
                let mut e = ClientError::new(
                    ErrorClass::NoReplica,
                    "every replica is unavailable (breaker open or probed not-ready)",
                );
                e.attempts = attempt - 1;
                last_err = Some(e);
                continue;
            };
            last_idx = Some(idx);
            match shared.attempt(idx, &req, timeout) {
                Ok(resp) => {
                    let retryable = match resp.kind {
                        // A structured shed is safe to resend whatever the
                        // op: `Overloaded` ran nothing, and an ingest
                        // `Unavailable` (quorum timeout) left the record on
                        // the leader, where its seq dedups the resend. One
                        // that lands on another replica is ROADMAP item 17
                        // (the `plan_append` `FOUND:` line in CHANGES.md).
                        Some(ErrorKind::Overloaded) | Some(ErrorKind::Unavailable) => true,
                        // A replica refusing leadership also proves
                        // non-execution; the retry re-routes (steered at
                        // the advertised leader when the hint names a
                        // replica in this set, plain failover otherwise).
                        Some(ErrorKind::NotLeader) => true,
                        // Executed-and-failed or expired-in-queue: only
                        // side-effect-free ops may go around again.
                        Some(ErrorKind::Internal) | Some(ErrorKind::DeadlineExceeded) => idempotent,
                        _ => false,
                    };
                    if resp.ok || !retryable {
                        return Ok(resp);
                    }
                    if resp.kind == Some(ErrorKind::NotLeader) {
                        steer = resp
                            .leader
                            .as_deref()
                            .and_then(|hint| shared.replicas.iter().position(|r| r.addr == hint));
                    }
                    let mut e = ClientError::new(
                        ErrorClass::Server(resp.kind.expect("retryable implies kind")),
                        resp.error.unwrap_or_else(|| "server refusal".into()),
                    );
                    e.attempts = attempt;
                    last_err = Some(e);
                }
                Err(mut e) => {
                    e.attempts = attempt;
                    // Connect failures never reached a server; everything
                    // else is ambiguous and must not be replayed for ops
                    // with side effects.
                    if !idempotent && e.kind != ErrorClass::Connect {
                        return Err(e);
                    }
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            if deadline.is_some() {
                ClientError::new(
                    ErrorClass::Timeout,
                    "overall deadline exhausted before any attempt completed",
                )
            } else {
                ClientError::new(ErrorClass::NoReplica, "no attempt was made")
            }
        }))
    }

    /// The configuration this client was built with.
    pub fn config(&self) -> &ClientConfig {
        &self.shared.cfg
    }

    /// Current counters and per-replica state.
    pub fn snapshot(&self) -> ClientSnapshot {
        let s = &self.shared;
        ClientSnapshot {
            requests: s.requests.load(Ordering::SeqCst),
            retries: s.retries.load(Ordering::SeqCst),
            hedges: 0,
            replicas: s
                .replicas
                .iter()
                .map(|r| {
                    let b = r.breaker.lock().unwrap_or_else(|e| e.into_inner());
                    ReplicaSnapshot {
                        addr: r.addr.clone(),
                        attempts: r.attempts.load(Ordering::SeqCst),
                        failures: r.failures.load(Ordering::SeqCst),
                        breaker_open: b.is_open(),
                        breaker_opens: b.opens(),
                        probe_ready: r.probe_ready(),
                    }
                })
                .collect(),
        }
    }

    /// Stops the health-probe thread (if any) and joins it. Idempotent;
    /// also called by `Drop`.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let handle = self.prober.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(handle) = handle {
            handle.join().ok();
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Shared {
    /// Selects a replica for the next attempt: round-robin from a shared
    /// cursor, preferring replicas whose last health probe said ready and
    /// whose breaker admits traffic, and de-prioritising (not excluding)
    /// the replica the previous attempt failed on. A second pass ignores
    /// probe verdicts so a stale "not ready" cannot strand the client when
    /// it's the only replica whose breaker is willing.
    fn pick(&self, prefer_not: Option<usize>) -> Option<usize> {
        let n = self.replicas.len();
        if n == 0 {
            return None;
        }
        let start = self.rr.fetch_add(1, Ordering::SeqCst) % n;
        let mut order: Vec<usize> = (0..n).map(|off| (start + off) % n).collect();
        if let Some(skip) = prefer_not {
            if n > 1 {
                order.retain(|&i| i != skip);
                order.push(skip);
            }
        }
        for honour_probes in [true, false] {
            for &i in &order {
                let r = &self.replicas[i];
                if honour_probes && !r.probe_ready() {
                    continue;
                }
                let now = Instant::now();
                if r.breaker.lock().unwrap_or_else(|e| e.into_inner()).try_acquire(now) {
                    return Some(i);
                }
            }
            if self.replicas.iter().all(|r| r.probe_ready()) {
                break; // the second pass would be identical
            }
        }
        None
    }

    /// One attempt against one replica, with breaker and counter
    /// accounting. Breaker failure = transport error or a retryable
    /// server refusal; a `BadRequest` counts as success (the replica is
    /// healthy, the request was wrong).
    fn attempt(&self, idx: usize, req: &Request, timeout: Duration) -> Result<Response, ClientError> {
        let replica = &self.replicas[idx];
        replica.attempts.fetch_add(1, Ordering::SeqCst);
        let result = self.attempt_io(replica, req, timeout);
        let failed = match &result {
            Ok(resp) => {
                !resp.ok
                    && matches!(
                        resp.kind,
                        Some(ErrorKind::Overloaded)
                            | Some(ErrorKind::Unavailable)
                            | Some(ErrorKind::Internal)
                            | Some(ErrorKind::DeadlineExceeded)
                    )
            }
            Err(_) => true,
        };
        let mut breaker = replica.breaker.lock().unwrap_or_else(|e| e.into_inner());
        if failed {
            replica.failures.fetch_add(1, Ordering::SeqCst);
            breaker.record_failure(Instant::now());
        } else {
            breaker.record_success();
        }
        result
    }

    /// The raw exchange: checkout (or dial) a connection, send one line,
    /// read one line, validate, check the connection back in. A pooled
    /// socket that dies before yielding a response gets one uncounted
    /// grace retry on a fresh dial (the pool is cleared first — if one
    /// pooled socket is stale, its siblings are too). Connections are
    /// never pooled after a timeout or a protocol violation: there may be
    /// a response in flight.
    fn attempt_io(&self, replica: &Replica, req: &Request, timeout: Duration) -> Result<Response, ClientError> {
        let mut graced = false;
        loop {
            let (mut conn, pooled) = replica.checkout(self.cfg.connect_timeout).map_err(|e| {
                ClientError::new(ErrorClass::Connect, format!("{}: connect failed: {e}", replica.addr))
            })?;
            match conn.exchange(req, timeout) {
                Ok(resp) => {
                    replica.checkin(conn);
                    return Ok(resp);
                }
                Err(e) if pooled && !graced && e.kind == ErrorClass::ConnectionLost => {
                    graced = true;
                    replica.clear_pool();
                }
                Err(mut e) => {
                    e.message = format!("{}: {}", replica.addr, e.message);
                    return Err(e);
                }
            }
        }
    }

    /// One health probe against one replica. Probes bypass breaker
    /// acquisition (their whole point is to test replicas traffic can't
    /// reach) and don't count as attempts.
    fn probe_once(&self, idx: usize) {
        let replica = &self.replicas[idx];
        let req = Request::health().with_id(self.next_id.fetch_add(1, Ordering::SeqCst));
        match self.attempt_io(replica, &req, self.cfg.probe_timeout) {
            Ok(resp) => {
                let ready = resp.ok && resp.health.as_ref().is_some_and(|h| h.ready);
                replica.set_probe_ready(ready);
                if ready {
                    // Demonstrably serving again: close the breaker now
                    // instead of waiting for a half-open trial.
                    replica.breaker.lock().unwrap_or_else(|e| e.into_inner()).probe_success();
                }
                // Alive but not ready (draining, server-side breaker):
                // probe_ready alone steers traffic away; the client-side
                // breaker is left to its own outcome history.
            }
            Err(_) => {
                replica.set_probe_ready(false);
                replica.clear_pool();
                replica
                    .breaker
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .probe_failure(Instant::now());
            }
        }
    }
}

fn probe_loop(shared: Arc<Shared>) {
    let interval = shared.cfg.probe_interval.expect("probe thread spawned without an interval");
    while !shared.stop.load(Ordering::SeqCst) {
        for idx in 0..shared.replicas.len() {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            shared.probe_once(idx);
        }
        // Sleep in short slices so shutdown() never waits a full interval.
        let mut slept = Duration::ZERO;
        while slept < interval && !shared.stop.load(Ordering::SeqCst) {
            let step = Duration::from_millis(20).min(interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrre_wire::{encode_response, Op};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A scripted protocol server: each accepted connection gets its own
    /// thread reading request lines and answering via `respond` until the
    /// peer hangs up (concurrent connections matter — the prober holds a
    /// pooled connection open while requests dial new ones). Returns the
    /// bound address.
    fn mock_server(
        respond: impl Fn(&Request) -> Option<Response> + Send + Sync + 'static,
    ) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let respond = Arc::new(respond);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let respond = Arc::clone(&respond);
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().unwrap();
                    let reader = BufReader::new(stream);
                    for line in reader.lines() {
                        let Ok(line) = line else { break };
                        let req = rrre_wire::decode_request(&line).unwrap();
                        match respond(&req) {
                            Some(resp) => {
                                let out = encode_response(&resp);
                                if writer.write_all(out.as_bytes()).is_err()
                                    || writer.write_all(b"\n").is_err()
                                {
                                    break;
                                }
                            }
                            // None = drop the connection mid-request.
                            None => break,
                        }
                    }
                });
            }
        });
        addr
    }

    fn quick_cfg() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_millis(200),
            request_timeout: Duration::from_millis(500),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            retries: 2,
            ..ClientConfig::default()
        }
    }

    #[test]
    fn request_roundtrips_and_fills_id_and_deadline() {
        let addr = mock_server(|req| {
            assert!(req.id.is_some(), "client must assign an id");
            assert_eq!(req.deadline_ms, Some(500), "client must propagate its timeout as the deadline");
            Some(Response::ok(req.id))
        });
        let client = Client::new(vec![addr], quick_cfg());
        let resp = client.request(Request::stats()).unwrap();
        assert!(resp.ok);
        let snap = client.snapshot();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.retries, 0);
    }

    #[test]
    fn caller_supplied_deadline_is_not_overwritten() {
        let addr = mock_server(|req| {
            assert_eq!(req.deadline_ms, Some(77));
            Some(Response::ok(req.id))
        });
        let client = Client::new(vec![addr], quick_cfg());
        let resp = client.request(Request::stats().with_deadline_ms(77)).unwrap();
        assert!(resp.ok);
    }

    #[test]
    fn connect_failure_exhausts_retries_then_errors() {
        // A port with nothing listening: bind then drop to reserve-and-free.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let client = Client::new(vec![addr], quick_cfg());
        let err = client.request(Request::stats()).unwrap_err();
        assert_eq!(err.kind, ErrorClass::Connect);
        assert_eq!(err.attempts, 3, "retries=2 means 3 attempts");
        assert_eq!(client.snapshot().retries, 2);
    }

    #[test]
    fn failover_to_the_healthy_replica() {
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let live = mock_server(|req| Some(Response::ok(req.id)));
        let client = Client::new(vec![dead, live], quick_cfg());
        for _ in 0..4 {
            let resp = client.request(Request::stats()).unwrap();
            assert!(resp.ok, "healthy replica must absorb the traffic");
        }
        let snap = client.snapshot();
        assert!(snap.replicas[1].attempts >= 4);
        assert!(
            snap.replicas[0].failures >= 1,
            "the dead replica should have been tried and recorded as failing"
        );
    }

    #[test]
    fn bad_request_is_returned_not_retried() {
        let addr = mock_server(|req| {
            Some(Response::error_kind(req.id, ErrorKind::BadRequest, "unknown user"))
        });
        let client = Client::new(vec![addr], quick_cfg());
        let resp = client.request(Request::predict(u32::MAX, 0)).unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.kind, Some(ErrorKind::BadRequest));
        assert_eq!(client.snapshot().replicas[0].attempts, 1, "BadRequest must not be retried");
    }

    #[test]
    fn non_idempotent_op_is_not_retried_after_connection_loss() {
        let addr = mock_server(|_req| None); // read the request, then hang up
        let client = Client::new(vec![addr], quick_cfg());
        let err = client.request(Request::reload()).unwrap_err();
        assert_eq!(err.kind, ErrorClass::ConnectionLost);
        assert_eq!(err.attempts, 1, "Reload must not be replayed after an ambiguous failure");
    }

    #[test]
    fn idempotent_op_retries_through_connection_loss() {
        // Drop the first connection mid-request, serve the second.
        let served = Arc::new(AtomicU64::new(0));
        let served2 = Arc::clone(&served);
        let addr = mock_server(move |req| {
            if served2.fetch_add(1, Ordering::SeqCst) == 0 {
                None
            } else {
                Some(Response::ok(req.id))
            }
        });
        let client = Client::new(vec![addr], quick_cfg());
        let resp = client.request(Request::predict(0, 0)).unwrap();
        assert!(resp.ok);
        assert_eq!(client.snapshot().retries, 1);
    }

    #[test]
    fn not_leader_refusal_steers_the_retry_at_the_hinted_leader() {
        // Two followers that refuse with a redirect hint, one leader. The
        // first attempt lands on follower 0 (round-robin starts there); the
        // retry must jump straight to the hinted leader, skipping follower 1
        // entirely — plain failover would have tried it next.
        let leader = mock_server(|req| Some(Response::ok(req.id)));
        let hint = leader.clone();
        let f0 = mock_server(move |req| Some(Response::not_leader(req.id, Some(hint.clone()))));
        let hint = leader.clone();
        let f1 = mock_server(move |req| Some(Response::not_leader(req.id, Some(hint.clone()))));
        let client = Client::new(vec![f0, f1, leader], quick_cfg());
        // IngestReview is the op NotLeader exists for; the refusal proves
        // non-execution, so even a side-effecting op may retry through it.
        let resp = client.request(Request::ingest_review(1, 0, 0, 5.0, "good", 0)).unwrap();
        assert!(resp.ok);
        let snap = client.snapshot();
        assert_eq!(snap.replicas[0].attempts, 1, "first attempt hits follower 0");
        assert_eq!(snap.replicas[1].attempts, 0, "redirect must skip the other follower");
        assert_eq!(snap.replicas[2].attempts, 1, "retry goes straight to the leader");
        assert_eq!(snap.retries, 1);
    }

    #[test]
    fn hintless_not_leader_falls_back_to_plain_failover() {
        let follower = mock_server(|req| Some(Response::not_leader(req.id, None)));
        let leader = mock_server(|req| Some(Response::ok(req.id)));
        let client = Client::new(vec![follower, leader], quick_cfg());
        let resp = client.request(Request::ingest_review(1, 0, 0, 5.0, "good", 0)).unwrap();
        assert!(resp.ok, "failover must still find the leader without a hint");
        assert_eq!(client.snapshot().retries, 1);
    }

    #[test]
    fn not_leader_everywhere_exhausts_the_budget_and_surfaces_the_kind() {
        let addr = mock_server(|req| Some(Response::not_leader(req.id, None)));
        let client = Client::new(vec![addr], quick_cfg());
        let err = client.request(Request::ingest_review(1, 0, 0, 5.0, "good", 0)).unwrap_err();
        assert_eq!(err.kind, ErrorClass::Server(ErrorKind::NotLeader));
        assert_eq!(err.attempts, 3, "retries=2 means 3 attempts");
    }

    #[test]
    fn mismatched_response_id_is_a_protocol_error() {
        let addr = mock_server(|req| Some(Response::ok(req.id.map(|i| i + 1000))));
        let cfg = ClientConfig { retries: 0, ..quick_cfg() };
        let client = Client::new(vec![addr], cfg);
        let err = client.request(Request::stats()).unwrap_err();
        assert_eq!(err.kind, ErrorClass::Protocol);
    }

    #[test]
    fn a_response_past_the_bound_is_refused_without_buffering_it() {
        // The peer streams four times the response bound with no newline,
        // then holds the socket open: the client must give up at the bound,
        // not wait out its timeout with the whole stream in memory.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            BufReader::new(&stream).lines().next().unwrap().unwrap();
            let chunk = vec![b'x'; 64 * 1024];
            for _ in 0..4 * rrre_wire::MAX_RESPONSE_BYTES / chunk.len() {
                if (&stream).write_all(&chunk).is_err() {
                    return;
                }
            }
            // Hold the socket until the client hangs up.
            let _ = std::io::Read::read(&mut &stream, &mut [0u8; 1]);
        });
        let cfg = ClientConfig { retries: 0, request_timeout: Duration::from_secs(2), ..quick_cfg() };
        let client = Client::new(vec![addr], cfg);
        let started = Instant::now();
        let err = client.request(Request::stats()).unwrap_err();
        assert_eq!(err.kind, ErrorClass::Protocol, "{err}");
        assert!(
            started.elapsed() < Duration::from_millis(1000),
            "refusal must come at the bound, not at the timeout: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn breaker_opens_after_repeated_failures_and_no_replica_errors_follow() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let cfg = ClientConfig {
            breaker_window: 4,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(60),
            retries: 0,
            ..quick_cfg()
        };
        let client = Client::new(vec![addr], cfg);
        for _ in 0..2 {
            assert_eq!(client.request(Request::stats()).unwrap_err().kind, ErrorClass::Connect);
        }
        let snap = client.snapshot();
        assert!(snap.replicas[0].breaker_open);
        assert_eq!(snap.replicas[0].breaker_opens, 1);
        // With the breaker open and a long cooldown, no attempt is even made.
        let err = client.request(Request::stats()).unwrap_err();
        assert_eq!(err.kind, ErrorClass::NoReplica);
        assert_eq!(client.snapshot().replicas[0].attempts, 2);
    }

    #[test]
    fn probes_mark_dead_replicas_and_recover_them() {
        let live = mock_server(|req| {
            let mut resp = Response::ok(req.id);
            if req.op == Op::Health {
                resp.health = Some(rrre_wire::HealthDto {
                    live: true,
                    ready: true,
                    draining: false,
                    breaker_open: false,
                    generation: 1,
                });
            }
            Some(resp)
        });
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let cfg = ClientConfig {
            probe_interval: Some(Duration::from_millis(25)),
            probe_timeout: Duration::from_millis(100),
            ..quick_cfg()
        };
        let client = Client::new(vec![live, dead], cfg);
        // Wait for the prober to pass over both replicas a few times.
        std::thread::sleep(Duration::from_millis(200));
        let snap = client.snapshot();
        assert!(snap.replicas[0].probe_ready, "live replica must probe ready");
        assert!(!snap.replicas[1].probe_ready, "dead replica must probe not-ready");
        // Traffic avoids the dead replica entirely on the first pass.
        let before = client.snapshot().replicas[1].attempts;
        for _ in 0..3 {
            assert!(client.request(Request::stats()).unwrap().ok);
        }
        assert_eq!(
            client.snapshot().replicas[1].attempts,
            before,
            "probed-dead replica must receive no traffic"
        );
        client.shutdown();
    }
}
