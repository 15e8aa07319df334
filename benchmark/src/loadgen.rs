//! Load generator: NDJSON requests over loopback TCP, open or closed loop.
//!
//! **Open loop** models independent users: request `i` is *due* at
//! `start + i / rate` whatever the server is doing, the scheduler records
//! how late it actually wrote each request (its own lateness), and latency
//! is timed from the due instant, so a stall is charged to every request it
//! delays. **Closed loop** models callers that wait: each connection keeps
//! a fixed window of requests in flight and sends the next only when a
//! response arrives.
//!
//! Requests are encoded before the phase starts (the inputs are a function
//! of the seed, not of timing) and carry their index as the correlation id.
//! Responses are matched by a byte scan for `"id":` / `"ok":` rather than a
//! full decode: at tens of thousands of requests per second on two cores a
//! DOM decode per response would make the generator the bottleneck. The
//! lines of sampled ids are kept verbatim for the oracles, which do decode
//! them.
//!
//! Threads: one reader per connection plus, in open loop, the calling
//! thread as scheduler. Readers block in `read`; the scheduler sleeps until
//! the next due time and writes everything that is due by then.

use crate::hist::{Histogram, Windowed};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long after the last send a phase waits for outstanding responses
/// before counting them failed.
const DRAIN: Duration = Duration::from_secs(3);

/// What one phase observed.
pub struct PhaseResult {
    /// Requests written to a socket.
    pub sent: u64,
    /// Responses with `ok: true`.
    pub ok: u64,
    /// Responses with `ok: false`, plus requests never answered.
    pub failed: u64,
    /// Latency of the ok responses by time window (open loop: the window a
    /// request was due in, latency from the due time; closed loop: the
    /// window its response arrived in, latency from the write). Rates and
    /// percentiles are medians over these windows.
    pub windows: Windowed,
    /// Latency of every ok response, windows or not.
    pub latency: Histogram,
    /// Open loop only: write instant minus due instant, per request.
    pub lateness: Histogram,
    /// Ok responses whose latency was within the SLO passed to the phase.
    pub within_slo: u64,
    /// Open loop only: ok responses that arrived before the offered time was
    /// over, per second of it. Falls short of the offered rate when a
    /// backlog builds, even if every request is answered in the end.
    pub achieved_per_s: f64,
    /// Raw response lines of the sampled ids.
    pub samples: HashMap<u64, String>,
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The number after `"id":` in a protocol line.
fn scan_id(line: &[u8]) -> Option<u64> {
    let at = find(line, b"\"id\":")? + 5;
    let digits = line[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&line[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// Finds `"id":<digits>` and `"ok":true|false` in a response line.
pub fn scan_response(line: &[u8]) -> Option<(u64, bool)> {
    let id = scan_id(line)?;
    let at = find(line, b"\"ok\":")? + 5;
    Some((id, line[at..].starts_with(b"true")))
}

/// A set of connections to one address, reused across phases.
pub struct Conns {
    streams: Vec<TcpStream>,
}

impl Conns {
    pub fn connect(addr: &str, n: usize) -> std::io::Result<Self> {
        let streams = (0..n)
            .map(|_| {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                Ok(s)
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Self { streams })
    }

    /// Open loop at `rate` requests per second over every request in
    /// `lines` (request `i` must carry id `i`), spread round-robin over the
    /// connections, reported in `windows` windows. `sample` selects the ids
    /// whose response lines are kept.
    pub fn open_loop(
        &mut self,
        lines: &[String],
        rate: f64,
        slo: Duration,
        windows: usize,
        sample: &(dyn Fn(u64) -> bool + Sync),
    ) -> PhaseResult {
        let n_conns = self.streams.len();
        let interval_ns = 1e9 / rate;
        let due_ns = |i: u64| (i as f64 * interval_ns) as u64;
        let start = Instant::now() + Duration::from_millis(5);
        let sent: Vec<AtomicU64> = (0..n_conns).map(|_| AtomicU64::new(0)).collect();
        let done = AtomicBool::new(false);
        let mut lateness = Histogram::new();
        let offered_ns = due_ns(lines.len() as u64);
        let window_ns = (offered_ns / windows as u64).max(1);

        let readers: Vec<ReaderOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .streams
                .iter()
                .enumerate()
                .map(|(c, stream)| {
                    let (sent, done) = (&sent[c], &done);
                    scope.spawn(move || {
                        let mut out = ReaderOut::new(windows, window_ns as f64 / 1e9);
                        read_responses(stream, sent, done, |id, line, now| {
                            let now_ns = now.saturating_duration_since(start).as_nanos() as u64;
                            let ns = now_ns.saturating_sub(due_ns(id));
                            out.in_time += u64::from(now_ns <= offered_ns);
                            out.ok(id, line, ns, (due_ns(id) / window_ns) as usize, slo, sample);
                        });
                        out
                    })
                })
                .collect();

            let mut frame = Vec::new();
            for (i, line) in lines.iter().enumerate() {
                let due = start + Duration::from_nanos(due_ns(i as u64));
                wait_until(due);
                lateness.record(Instant::now().saturating_duration_since(due).as_nanos() as u64);
                let c = i % n_conns;
                if write_line(&self.streams[c], &mut frame, line).is_err() {
                    break;
                }
                sent[c].fetch_add(1, Ordering::Release);
            }
            done.store(true, Ordering::Release);
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread panicked"))
                .collect()
        });

        let sent_total = sent.iter().map(|s| s.load(Ordering::Acquire)).sum();
        let in_time: u64 = readers.iter().map(|r| r.in_time).sum();
        let mut result = collect(readers, sent_total, lateness, windows);
        result.achieved_per_s = in_time as f64 / (offered_ns as f64 / 1e9);
        result
    }

    /// Closed loop: every connection keeps `window` requests in flight for
    /// `duration`, taking its requests from `lines` (request `i` carries id
    /// `i`; connection `c` takes `c, c + n, c + 2n, …`). With `cycle` the
    /// requests repeat from the start when they run out (`lines` must then
    /// be much longer than the windows together, so that ids in flight stay
    /// distinct); without it the phase ends when they do, and only the time
    /// windows completed until then are reported.
    pub fn closed_loop(
        &mut self,
        lines: &[String],
        cycle: bool,
        window: usize,
        duration: Duration,
        windows: usize,
        sample: &(dyn Fn(u64) -> bool + Sync),
    ) -> PhaseResult {
        let n_conns = self.streams.len();
        let start = Instant::now();
        let plan = ClosedLoop {
            lines,
            cycle,
            n_conns,
            window,
            start,
            end: start + duration,
            windows,
            sample,
        };
        let outs: Vec<(ReaderOut, u64, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .streams
                .iter()
                .enumerate()
                .map(|(c, stream)| scope.spawn(move || plan.run(stream, c)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("closed-loop thread panicked"))
                .collect()
        });
        let sent_total = outs.iter().map(|o| o.1).sum();
        let full = outs.iter().map(|o| o.2).min().unwrap_or(windows);
        collect(
            outs.into_iter().map(|o| o.0).collect(),
            sent_total,
            Histogram::new(),
            full,
        )
    }
}

/// Per-connection tallies, merged by [`collect`].
struct ReaderOut {
    ok: u64,
    in_time: u64,
    within_slo: u64,
    windows: Windowed,
    latency: Histogram,
    samples: HashMap<u64, String>,
}

impl ReaderOut {
    fn new(windows: usize, window_s: f64) -> Self {
        Self {
            ok: 0,
            in_time: 0,
            within_slo: 0,
            windows: Windowed::new(windows, window_s),
            latency: Histogram::new(),
            samples: HashMap::new(),
        }
    }

    /// Tallies one ok response with latency `ns` belonging to window `w`.
    fn ok(
        &mut self,
        id: u64,
        line: &[u8],
        ns: u64,
        w: usize,
        slo: Duration,
        sample: &(dyn Fn(u64) -> bool + Sync),
    ) {
        self.ok += 1;
        self.latency.record(ns);
        self.windows.record(w, ns);
        self.within_slo += u64::from(ns <= slo.as_nanos() as u64);
        if sample(id) {
            self.samples
                .insert(id, String::from_utf8_lossy(line).into_owned());
        }
    }
}

/// Merges the connections' tallies, keeping the first `full` windows.
fn collect(readers: Vec<ReaderOut>, sent: u64, lateness: Histogram, full: usize) -> PhaseResult {
    let mut readers = readers.into_iter();
    let first = readers.next().expect("a phase has at least one connection");
    let mut out = PhaseResult {
        sent,
        ok: first.ok,
        failed: 0,
        windows: first.windows,
        latency: first.latency,
        lateness,
        within_slo: first.within_slo,
        achieved_per_s: 0.0,
        samples: first.samples,
    };
    for r in readers {
        out.ok += r.ok;
        out.within_slo += r.within_slo;
        out.windows.merge(&r.windows);
        out.latency.merge(&r.latency);
        out.samples.extend(r.samples);
    }
    out.windows.keep_full(full);
    // Whatever was sent and did not come back ok failed: explicit refusals
    // and requests still unanswered when the drain timer ran out alike.
    out.failed = sent - out.ok;
    out
}

/// Writes `line` and its newline with one `write`, through the scratch
/// buffer `frame`. The sockets have `TCP_NODELAY` set, so two writes would be
/// two segments, and the server would get every request in two parts.
fn write_line(mut stream: &TcpStream, frame: &mut Vec<u8>, line: &str) -> std::io::Result<()> {
    frame.clear();
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    stream.write_all(frame)
}

/// Sleeps until `t`. No spinning: on two cores shared with the system
/// under test a spinning scheduler takes one of them, and whichever server
/// thread lands beside it sets the latency (p50 at 10 000 req/s flipped
/// between 0.15 and 0.21 ms from run to run). Sleeping wakes ≈ 0.1 ms late,
/// which the phase reports as its own lateness and, timing from the due
/// instant, charges to every request.
fn wait_until(t: Instant) {
    while let Some(left) = t.checked_duration_since(Instant::now()) {
        if left.is_zero() {
            break;
        }
        std::thread::sleep(left);
    }
}

/// Reads response lines until every request the scheduler sent has been
/// answered (or [`DRAIN`] passes after the scheduler finished), handing
/// each ok response to `on_ok(id, line, arrival)`.
fn read_responses(
    stream: &TcpStream,
    sent: &AtomicU64,
    done: &AtomicBool,
    mut on_ok: impl FnMut(u64, &[u8], Instant),
) {
    let mut reader = LineReader::new(stream, Duration::from_millis(20));
    let mut received = 0u64;
    let mut done_at: Option<Instant> = None;
    loop {
        if done.load(Ordering::Acquire) {
            if received >= sent.load(Ordering::Acquire) {
                return;
            }
            if done_at.get_or_insert_with(Instant::now).elapsed() > DRAIN {
                return;
            }
        }
        let line = match reader.next_line() {
            Next::Line(line) => line,
            Next::Idle => continue,
            Next::Closed => return,
        };
        let now = Instant::now();
        received += 1;
        if let Some((id, true)) = scan_response(line) {
            on_ok(id, line, now);
        }
    }
}

/// One closed-loop phase's parameters, shared by its connection threads.
#[derive(Clone, Copy)]
struct ClosedLoop<'a> {
    lines: &'a [String],
    cycle: bool,
    n_conns: usize,
    window: usize,
    start: Instant,
    end: Instant,
    windows: usize,
    sample: &'a (dyn Fn(u64) -> bool + Sync),
}

impl ClosedLoop<'_> {
    /// Runs connection `conn`; returns its tallies, how many requests it
    /// wrote, and how many time windows it completed with requests to send.
    fn run(self, stream: &TcpStream, conn: usize) -> (ReaderOut, u64, usize) {
        let window_len = (self.end - self.start) / self.windows as u32;
        let mut out = ReaderOut::new(self.windows, window_len.as_secs_f64());
        // The measuring time ends at `end`, or earlier at the moment this
        // connection had no request left to send.
        let mut measured_until = self.end;
        let mut reader = LineReader::new(stream, Duration::from_millis(20));
        let mut sent_at: HashMap<u64, Instant> = HashMap::with_capacity(self.window * 2);
        let mut next = conn;
        let mut sent = 0u64;
        let mut frame = Vec::new();
        let mut send = |sent_at: &mut HashMap<u64, Instant>| -> bool {
            let at = if self.cycle {
                next % self.lines.len()
            } else {
                next
            };
            let Some(line) = self.lines.get(at) else {
                return false;
            };
            sent_at.insert(at as u64, Instant::now());
            if write_line(stream, &mut frame, line).is_err() {
                sent_at.remove(&(at as u64));
                return false;
            }
            next += self.n_conns;
            sent += 1;
            true
        };
        for _ in 0..self.window {
            if !send(&mut sent_at) {
                break;
            }
        }
        let mut drain_until: Option<Instant> = None;
        while !sent_at.is_empty() {
            if drain_until.is_some_and(|t| Instant::now() > t) {
                break;
            }
            let line = match reader.next_line() {
                Next::Line(line) => line,
                Next::Idle => {
                    if Instant::now() >= self.end {
                        drain_until.get_or_insert(self.end + DRAIN);
                    }
                    continue;
                }
                Next::Closed => break,
            };
            let now = Instant::now();
            let Some((id, ok)) = scan_response(line) else {
                continue;
            };
            let Some(at) = sent_at.remove(&id) else {
                continue;
            };
            if ok {
                // Arrivals after the measuring time fall past the last window.
                let w = if now <= measured_until {
                    ((now - self.start).as_nanos() / window_len.as_nanos().max(1)) as usize
                } else {
                    usize::MAX
                };
                out.ok(
                    id,
                    line,
                    (now - at).as_nanos() as u64,
                    w,
                    Duration::MAX,
                    self.sample,
                );
            }
            if now >= measured_until {
                drain_until.get_or_insert(self.end + DRAIN);
            } else if !send(&mut sent_at) {
                measured_until = now;
            }
        }
        let full =
            ((measured_until - self.start).as_nanos() / window_len.as_nanos().max(1)) as usize;
        (out, sent, full.min(self.windows))
    }
}

/// What [`LineReader::next_line`] found.
enum Next<'a> {
    Line(&'a [u8]),
    /// The read timed out; callers poll their stop condition and retry.
    Idle,
    Closed,
}

/// Splits a socket's byte stream into lines without copying each one out.
struct LineReader<'a> {
    stream: &'a TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as lines.
    consumed: usize,
    /// Bytes of `buf` already searched for a newline.
    scanned: usize,
}

impl<'a> LineReader<'a> {
    fn new(stream: &'a TcpStream, poll: Duration) -> Self {
        stream
            .set_read_timeout(Some(poll))
            .expect("set_read_timeout on a live socket");
        Self {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            consumed: 0,
            scanned: 0,
        }
    }

    /// The next complete line already buffered, as a range of `buf`.
    fn take_buffered(&mut self) -> Option<std::ops::Range<usize>> {
        let pos = self.buf[self.scanned..].iter().position(|&b| b == b'\n')?;
        let range = self.consumed..self.scanned + pos;
        self.consumed = range.end + 1;
        self.scanned = range.end + 1;
        Some(range)
    }

    /// Reads once from the socket into `buf`, dropping consumed bytes first.
    /// `Some(true)` on data, `Some(false)` on timeout, `None` once closed.
    fn fill(&mut self) -> Option<bool> {
        self.scanned = self.buf.len();
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.scanned -= self.consumed;
            self.consumed = 0;
        }
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => None,
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Some(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                Some(false)
            }
            Err(_) => None,
        }
    }

    fn next_line(&mut self) -> Next<'_> {
        let range = loop {
            if let Some(range) = self.take_buffered() {
                break range;
            }
            match self.fill() {
                Some(true) => {}
                Some(false) => return Next::Idle,
                None => return Next::Closed,
            }
        };
        Next::Line(&self.buf[range])
    }
}

/// One request/response exchange at depth 1 on a raw socket, returning the
/// response line and the round-trip time. The traced run's root span.
pub fn round_trip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> std::io::Result<(String, Duration)> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    let t = Instant::now();
    write_line(stream, &mut frame, line)?;
    let mut resp = String::new();
    reader.read_line(&mut resp)?;
    let dt = t.elapsed();
    if resp.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Ok((resp, dt))
}

/// Opens a depth-1 connection for [`round_trip`].
pub fn depth1(addr: &str) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// A loopback server that answers every request line with
/// `{"id":<id>,"ok":true}` — what the generator is measured against, so a
/// ladder rung the generator itself cannot sustain is reported void rather
/// than blamed on the system under test.
pub struct EchoServer {
    addr: SocketAddr,
    stop: std::sync::Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl EchoServer {
    pub fn start() -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let stop2 = std::sync::Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            let mut conns = Vec::new();
            while !stop2.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let stop = std::sync::Arc::clone(&stop2);
                        conns.push(std::thread::spawn(move || echo_conn(stream, &stop)));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
            for c in conns {
                let _ = c.join();
            }
        });
        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    pub fn addr(&self) -> String {
        self.addr.to_string()
    }
}

impl Drop for EchoServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn echo_conn(stream: TcpStream, stop: &AtomicBool) {
    if stream.set_nonblocking(false).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let mut reader = LineReader::new(&stream, Duration::from_millis(20));
    let mut reply = Vec::with_capacity(64 * 1024);
    while !stop.load(Ordering::Acquire) {
        // Answer everything already buffered with one write, as a server
        // that batches its flushes would.
        reply.clear();
        while let Some(range) = reader.take_buffered() {
            let id = scan_id(&reader.buf[range]).unwrap_or(0);
            reply.extend_from_slice(format!("{{\"id\":{id},\"ok\":true}}\n").as_bytes());
        }
        if !reply.is_empty() {
            if (&stream).write_all(&reply).is_err() {
                return;
            }
            continue;
        }
        if reader.fill().is_none() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("{{\"id\":{i},\"op\":\"Health\"}}"))
            .collect()
    }

    #[test]
    fn scan_finds_id_and_ok() {
        assert_eq!(
            scan_response(br#"{"id":42,"ok":true,"error":null}"#),
            Some((42, true))
        );
        assert_eq!(
            scan_response(br#"{"id":7,"ok":false,"kind":"Overloaded"}"#),
            Some((7, false))
        );
        assert_eq!(scan_response(br#"{"id":null,"ok":false}"#), None);
        assert_eq!(scan_response(b"garbage"), None);
    }

    #[test]
    fn open_loop_answers_every_request_against_the_echo_server() {
        let echo = EchoServer::start().unwrap();
        let mut conns = Conns::connect(&echo.addr(), 2).unwrap();
        let r = conns.open_loop(&lines(400), 4_000.0, Duration::from_millis(50), 4, &|id| {
            id < 3
        });
        assert_eq!((r.sent, r.ok, r.failed), (400, 400, 0));
        assert_eq!(r.latency.count(), 400);
        assert_eq!(
            r.windows
                .windows
                .iter()
                .map(|h| h.count())
                .collect::<Vec<_>>(),
            [100, 100, 100, 100]
        );
        assert_eq!(r.lateness.count(), 400);
        assert_eq!(r.samples.len(), 3);
        assert!(r.samples[&2].contains("\"id\":2"));
    }

    #[test]
    fn closed_loop_keeps_a_window_and_stops_at_the_deadline() {
        let echo = EchoServer::start().unwrap();
        let mut conns = Conns::connect(&echo.addr(), 2).unwrap();
        let r = conns.closed_loop(
            &lines(1_000),
            true,
            8,
            Duration::from_millis(200),
            4,
            &|_| false,
        );
        assert!(r.sent >= 16, "sent only {}", r.sent);
        assert_eq!(r.failed, 0);
        assert_eq!(r.ok, r.sent);
        assert_eq!(r.windows.windows.len(), 4);
        assert!(r.windows.rate() > 0.0);
    }

    #[test]
    fn closed_loop_ends_when_requests_run_out() {
        let echo = EchoServer::start().unwrap();
        let mut conns = Conns::connect(&echo.addr(), 2).unwrap();
        let r = conns.closed_loop(&lines(50), false, 4, Duration::from_secs(5), 5, &|_| false);
        assert_eq!((r.sent, r.ok, r.failed), (50, 50, 0));
        // The requests ran out within the first of five one-second windows.
        assert_eq!(r.windows.windows.len(), 1);
    }
}
