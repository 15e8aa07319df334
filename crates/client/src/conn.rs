//! One client connection: the only code in the workspace that reads
//! protocol responses off a socket.
//!
//! A [`LineConn`] writes each request as one `\n`-terminated line in one
//! write, and reads response lines through the server's own
//! [`FrameDecoder`] bounded by [`MAX_RESPONSE_BYTES`]. Memory per
//! connection therefore stays bounded whatever the peer sends, and a line
//! past the bound is refused the moment it crosses it, not when the peer
//! stops sending. [`crate::Client`]'s replica pools, the leader's
//! replication shippers in `rrre-serve` and pipelining drills (many
//! requests in flight, answers in completion order) all use it.
//!
//! Failures are classified as [`crate::Client`] classifies them: a
//! transport timeout is [`ErrorClass::Timeout`], a reset or an EOF (mid-line
//! or not) is [`ErrorClass::ConnectionLost`], and an undecodable line, a
//! line past the bound or an answer to another request is
//! [`ErrorClass::Protocol`].

use crate::{ClientError, ErrorClass};
use rrre_wire::{FrameDecoder, FrameEvent, Request, Response, MAX_RESPONSE_BYTES};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Bytes one `read` asks the kernel for.
const READ_CHUNK: usize = 8 * 1024;

/// A blocking NDJSON connection to one protocol endpoint. One owner, no
/// internal locking.
pub struct LineConn {
    stream: TcpStream,
    /// Received bytes not yet claimed as responses. Kept across calls, so
    /// a timed-out [`LineConn::recv`] never loses a partial line.
    decoder: FrameDecoder,
}

impl LineConn {
    /// Dials every address `addr` resolves to, in turn, each within
    /// `connect_timeout`, and keeps the first that connects, with
    /// `TCP_NODELAY` set. Names resolve through `ToSocketAddrs`, so
    /// hostnames (`replica-2:7001`) work, not just socket-address literals.
    pub fn dial(addr: &str, connect_timeout: Duration) -> io::Result<Self> {
        let mut last = None;
        for sock in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock, connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return Ok(Self { stream, decoder: FrameDecoder::new(MAX_RESPONSE_BYTES) });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: no addresses"))
        }))
    }

    /// Writes `req` as one line, in one write, within `timeout`.
    pub fn send(&mut self, req: &Request, timeout: Duration) -> Result<(), ClientError> {
        let mut line = serde_json::to_string(req).expect("Request serialisation cannot fail");
        line.push('\n');
        self.stream
            .set_write_timeout(Some(timeout))
            .and_then(|()| self.stream.write_all(line.as_bytes()))
            .map_err(transport)
    }

    /// Reads and decodes the next response line, waiting up to `timeout`.
    /// Responses come in whatever order the server completed them.
    ///
    /// A [`ErrorClass::Timeout`] is resumable: a partially received line
    /// stays buffered and the next call continues it, so a caller may poll
    /// with short timeouts without corrupting the framing.
    pub fn recv(&mut self, timeout: Duration) -> Result<Response, ClientError> {
        let deadline = Instant::now() + timeout;
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.decoder.next_event() {
                Some(FrameEvent::Frame(line)) => return decode(&line),
                Some(FrameEvent::Oversized(e)) => {
                    return Err(ClientError::new(
                        ErrorClass::Protocol,
                        format!("response line exceeds {} bytes", e.limit),
                    ))
                }
                None => {}
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ClientError::new(
                    ErrorClass::Timeout,
                    "no complete response within the timeout",
                ));
            }
            self.stream.set_read_timeout(Some(remaining)).map_err(transport)?;
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(ClientError::new(
                        ErrorClass::ConnectionLost,
                        if self.decoder.has_partial() {
                            "truncated response line"
                        } else {
                            "server closed the connection before responding"
                        },
                    ))
                }
                Ok(n) => self.decoder.push(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(transport(e)),
            }
        }
    }

    /// One lockstep round trip: [`LineConn::send`], then
    /// [`LineConn::recv`], then a check that the answer carries `req`'s
    /// `id` (absent on both sides counts as a match). Any other id means a
    /// stale or corrupted stream.
    pub fn exchange(&mut self, req: &Request, timeout: Duration) -> Result<Response, ClientError> {
        self.send(req, timeout)?;
        let resp = self.recv(timeout)?;
        if resp.id != req.id {
            return Err(ClientError::new(
                ErrorClass::Protocol,
                format!("response id {:?} does not match request id {:?}", resp.id, req.id),
            ));
        }
        Ok(resp)
    }
}

fn decode(line: &[u8]) -> Result<Response, ClientError> {
    std::str::from_utf8(line)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
        .map_err(|e| ClientError::new(ErrorClass::Protocol, format!("undecodable response: {e}")))
}

/// A socket error: a timeout is `Timeout`, anything else left the stream
/// at an unknown point — `ConnectionLost`.
fn transport(e: io::Error) -> ClientError {
    let class = match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ErrorClass::Timeout,
        _ => ErrorClass::ConnectionLost,
    };
    ClientError::new(class, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn dial_accepts_hostnames_not_just_socket_literals() {
        // `replica-2:7001`-style addresses must *resolve*, not be refused
        // as unparseable before the dial. The connection itself may still
        // fail (nothing listens on the reserved-then-released port) — the
        // regression under test is `InvalidInput` on every hostname.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        drop(listener);
        if let Err(err) = LineConn::dial(&format!("localhost:{port}"), Duration::from_millis(500)) {
            assert_ne!(
                err.kind(),
                io::ErrorKind::InvalidInput,
                "hostname was rejected instead of resolved: {err}"
            );
        }
    }

    #[test]
    fn a_partial_line_survives_a_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut conn = LineConn::dial(&addr, Duration::from_secs(1)).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let line = rrre_wire::encode_response(&Response::ok(Some(9)));
        let (head, tail) = line.split_at(line.len() / 2);
        server.write_all(head.as_bytes()).unwrap();
        let err = conn.recv(Duration::from_millis(50)).unwrap_err();
        assert_eq!(err.kind, ErrorClass::Timeout);
        server.write_all(format!("{tail}\n").as_bytes()).unwrap();
        let resp = conn.recv(Duration::from_secs(5)).unwrap();
        assert_eq!(resp.id, Some(9));
    }
}
