//! Per-connection state for the event loop: the incremental frame
//! decoder on the read side and a bounded response queue on the write
//! side.
//!
//! A connection never owns a thread. The event loop reads whatever the
//! socket has into the [`FrameDecoder`], submits decoded frames to the
//! engine, and queues encoded responses here; flushing happens with
//! `writev` whenever the socket is writable, batching every queued
//! response line into as few syscalls as the kernel buffer allows.
//!
//! **Backpressure** is two-sided and per connection: reads stop (the loop
//! drops `EPOLLIN` interest) while either the queued output exceeds
//! [`write backpressure`](Conn::wants_read) limits or the connection
//! already has its in-flight quota submitted; both drain as responses
//! complete and flush, and read interest comes back automatically.

use rrre_wire::FrameDecoder;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::Instant;

/// One live connection's state. Owned by the event loop; nothing here is
/// shared or locked.
pub struct Conn {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Splits the inbound byte stream into NDJSON frames.
    pub decoder: FrameDecoder,
    /// Encoded response lines (each already `\n`-terminated) awaiting the
    /// socket, in completion order.
    pub out: VecDeque<Vec<u8>>,
    /// Bytes of `out.front()` already written (a `writev` may split a
    /// frame across calls).
    pub out_head: usize,
    /// Total queued output bytes (the write-backpressure watermark input).
    pub out_bytes: usize,
    /// Requests submitted to the engine and not yet completed.
    pub inflight: usize,
    /// The peer closed its write half; no more frames will arrive.
    pub eof: bool,
    /// Close once `out` drains (used for the one-response refusal paths).
    pub close_after_flush: bool,
    /// Last moment bytes arrived — the idle-timeout basis.
    pub last_activity: Instant,
    /// The interest bits currently registered with epoll (so the loop
    /// only issues `EPOLL_CTL_MOD` when they actually change).
    pub registered_interest: u32,
}

impl Conn {
    /// Wraps a freshly accepted nonblocking socket.
    pub fn new(stream: TcpStream, max_line: usize, now: Instant) -> Self {
        Self {
            stream,
            decoder: FrameDecoder::new(max_line),
            out: VecDeque::new(),
            out_head: 0,
            out_bytes: 0,
            inflight: 0,
            eof: false,
            close_after_flush: false,
            last_activity: now,
            registered_interest: 0,
        }
    }

    /// Queues one encoded response line for the socket.
    pub fn enqueue(&mut self, frame: Vec<u8>) {
        self.out_bytes += frame.len();
        self.out.push_back(frame);
    }

    /// Whether queued output remains.
    pub fn has_output(&self) -> bool {
        !self.out.is_empty()
    }

    /// Whether the loop should keep `EPOLLIN` interest: not past EOF, not
    /// closing, in-flight quota free, and queued output under the
    /// watermark. Dropping read interest *is* the backpressure — the
    /// kernel's receive buffer fills and TCP pushes back on the peer.
    pub fn wants_read(&self, max_inflight: usize, write_buffer_cap: usize) -> bool {
        !self.eof
            && !self.close_after_flush
            && self.inflight < max_inflight
            && self.out_bytes < write_buffer_cap
    }

    /// Whether every obligation is met: nothing queued, nothing in
    /// flight, and no frames decoded but unclaimed. An EOF'd connection
    /// closes exactly when this turns true.
    pub fn is_drained(&self) -> bool {
        self.out.is_empty() && self.inflight == 0
    }

    /// Drops the `n` flushed bytes off the front of the queue.
    pub fn consume_out(&mut self, mut n: usize) {
        self.out_bytes -= n;
        n += self.out_head;
        self.out_head = 0;
        while n > 0 {
            let front_len = match self.out.front() {
                Some(f) => f.len(),
                None => break,
            };
            if n >= front_len {
                self.out.pop_front();
                n -= front_len;
            } else {
                self.out_head = n;
                break;
            }
        }
    }

    /// The queue's front view for `writev`: the partially written first
    /// frame's remainder, then whole frames.
    pub fn out_slices(&self) -> Vec<&[u8]> {
        let mut slices: Vec<&[u8]> = Vec::with_capacity(self.out.len().min(64));
        for (i, frame) in self.out.iter().enumerate() {
            if i == 0 {
                slices.push(&frame[self.out_head..]);
            } else {
                slices.push(frame.as_slice());
            }
        }
        slices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn conn() -> Conn {
        // A real socket pair purely to satisfy the field; the logic under
        // test never touches it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        Conn::new(stream, 1024, Instant::now())
    }

    #[test]
    fn consume_out_tracks_partial_frames() {
        let mut c = conn();
        c.enqueue(b"aaaa\n".to_vec());
        c.enqueue(b"bb\n".to_vec());
        assert_eq!(c.out_bytes, 8);
        c.consume_out(3); // mid-first-frame
        assert_eq!(c.out_head, 3);
        assert_eq!(c.out_slices(), vec![&b"a\n"[..], &b"bb\n"[..]]);
        c.consume_out(4); // rest of first + "bb"
        assert_eq!(c.out_slices(), vec![&b"\n"[..]]);
        c.consume_out(1);
        assert!(!c.has_output());
        assert_eq!(c.out_bytes, 0);
    }

    #[test]
    fn backpressure_gates_read_interest() {
        let mut c = conn();
        assert!(c.wants_read(2, 100));
        c.inflight = 2;
        assert!(!c.wants_read(2, 100), "inflight quota exhausted");
        c.inflight = 0;
        c.enqueue(vec![b'x'; 100]);
        assert!(!c.wants_read(2, 100), "write watermark exceeded");
        c.consume_out(100);
        assert!(c.wants_read(2, 100));
        c.eof = true;
        assert!(!c.wants_read(2, 100));
    }
}
