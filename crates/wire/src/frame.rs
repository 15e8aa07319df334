//! Incremental NDJSON frame decoding: the one line splitter both ends of
//! the protocol use. The server's event loop reads request lines through
//! it under [`crate::MAX_LINE_BYTES`]; every client connection reads
//! response lines through it under [`crate::MAX_RESPONSE_BYTES`].
//!
//! A reader feeds whatever the socket has — which may be half a frame,
//! three frames and a prefix, or one byte — into [`FrameDecoder::push`].
//! The decoder splits the stream on `\n` into frames **byte-identically to
//! whole-buffer parsing**: concatenating the chunks and splitting on
//! newlines yields exactly the frames this decoder emits, no matter where
//! the chunk boundaries fall.
//!
//! The line bound is enforced incrementally: the moment a frame's buffered
//! prefix exceeds it, the decoder emits one structured
//! [`FrameEvent::Oversized`] and switches to discard mode, dropping bytes
//! (never buffering them) until the terminating newline. Memory per
//! connection is therefore bounded by `max_line + 1` regardless of what the
//! peer sends. A frame of exactly `max_line` bytes is legal — the bound is
//! exclusive, matching the old server's `take(limit + 1)` sentinel-byte
//! read.

use std::collections::VecDeque;

/// One decoded event: a complete frame, or the structured refusal for an
/// oversized one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameEvent {
    /// One complete frame — the bytes of a line, **without** the trailing
    /// `\n` (and without any `\r`-stripping: the protocol is `\n`-framed).
    Frame(Vec<u8>),
    /// A frame exceeded the line bound. Emitted exactly once per oversized
    /// line, at the moment the bound is crossed; the rest of the line is
    /// discarded without being buffered.
    Oversized(FrameError),
}

/// The structured error for a frame past the line bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameError {
    /// The exclusive byte bound the frame exceeded.
    pub limit: usize,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Must keep naming the limit: protocol_robustness asserts the
        // refusal carries the number so clients can size their lines.
        write!(f, "request line exceeds {} bytes", self.limit)
    }
}

impl std::error::Error for FrameError {}

/// Splits a byte stream into newline-delimited frames, incrementally and
/// with bounded buffering. See the module docs for the exact semantics.
#[derive(Debug)]
pub struct FrameDecoder {
    max_line: usize,
    /// The incomplete frame's prefix (≤ `max_line + 1` bytes — the +1 is
    /// the sentinel that distinguishes "exactly at the bound" from "past
    /// it" without a flag).
    partial: Vec<u8>,
    /// Inside an oversized line: drop bytes until the next `\n`.
    discarding: bool,
    /// Decoded-but-unclaimed events.
    ready: VecDeque<FrameEvent>,
}

impl FrameDecoder {
    /// A decoder enforcing `max_line` (exclusive) bytes per frame.
    pub fn new(max_line: usize) -> Self {
        assert!(max_line >= 1, "FrameDecoder: max_line must be ≥ 1");
        Self { max_line, partial: Vec::new(), discarding: false, ready: VecDeque::new() }
    }

    /// Feeds one chunk of received bytes. Completed frames become claimable
    /// via [`FrameDecoder::next_event`].
    pub fn push(&mut self, mut chunk: &[u8]) {
        while !chunk.is_empty() {
            if self.discarding {
                match chunk.iter().position(|&b| b == b'\n') {
                    Some(nl) => {
                        self.discarding = false;
                        chunk = &chunk[nl + 1..];
                    }
                    None => return, // the whole chunk is mid-discard noise
                }
                continue;
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    let mut frame = std::mem::take(&mut self.partial);
                    frame.extend_from_slice(&chunk[..nl]);
                    chunk = &chunk[nl + 1..];
                    if frame.len() > self.max_line {
                        self.ready.push_back(FrameEvent::Oversized(FrameError {
                            limit: self.max_line,
                        }));
                    } else {
                        self.ready.push_back(FrameEvent::Frame(frame));
                    }
                }
                None => {
                    // No delimiter: buffer, bounded. Crossing the limit
                    // emits the error *now* and stops buffering — the
                    // remainder of this line is discarded as it arrives.
                    let take = chunk.len().min((self.max_line + 1).saturating_sub(self.partial.len()));
                    self.partial.extend_from_slice(&chunk[..take]);
                    if self.partial.len() > self.max_line {
                        self.partial.clear();
                        self.discarding = true;
                        self.ready.push_back(FrameEvent::Oversized(FrameError {
                            limit: self.max_line,
                        }));
                        chunk = &chunk[take..];
                        continue;
                    }
                    return;
                }
            }
        }
    }

    /// Claims the next decoded event, if any.
    pub fn next_event(&mut self) -> Option<FrameEvent> {
        self.ready.pop_front()
    }

    /// Whether an incomplete frame is buffered (slow-loris detection and
    /// the `frames_partial` counter).
    pub fn has_partial(&self) -> bool {
        !self.partial.is_empty() || self.discarding
    }

    /// Decoded events not yet claimed with [`FrameDecoder::next_event`]
    /// (nonzero while backpressure pauses a connection's claim loop).
    pub fn pending_events(&self) -> usize {
        self.ready.len()
    }

    /// EOF: the unterminated tail, if there is one, as a final frame (the
    /// old server answered a mid-line disconnect with a best-effort
    /// response rather than a silent close). An oversized unterminated
    /// tail already produced its error event in `push` and yields nothing
    /// here. Idempotent — the tail is taken.
    pub fn finish(&mut self) -> Option<FrameEvent> {
        self.discarding = false;
        if self.partial.is_empty() {
            return None;
        }
        Some(FrameEvent::Frame(std::mem::take(&mut self.partial)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(decoder: &mut FrameDecoder) -> Vec<FrameEvent> {
        std::iter::from_fn(|| decoder.next_event()).collect()
    }

    #[test]
    fn whole_buffer_and_split_buffer_agree() {
        let stream = b"{\"op\":\"Stats\"}\n\n{\"op\":\"Health\"}\npartial";
        let mut whole = FrameDecoder::new(64);
        whole.push(stream);
        let mut split = FrameDecoder::new(64);
        for b in stream.iter() {
            split.push(std::slice::from_ref(b));
        }
        assert_eq!(frames(&mut whole), frames(&mut split));
        assert_eq!(whole.finish(), Some(FrameEvent::Frame(b"partial".to_vec())));
        assert_eq!(split.finish(), Some(FrameEvent::Frame(b"partial".to_vec())));
    }

    #[test]
    fn exactly_at_the_bound_is_legal_one_past_is_not() {
        let mut d = FrameDecoder::new(4);
        d.push(b"abcd\n");
        assert_eq!(d.next_event(), Some(FrameEvent::Frame(b"abcd".to_vec())));
        d.push(b"abcde\n");
        assert_eq!(d.next_event(), Some(FrameEvent::Oversized(FrameError { limit: 4 })));
        assert_eq!(d.next_event(), None);
    }

    #[test]
    fn oversized_line_is_reported_once_and_never_buffered() {
        let mut d = FrameDecoder::new(4);
        // 1 MiB of garbage in small chunks: one error, bounded memory.
        for _ in 0..4096 {
            d.push(&[b'x'; 256]);
        }
        assert!(d.partial.len() <= 5, "discard mode must not buffer");
        assert_eq!(d.next_event(), Some(FrameEvent::Oversized(FrameError { limit: 4 })));
        assert_eq!(d.next_event(), None);
        // The newline ends the discard; the connection speaks again.
        d.push(b"\nok\n");
        assert_eq!(d.next_event(), Some(FrameEvent::Frame(b"ok".to_vec())));
    }

    #[test]
    fn finish_yields_the_unterminated_tail_once() {
        let mut d = FrameDecoder::new(16);
        d.push(b"tail");
        assert!(d.has_partial());
        assert_eq!(d.finish(), Some(FrameEvent::Frame(b"tail".to_vec())));
        assert_eq!(d.finish(), None);
    }

    #[test]
    fn oversized_unterminated_tail_yields_no_extra_frame_at_eof() {
        let mut d = FrameDecoder::new(4);
        d.push(b"abcdefgh");
        assert_eq!(d.next_event(), Some(FrameEvent::Oversized(FrameError { limit: 4 })));
        assert_eq!(d.finish(), None);
    }
}
