//! Property tests for the incremental NDJSON frame decoder.
//!
//! The decoder's contract (see the `rrre_wire::frame` module docs) is that chunk
//! boundaries are invisible: feeding a byte stream in arbitrary pieces
//! yields byte-identical frames to whole-buffer parsing, never panics, and
//! enforces the line bound with one structured [`FrameError`] per
//! oversized line while buffering at most `max_line + 1` bytes. These
//! properties drive randomized streams and randomized chunkings through
//! both a fresh decoder and a reference model and demand exact agreement.

use proptest::prelude::*;
use rrre_wire::{FrameDecoder, FrameError, FrameEvent, MAX_LINE_BYTES};

/// What a decode run produced: every claimable event, then the EOF tail.
fn drain(decoder: &mut FrameDecoder) -> Vec<FrameEvent> {
    std::iter::from_fn(|| decoder.next_event()).collect()
}

/// Reference semantics computed on the whole buffer at once: split on
/// `\n`; each complete line becomes a `Frame` (within the bound) or one
/// `Oversized` (past it); an unterminated tail is a `Frame` from
/// `finish()` when within the bound, or an `Oversized` already emitted
/// during `push` when past it.
fn reference(stream: &[u8], limit: usize) -> (Vec<FrameEvent>, Option<FrameEvent>) {
    let parts: Vec<&[u8]> = stream.split(|&b| b == b'\n').collect();
    let (tail, lines) = parts.split_last().expect("split yields at least one part");
    let mut events = Vec::new();
    for line in lines {
        events.push(if line.len() > limit {
            FrameEvent::Oversized(FrameError { limit })
        } else {
            FrameEvent::Frame(line.to_vec())
        });
    }
    let finish = if tail.is_empty() {
        None
    } else if tail.len() > limit {
        events.push(FrameEvent::Oversized(FrameError { limit }));
        None
    } else {
        Some(FrameEvent::Frame(tail.to_vec()))
    };
    (events, finish)
}

/// Joins `lines` with `\n`, optionally newline-terminated — the raw bytes
/// a peer would have written.
fn build_stream(lines: &[Vec<u8>], terminated: bool) -> Vec<u8> {
    let mut stream = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if i > 0 {
            stream.push(b'\n');
        }
        stream.extend_from_slice(line);
    }
    if terminated && !lines.is_empty() {
        stream.push(b'\n');
    }
    stream
}

/// Line content: any byte except the frame delimiter, including invalid
/// UTF-8 — framing is byte-level and must not care.
fn line_byte() -> impl Strategy<Value = u8> {
    (0u8..=255).prop_map(|b| if b == b'\n' { b'~' } else { b })
}

/// Lines straddling the bound on both sides for small limits.
fn lines_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(line_byte(), 0..96), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline property: any chunking of any stream produces exactly
    /// the whole-buffer events (which in turn match the reference model),
    /// and the same EOF tail.
    #[test]
    fn arbitrary_chunk_splits_match_whole_buffer_parsing(
        limit in 4usize..48,
        lines in lines_strategy(),
        terminated in any::<bool>(),
        chunk_sizes in prop::collection::vec(1usize..17, 1..48),
    ) {
        let stream = build_stream(&lines, terminated);

        let mut whole = FrameDecoder::new(limit);
        whole.push(&stream);
        let whole_events = drain(&mut whole);
        let whole_tail = whole.finish();

        let mut chunked = FrameDecoder::new(limit);
        let mut rest: &[u8] = &stream;
        let mut cuts = chunk_sizes.iter().cycle();
        while !rest.is_empty() {
            let take = (*cuts.next().unwrap()).min(rest.len());
            chunked.push(&rest[..take]);
            rest = &rest[take..];
        }
        let chunked_events = drain(&mut chunked);
        let chunked_tail = chunked.finish();

        prop_assert_eq!(&chunked_events, &whole_events, "chunk boundaries changed the frames");
        prop_assert_eq!(&chunked_tail, &whole_tail, "chunk boundaries changed the EOF tail");

        let (expected_events, expected_tail) = reference(&stream, limit);
        prop_assert_eq!(&whole_events, &expected_events, "decoder diverged from the reference");
        prop_assert_eq!(&whole_tail, &expected_tail);
        // finish() is idempotent: the tail is taken exactly once.
        prop_assert_eq!(chunked.finish(), None);
    }

    /// Claiming events *between* pushes (as the event loop does under
    /// backpressure) must not change what is decoded.
    #[test]
    fn interleaved_claims_see_the_same_frames(
        limit in 4usize..48,
        lines in lines_strategy(),
        terminated in any::<bool>(),
        chunk_sizes in prop::collection::vec(1usize..17, 1..48),
    ) {
        let stream = build_stream(&lines, terminated);
        let mut decoder = FrameDecoder::new(limit);
        let mut events = Vec::new();
        let mut rest: &[u8] = &stream;
        let mut cuts = chunk_sizes.iter().cycle();
        while !rest.is_empty() {
            let take = (*cuts.next().unwrap()).min(rest.len());
            decoder.push(&rest[..take]);
            rest = &rest[take..];
            events.extend(std::iter::from_fn(|| decoder.next_event()));
            prop_assert_eq!(decoder.pending_events(), 0);
        }
        let tail = decoder.finish();
        let (expected_events, expected_tail) = reference(&stream, limit);
        prop_assert_eq!(&events, &expected_events);
        prop_assert_eq!(&tail, &expected_tail);
    }

    /// Each oversized line yields exactly one structured error naming the
    /// bound, and the decoder keeps decoding cleanly after it — no matter
    /// how far past the bound the line ran or how it was chunked.
    #[test]
    fn oversized_lines_error_once_and_decoding_recovers(
        limit in 4usize..32,
        excess in 1usize..300,
        chunk in 1usize..17,
        terminated in any::<bool>(),
    ) {
        let mut stream = vec![b'x'; limit + excess];
        stream.push(b'\n');
        stream.extend_from_slice(b"ok");
        if terminated {
            stream.push(b'\n');
        }
        let mut decoder = FrameDecoder::new(limit);
        for piece in stream.chunks(chunk) {
            decoder.push(piece);
        }
        prop_assert_eq!(
            decoder.next_event(),
            Some(FrameEvent::Oversized(FrameError { limit })),
            "the bound crossing must produce exactly one structured error"
        );
        let ok = FrameEvent::Frame(b"ok".to_vec());
        if terminated {
            prop_assert_eq!(decoder.next_event(), Some(ok));
            prop_assert_eq!(decoder.finish(), None);
        } else {
            prop_assert_eq!(decoder.next_event(), None);
            prop_assert_eq!(decoder.finish(), Some(ok));
        }
        prop_assert_eq!(decoder.next_event(), None);
    }

    /// The production bound: a frame of exactly `MAX_LINE_BYTES` is legal,
    /// one byte more draws the structured refusal whose message names the
    /// number (protocol_robustness depends on that phrasing), wherever the
    /// chunk boundaries fall.
    #[test]
    fn sixteen_kib_bound_is_exclusive_and_structured(
        over in any::<bool>(),
        chunk in 1usize..4096,
    ) {
        let len = if over { MAX_LINE_BYTES + 1 } else { MAX_LINE_BYTES };
        let mut stream = vec![b'j'; len];
        stream.push(b'\n');
        let mut decoder = FrameDecoder::new(MAX_LINE_BYTES);
        for piece in stream.chunks(chunk) {
            decoder.push(piece);
        }
        if over {
            match decoder.next_event() {
                Some(FrameEvent::Oversized(err)) => {
                    prop_assert_eq!(err.limit, MAX_LINE_BYTES);
                    prop_assert_eq!(
                        err.to_string(),
                        format!("request line exceeds {MAX_LINE_BYTES} bytes")
                    );
                }
                other => prop_assert!(false, "one-past-the-bound must be refused, got {other:?}"),
            }
        } else {
            prop_assert_eq!(decoder.next_event(), Some(FrameEvent::Frame(vec![b'j'; len])));
        }
        prop_assert_eq!(decoder.next_event(), None);
        prop_assert!(!decoder.has_partial());
    }
}
