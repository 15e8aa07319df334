//! Write-ahead log for streaming review ingest.
//!
//! Every accepted `IngestReview` is appended here — length-prefixed,
//! CRC-checksummed, fsync'd per [`FsyncPolicy`] — *before* the client sees
//! an ack, so an acked review survives any crash. An ingest engine's open
//! reads the log back through [`replay_and_repair`], which distinguishes
//! the two ways a log can be damaged:
//!
//! * **Torn tail** — the process (or machine) died mid-append and the last
//!   segment ends in an incomplete record. Appends are strictly
//!   sequential, so an incomplete *suffix* is exactly what a crash
//!   produces; the tail is truncated at the last good record and recovery
//!   proceeds (`wal_recoveries` counts these).
//! * **Mid-log corruption** — a record is bytewise *complete* but its CRC
//!   (or its JSON payload) doesn't check out. A sequential append can
//!   never leave that shape behind; it is bit rot or tampering, and
//!   replay fails closed with a structured [`WalError::Corrupt`] rather
//!   than guessing which reviews to drop.
//!
//! On-disk record framing (all integers little-endian):
//!
//! ```text
//! [ payload_len: u32 ][ crc32(payload): u32 ][ payload: JSON WalRecord ]
//! ```
//!
//! Segments are `seg-NNNNNNNN.log` files under the WAL directory, rotated
//! at a size threshold so the compactor can drop *applied* segments with
//! whole-file deletes instead of rewriting a log in place.
//!
//! The module also owns [`SeqSet`], the merged-range set of client
//! sequence ids the server has durably accepted (duplicates are re-acked,
//! never re-applied). A compaction records the seqs it folded in the
//! artifact manifest itself ([`crate::ArtifactManifest::folded`]), so the
//! folded reviews and their seqs commit in one manifest replace; every
//! accepted record the artifact does not yet hold is the `ingest` module's
//! `IngestLog`.

use rrre_wire::{crc32, ReplRecordDto};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// One ingested review as logged. `seq` is the *client-supplied* sequence
/// id that makes retries idempotent; everything else is the review payload
/// exactly as it will be folded into the dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Client-supplied idempotency sequence id.
    pub seq: u64,
    /// Dense user id (must be inside the artifact's id space).
    pub user: u32,
    /// Dense item id (must be inside the artifact's id space).
    pub item: u32,
    /// Star rating in `[1, 5]`.
    pub rating: f32,
    /// Review timestamp (dataset time axis).
    pub ts: i64,
    /// Review text.
    pub text: String,
}

impl From<WalRecord> for ReplRecordDto {
    fn from(r: WalRecord) -> Self {
        ReplRecordDto::sealed(r.seq, r.user, r.item, r.rating, r.ts, r.text)
    }
}

impl From<&ReplRecordDto> for WalRecord {
    fn from(r: &ReplRecordDto) -> Self {
        WalRecord { seq: r.seq, user: r.user, item: r.item, rating: r.rating, ts: r.ts, text: r.text.clone() }
    }
}

/// Why a WAL could not be replayed (or written).
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// A bytewise-complete record failed its CRC or payload check — bit
    /// rot, not a torn write — so replay refuses to guess and fails
    /// closed. The fields pinpoint the damage for the operator.
    Corrupt {
        /// Segment file name containing the bad record.
        segment: String,
        /// Byte offset of the record header inside the segment.
        offset: u64,
        /// What exactly failed (CRC mismatch, bad JSON, ...).
        detail: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt { segment, offset, detail } => {
                write!(f, "wal corrupt: {segment} at byte {offset}: {detail}")
            }
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// When appended records reach the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record — an ack means the review is on disk.
    /// The durability default.
    EveryRecord,
    /// `fsync` once per `every` records (and on rotation/explicit sync).
    /// Acks between syncs are *not* yet durable — a throughput knob for
    /// benchmarking, documented as relaxed.
    Batched {
        /// Records between forced syncs.
        every: usize,
    },
}

const RECORD_HEADER: usize = 8;
/// Sanity bound on a single record's payload; anything larger is framing
/// garbage (review text is capped far below this by the wire layer).
const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

fn segment_name(index: u64) -> String {
    format!("seg-{index:08}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    rest.parse().ok()
}

/// Lists the WAL's segment files, sorted by index. A missing directory is
/// an empty log.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        if let Some(idx) = entry.file_name().to_str().and_then(parse_segment_name) {
            out.push((idx, entry.path()));
        }
    }
    out.sort_by_key(|(idx, _)| *idx);
    Ok(out)
}

fn encode_record(rec: &WalRecord) -> io::Result<Vec<u8>> {
    let payload = serde_json::to_string(rec).map_err(io::Error::other)?;
    let payload = payload.as_bytes();
    let mut buf = Vec::with_capacity(RECORD_HEADER + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(buf)
}

/// Appends records to the log, rotating segments at a size threshold.
pub struct WalWriter {
    dir: PathBuf,
    segment_bytes: u64,
    policy: FsyncPolicy,
    file: File,
    seg_index: u64,
    written: u64,
    since_sync: usize,
}

impl WalWriter {
    /// Opens (creating if absent) the WAL under `dir`, appending to the
    /// newest existing segment. Run [`replay_and_repair`] *first* so a
    /// torn tail is truncated before new records land after it.
    pub fn open(dir: &Path, segment_bytes: u64, policy: FsyncPolicy) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let segments = list_segments(dir)?;
        let (seg_index, path) = match segments.last() {
            Some((idx, path)) => (*idx, path.clone()),
            None => (0, dir.join(segment_name(0))),
        };
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let written = file.metadata()?.len();
        Ok(Self { dir: dir.to_path_buf(), segment_bytes, policy, file, seg_index, written, since_sync: 0 })
    }

    /// Appends one record, honouring the fsync policy; returns the bytes
    /// written (for the `wal_bytes` counter). After `append` returns under
    /// [`FsyncPolicy::EveryRecord`], the record is durable.
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<u64> {
        if self.written >= self.segment_bytes {
            self.rotate()?;
        }
        let buf = encode_record(rec)?;
        self.file.write_all(&buf)?;
        self.written += buf.len() as u64;
        self.since_sync += 1;
        match self.policy {
            FsyncPolicy::EveryRecord => self.sync()?,
            FsyncPolicy::Batched { every } => {
                if self.since_sync >= every.max(1) {
                    self.sync()?;
                }
            }
        }
        Ok(buf.len() as u64)
    }

    /// Forces pending appends to disk.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.since_sync > 0 {
            self.file.sync_data()?;
            self.since_sync = 0;
        }
        Ok(())
    }

    /// Syncs and closes the current segment and starts the next one.
    /// Returns the new segment's index. The compactor rotates before
    /// snapshotting so records that arrive *during* compaction land in a
    /// segment it will not truncate.
    pub fn rotate(&mut self) -> io::Result<u64> {
        self.sync()?;
        self.seg_index += 1;
        let path = self.dir.join(segment_name(self.seg_index));
        self.file = OpenOptions::new().create(true).append(true).open(&path)?;
        self.written = 0;
        Ok(self.seg_index)
    }

    /// Index of the segment currently being appended to.
    pub fn current_segment(&self) -> u64 {
        self.seg_index
    }
}

/// What a replay recovered.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Every intact record, in append order across all segments.
    pub records: Vec<WalRecord>,
    /// Torn-tail truncations performed (the `wal_recoveries` counter).
    /// Mid-log corruption is *not* counted here — it fails closed.
    pub truncated_tails: u64,
    /// Total intact bytes scanned (seeds the `wal_bytes` counter).
    pub bytes: u64,
}

/// Reads one little-endian `u32` header field at `at`, turning a
/// short-by-construction slice into a structured corruption error instead
/// of a panic. Callers bound-check `remaining` first, so hitting the error
/// path means the framing arithmetic itself disagrees with the bytes — a
/// shape worth reporting precisely, never unwrapping over.
fn read_header_u32(bytes: &[u8], at: usize, segment: &str, what: &str) -> Result<u32, WalError> {
    let field = at
        .checked_add(4)
        .and_then(|end| bytes.get(at..end))
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .ok_or_else(|| WalError::Corrupt {
            segment: segment.to_string(),
            offset: at as u64,
            detail: format!("record {what} extends past the segment end"),
        })?;
    Ok(u32::from_le_bytes(field))
}

/// Replays every segment, repairing a torn tail in place.
///
/// Only the *final* segment may legitimately end mid-record (appends are
/// sequential and rotation syncs); an incomplete suffix there is truncated
/// at the last good record and counted. Any complete-but-invalid record —
/// in any segment — fails closed with [`WalError::Corrupt`].
pub fn replay_and_repair(dir: &Path) -> Result<Recovery, WalError> {
    let segments = list_segments(dir)?;
    let mut out = Recovery::default();
    let last = segments.len().saturating_sub(1);
    for (pos, (_, path)) in segments.iter().enumerate() {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_string();
        let mut offset = 0usize;
        while offset < bytes.len() {
            let remaining = bytes.len() - offset;
            // An incomplete suffix: header or payload cut short. A *complete*
            // header advertising an impossible payload is handled separately
            // below — the writer never produces such a record, so it is
            // framing garbage, not a torn write.
            let torn = if remaining < RECORD_HEADER {
                true
            } else {
                let len = read_header_u32(&bytes, offset, &name, "length prefix")?;
                if len > MAX_PAYLOAD {
                    // Fail closed *before* attempting the allocation, in any
                    // segment including the final one: truncating here would
                    // silently discard whatever valid-looking bytes follow
                    // the garbage header.
                    return Err(WalError::Corrupt {
                        segment: name,
                        offset: offset as u64,
                        detail: format!(
                            "length prefix {len} exceeds the {MAX_PAYLOAD}-byte record cap"
                        ),
                    });
                }
                (len as usize) > remaining - RECORD_HEADER
            };
            if torn {
                if pos != last {
                    return Err(WalError::Corrupt {
                        segment: name,
                        offset: offset as u64,
                        detail: format!("incomplete record in a non-final segment ({remaining} trailing bytes)"),
                    });
                }
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(offset as u64)?;
                file.sync_data()?;
                out.truncated_tails += 1;
                break;
            }
            let len = read_header_u32(&bytes, offset, &name, "length prefix")? as usize;
            let stored_crc = read_header_u32(&bytes, offset + 4, &name, "crc field")?;
            let payload = &bytes[offset + RECORD_HEADER..offset + RECORD_HEADER + len];
            let actual_crc = crc32(payload);
            if actual_crc != stored_crc {
                // The record is bytewise complete: a crash cannot have
                // produced this, so it is corruption — fail closed.
                return Err(WalError::Corrupt {
                    segment: name,
                    offset: offset as u64,
                    detail: format!("crc mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"),
                });
            }
            let text = std::str::from_utf8(payload).map_err(|e| WalError::Corrupt {
                segment: name.clone(),
                offset: offset as u64,
                detail: format!("payload is not utf-8: {e}"),
            })?;
            let rec: WalRecord = serde_json::from_str(text).map_err(|e| WalError::Corrupt {
                segment: name.clone(),
                offset: offset as u64,
                detail: format!("payload is not a WalRecord: {e}"),
            })?;
            out.records.push(rec);
            offset += RECORD_HEADER + len;
            out.bytes += (RECORD_HEADER + len) as u64;
        }
    }
    Ok(out)
}

/// Deletes every segment with index strictly below `below` — the
/// compactor's cleanup once a fold has committed. Deleting whole applied
/// segments (never rewriting live ones) keeps truncation crash-safe: a
/// crash mid-cleanup just leaves already-applied segments whose records
/// the manifest's folded set dedups on replay.
pub fn remove_segments_below(dir: &Path, below: u64) -> io::Result<u64> {
    let mut removed = 0;
    for (idx, path) in list_segments(dir)? {
        if idx < below {
            fs::remove_file(path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// One inclusive range of accepted sequence ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeqRange {
    /// First id in the range.
    pub start: u64,
    /// Last id in the range (inclusive).
    pub end: u64,
}

/// A set of `u64` sequence ids stored as sorted, disjoint, inclusive
/// ranges — the accepted-set stays O(number of gaps) no matter how many
/// reviews stream in, and serialises compactly into the manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeqSet {
    ranges: Vec<SeqRange>,
}

impl SeqSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `seq` is present.
    pub fn contains(&self, seq: u64) -> bool {
        self.ranges
            .binary_search_by(|r| {
                if seq < r.start {
                    std::cmp::Ordering::Greater
                } else if seq > r.end {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Inserts `seq`; returns `false` if it was already present (the
    /// duplicate-delivery signal).
    pub fn insert(&mut self, seq: u64) -> bool {
        if self.contains(seq) {
            return false;
        }
        let pos = self.ranges.partition_point(|r| r.start < seq);
        self.ranges.insert(pos, SeqRange { start: seq, end: seq });
        // Merge with the neighbour on either side where adjacent.
        if pos + 1 < self.ranges.len() && self.ranges[pos].end + 1 == self.ranges[pos + 1].start {
            self.ranges[pos].end = self.ranges[pos + 1].end;
            self.ranges.remove(pos + 1);
        }
        if pos > 0 && self.ranges[pos - 1].end + 1 == self.ranges[pos].start {
            self.ranges[pos - 1].end = self.ranges[pos].end;
            self.ranges.remove(pos);
        }
        true
    }

    /// Number of ids in the set.
    pub fn len(&self) -> u64 {
        self.ranges.iter().map(|r| r.end - r.start + 1).sum()
    }

    /// Whether no id is present.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rrre-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn rec(seq: u64) -> WalRecord {
        WalRecord { seq, user: 1, item: 2, rating: 4.0, ts: 100 + seq as i64, text: format!("review {seq}") }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_replay_roundtrip_across_rotation() {
        let dir = tmp("roundtrip");
        let mut w = WalWriter::open(&dir, 64, FsyncPolicy::EveryRecord).unwrap();
        for seq in 0..10 {
            w.append(&rec(seq)).unwrap();
        }
        assert!(w.current_segment() > 0, "64-byte segments must have rotated");
        let r = replay_and_repair(&dir).unwrap();
        assert_eq!(r.records.len(), 10);
        assert_eq!(r.truncated_tails, 0);
        assert_eq!(r.records.iter().map(|r| r.seq).collect::<Vec<_>>(), (0..10).collect::<Vec<_>>());
        assert_eq!(r.records[3], rec(3));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_writer_appends_after_existing_records() {
        let dir = tmp("reopen");
        let mut w = WalWriter::open(&dir, 1 << 20, FsyncPolicy::EveryRecord).unwrap();
        w.append(&rec(0)).unwrap();
        drop(w);
        let mut w = WalWriter::open(&dir, 1 << 20, FsyncPolicy::EveryRecord).unwrap();
        w.append(&rec(1)).unwrap();
        let r = replay_and_repair(&dir).unwrap();
        assert_eq!(r.records.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![0, 1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let dir = tmp("torn");
        let mut w = WalWriter::open(&dir, 1 << 20, FsyncPolicy::EveryRecord).unwrap();
        for seq in 0..3 {
            w.append(&rec(seq)).unwrap();
        }
        drop(w);
        let seg = dir.join(segment_name(0));
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - 5).unwrap();
        let r = replay_and_repair(&dir).unwrap();
        assert_eq!(r.records.len(), 2, "torn final record dropped");
        assert_eq!(r.truncated_tails, 1);
        // The repair is durable: a second replay is clean, and appends land
        // after the truncation point.
        let r2 = replay_and_repair(&dir).unwrap();
        assert_eq!(r2.truncated_tails, 0);
        let mut w = WalWriter::open(&dir, 1 << 20, FsyncPolicy::EveryRecord).unwrap();
        w.append(&rec(9)).unwrap();
        let r3 = replay_and_repair(&dir).unwrap();
        assert_eq!(r3.records.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![0, 1, 9]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn complete_record_with_bad_crc_fails_closed() {
        let dir = tmp("flip");
        let mut w = WalWriter::open(&dir, 1 << 20, FsyncPolicy::EveryRecord).unwrap();
        for seq in 0..3 {
            w.append(&rec(seq)).unwrap();
        }
        drop(w);
        // Flip one payload byte of the *middle* record.
        let seg = dir.join(segment_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let mid_payload = RECORD_HEADER + first_len + RECORD_HEADER + 2;
        bytes[mid_payload] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();
        match replay_and_repair(&dir) {
            Err(WalError::Corrupt { offset, detail, .. }) => {
                assert_eq!(offset as usize, RECORD_HEADER + first_len);
                assert!(detail.contains("crc mismatch"), "{detail}");
            }
            other => panic!("expected fail-closed corruption, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_length_prefix_fails_closed_even_in_the_final_segment() {
        let dir = tmp("hugelen");
        let mut w = WalWriter::open(&dir, 1 << 20, FsyncPolicy::EveryRecord).unwrap();
        w.append(&rec(0)).unwrap();
        drop(w);
        // A bytewise-complete header whose length prefix exceeds the record
        // cap: framing garbage, not a torn write. Replay must refuse before
        // attempting the (up to 4 GiB) allocation — and must NOT repair it
        // away as a torn tail, even though this is the final segment.
        let seg = dir.join(segment_name(0));
        let good_len = fs::metadata(&seg).unwrap().len();
        let mut garbage = (MAX_PAYLOAD + 1).to_le_bytes().to_vec();
        garbage.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&garbage).unwrap();
        drop(f);
        match replay_and_repair(&dir) {
            Err(WalError::Corrupt { offset, detail, .. }) => {
                assert_eq!(offset, good_len);
                assert!(detail.contains("record cap"), "{detail}");
            }
            other => panic!("expected fail-closed corruption, got {other:?}"),
        }
        // Fail closed means no repair happened: the segment is untouched.
        assert_eq!(fs::metadata(&seg).unwrap().len(), good_len + 8);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_trailing_header_is_still_a_torn_tail() {
        let dir = tmp("shorthdr");
        let mut w = WalWriter::open(&dir, 1 << 20, FsyncPolicy::EveryRecord).unwrap();
        w.append(&rec(0)).unwrap();
        drop(w);
        // Fewer than RECORD_HEADER trailing bytes is exactly what a crash
        // mid-header-write leaves behind: repaired, not refused.
        let seg = dir.join(segment_name(0));
        let good_len = fs::metadata(&seg).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0x01, 0x02, 0x03]).unwrap();
        drop(f);
        let r = replay_and_repair(&dir).unwrap();
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.truncated_tails, 1);
        assert_eq!(fs::metadata(&seg).unwrap().len(), good_len);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incomplete_record_in_non_final_segment_fails_closed() {
        let dir = tmp("midseg");
        let mut w = WalWriter::open(&dir, 1 << 20, FsyncPolicy::EveryRecord).unwrap();
        w.append(&rec(0)).unwrap();
        w.rotate().unwrap();
        w.append(&rec(1)).unwrap();
        drop(w);
        let seg0 = dir.join(segment_name(0));
        let len = fs::metadata(&seg0).unwrap().len();
        OpenOptions::new().write(true).open(&seg0).unwrap().set_len(len - 3).unwrap();
        assert!(matches!(replay_and_repair(&dir), Err(WalError::Corrupt { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batched_fsync_still_replays_whats_written() {
        let dir = tmp("batched");
        let mut w = WalWriter::open(&dir, 1 << 20, FsyncPolicy::Batched { every: 4 }).unwrap();
        for seq in 0..6 {
            w.append(&rec(seq)).unwrap();
        }
        w.sync().unwrap();
        let r = replay_and_repair(&dir).unwrap();
        assert_eq!(r.records.len(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_segments_below_keeps_the_watermark() {
        let dir = tmp("trunc");
        let mut w = WalWriter::open(&dir, 1 << 20, FsyncPolicy::EveryRecord).unwrap();
        w.append(&rec(0)).unwrap();
        w.rotate().unwrap();
        w.append(&rec(1)).unwrap();
        w.rotate().unwrap();
        w.append(&rec(2)).unwrap();
        drop(w);
        assert_eq!(remove_segments_below(&dir, 2).unwrap(), 2);
        let r = replay_and_repair(&dir).unwrap();
        assert_eq!(r.records.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seqset_insert_dedup_merge_and_serde() {
        let mut s = SeqSet::new();
        assert!(s.insert(5));
        assert!(s.insert(3));
        assert!(s.insert(4), "fills the gap");
        assert!(!s.insert(4), "duplicate detected");
        assert!(s.insert(1));
        assert_eq!(s.len(), 4);
        assert!(s.contains(3) && s.contains(5) && !s.contains(2) && !s.contains(6));
        // 3..=5 merged into one range, 1 separate.
        assert_eq!(s.ranges, vec![SeqRange { start: 1, end: 1 }, SeqRange { start: 3, end: 5 }]);
        let json = serde_json::to_string(&s).unwrap();
        let back: SeqSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert!(s.insert(2), "joins both neighbours");
        assert_eq!(s.ranges, vec![SeqRange { start: 1, end: 5 }]);
    }
}
