//! Fault injection for serve robustness tests.
//!
//! Helpers that deliberately damage artifacts on disk or misbehave on the
//! wire so tests can assert the serve stack degrades with *structured*
//! errors instead of panics or silent connection drops.

use rrre_serve::artifact::{ArtifactManifest, MANIFEST_FILE};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Truncates a file to `len` bytes (must be shorter than the file).
pub fn truncate_file(path: impl AsRef<Path>, len: u64) -> std::io::Result<()> {
    let path = path.as_ref();
    let meta = std::fs::metadata(path)?;
    assert!(len < meta.len(), "truncate_file: {len} does not shorten {} ({} bytes)", path.display(), meta.len());
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(len)
}

/// Flips every bit of the byte at `offset` (XOR `0xFF`), rewriting the file
/// in place. Returns the original byte so tests can assert it changed.
pub fn flip_byte(path: impl AsRef<Path>, offset: usize) -> std::io::Result<u8> {
    let path = path.as_ref();
    let mut bytes = std::fs::read(path)?;
    assert!(offset < bytes.len(), "flip_byte: offset {offset} past end of {} ({} bytes)", path.display(), bytes.len());
    let original = bytes[offset];
    bytes[offset] ^= 0xFF;
    std::fs::write(path, bytes)?;
    Ok(original)
}

/// The path of the payload with this stem (`"model"`, `"reviews"`,
/// `"dataset"` or `"vectors"`) that the manifest of the artifact at `dir`
/// lists. Panics if the manifest cannot be read or lists no such payload.
pub fn artifact_payload(dir: impl AsRef<Path>, stem: &str) -> PathBuf {
    let dir = dir.as_ref();
    let manifest = ArtifactManifest::read(dir).expect("artifact_payload: unreadable manifest");
    let entry = manifest.payload(stem).unwrap_or_else(|| panic!("artifact_payload: no {stem} payload listed"));
    dir.join(&entry.file)
}

/// Records the current digest of the payload with this stem in the
/// manifest of the artifact at `dir` — the edit of someone who can write
/// both files, or an honest re-export of different content — so a test
/// reaches the validation that sits behind the checksum layer.
pub fn rehash_artifact_file(dir: impl AsRef<Path>, stem: &str) -> std::io::Result<()> {
    let dir = dir.as_ref();
    let mut manifest = ArtifactManifest::read(dir)?;
    let entry = manifest
        .checksums
        .iter_mut()
        .find(|c| rrre_tensor::serialize::stem(&c.file) == stem)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, format!("manifest lists no {stem} payload")))?;
    entry.fnv1a = rrre_tensor::serialize::digest(&std::fs::read(dir.join(&entry.file))?);
    let json = serde_json::to_string_pretty(&manifest).map_err(std::io::Error::other)?;
    std::fs::write(dir.join(MANIFEST_FILE), json)
}

/// Rewrites an RRRP file with the last row of every tensor dropped: a
/// payload that still parses, under the same tensor names, but has the
/// wrong shape.
pub fn drop_last_row(path: impl AsRef<Path>) -> std::io::Result<()> {
    use rrre_tensor::{Params, Tensor};
    let path = path.as_ref();
    let full = Params::load(path)?;
    let mut short = Params::new();
    for (_, name, t) in full.iter() {
        let (rows, cols) = t.shape();
        short.register(name, Tensor::from_vec(rows - 1, cols, t.as_slice()[..(rows - 1) * cols].to_vec()));
    }
    short.save(path)
}

/// Shaves the last `bytes` bytes off a file — the shape of a torn write: a
/// record whose tail never reached the disk before the crash. Returns the
/// new length. Panics if the file is not strictly longer than `bytes`
/// (shaving a whole file is a missing file, a different fault).
pub fn shave_tail(path: impl AsRef<Path>, bytes: u64) -> std::io::Result<u64> {
    let path = path.as_ref();
    let len = std::fs::metadata(path)?.len();
    assert!(len > bytes, "shave_tail: {} is only {len} bytes, cannot shave {bytes}", path.display());
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    let new_len = len - bytes;
    file.set_len(new_len)?;
    Ok(new_len)
}

/// The WAL segment files under `wal_dir` (`seg-*.log`), sorted by segment
/// index — `last()` is the active tail segment, the torn-write target.
pub fn wal_segments(wal_dir: impl AsRef<Path>) -> std::io::Result<Vec<PathBuf>> {
    let mut segments: Vec<_> = std::fs::read_dir(wal_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    Ok(segments)
}

/// A syntactically valid NDJSON request line padded with spaces to exceed
/// `limit` bytes — for testing the server's line-length bound.
pub fn oversized_line(limit: usize) -> String {
    let body = r#"{"op": "stats"#;
    let tail = r#""}"#;
    let pad = limit.saturating_sub(body.len() + tail.len()) + 2;
    format!("{body}{}{tail}", " ".repeat(pad))
}

/// Connects, writes only the first `bytes` bytes of `line` (no trailing
/// newline) and immediately shuts the write half — a mid-stream disconnect
/// with a partial request on the wire. Returns whatever the server sends
/// back before closing (possibly empty).
pub fn send_partial_line(addr: SocketAddr, line: &str, bytes: usize) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let cut = bytes.min(line.len());
    stream.write_all(&line.as_bytes()[..cut])?;
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut reply = String::new();
    stream.read_to_string(&mut reply)?;
    Ok(reply)
}

/// Sends one complete request line and reads one NDJSON response line.
/// The connection is dropped on return (another mid-stream disconnect from
/// the server's point of view if it expected more requests).
pub fn roundtrip_line(addr: SocketAddr, line: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::TempDir;

    #[test]
    fn truncate_and_flip_damage_files() {
        let dir = TempDir::new("fault-files");
        let path = dir.file("blob.bin");
        std::fs::write(&path, [1u8, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let original = flip_byte(&path, 3).unwrap();
        assert_eq!(original, 4);
        assert_eq!(std::fs::read(&path).unwrap()[3], 4 ^ 0xFF);
        truncate_file(&path, 2).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), vec![1, 2]);
    }

    #[test]
    fn shave_tail_and_segment_listing_cover_the_wal_shapes() {
        let dir = TempDir::new("fault-wal");
        std::fs::write(dir.file("seg-00000002.log"), [0u8; 16]).unwrap();
        std::fs::write(dir.file("seg-00000000.log"), [0u8; 16]).unwrap();
        std::fs::write(dir.file("manifest.json"), b"{}").unwrap();
        let segs = wal_segments(dir.path()).unwrap();
        assert_eq!(segs.len(), 2, "only seg-*.log files are segments");
        assert!(segs[1].ends_with("seg-00000002.log"), "sorted by index, tail last");
        let new_len = shave_tail(&segs[1], 5).unwrap();
        assert_eq!(new_len, 11);
        assert_eq!(std::fs::metadata(&segs[1]).unwrap().len(), 11);
    }

    #[test]
    fn oversized_line_exceeds_limit_and_stays_one_line() {
        let line = oversized_line(256);
        assert!(line.len() > 256);
        assert!(!line.contains('\n'));
    }
}
