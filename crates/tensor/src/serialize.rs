//! Checkpointing: binary (de)serialisation of a [`Params`] store.
//!
//! Format (all little-endian):
//!
//! ```text
//! magic  b"RRRP"            4 bytes
//! version u32               currently 1
//! count   u32               number of parameters
//! per parameter:
//!   name_len u32, name bytes (UTF-8)
//!   rows u32, cols u32
//!   rows*cols f32 values
//! ```
//!
//! Gradients are not persisted — a checkpoint restores weights, not
//! optimiser state.
//!
//! The module also holds the workspace's one durable file replace,
//! [`replace_durably`], and the one commit rule built on it, [`commit`]:
//! every multi-file format on disk (a serving artifact, a training
//! checkpoint) is a manifest listing payload files by name and
//! [`digest`], and commits by replacing that manifest. The replication
//! epoch file is a one-file format and replaces itself.

use crate::{Params, Tensor};
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Replaces `dir/name` with `bytes` so that a crash at any point leaves
/// either the old contents or the new: write a sibling `.tmp`, fsync it,
/// rename it over `name`, then fsync `dir`. Two concurrent calls for one
/// file share the tmp, so callers serialise them.
pub fn replace_durably(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    fs::rename(&tmp, dir.join(name))?;
    sync_dir(dir)
}

/// Fsyncs a directory. A create, rename or delete lives in the directory,
/// not the file: without this a power loss may roll the entry back.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// FNV-1a 64 of `bytes` as the lowercase hex string a manifest records for
/// each payload. It catches damage, not forgery: collisions can be built on
/// purpose, so payload names never derive from it.
pub fn digest(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The stem of a payload file name: everything before its first `.`
/// (`model` for `model.3.rrrp`).
pub fn stem(file: &str) -> &str {
    file.split('.').next().unwrap_or(file)
}

/// Commits one generation of a multi-file format in `dir` (created if
/// absent). Each `(file, bytes)` payload is written and fsynced under its
/// own name, which must be one the committed manifest does not list, so a
/// crash before the commit leaves only orphans. The directory is fsynced,
/// then `manifest_file` is replaced durably with what `manifest` makes of
/// the payloads' `(file, digest)` pairs: that replace is the commit. Last,
/// every other file in `dir` with a payload's stem is deleted — the
/// previous generation, a crashed commit's orphans and their `.tmp`s. That
/// cleanup is best effort: a leftover is ignored by every load and deleted
/// by the next commit. It touches nothing else in `dir`.
pub fn commit(
    dir: &Path,
    manifest_file: &str,
    payloads: &[(String, Vec<u8>)],
    manifest: impl FnOnce(Vec<(String, String)>) -> io::Result<Vec<u8>>,
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut listed = Vec::with_capacity(payloads.len());
    for (file, bytes) in payloads {
        let mut f = File::create(dir.join(file))?;
        f.write_all(bytes)?;
        f.sync_data()?;
        listed.push((file.clone(), digest(bytes)));
    }
    sync_dir(dir)?;
    let names: Vec<String> = listed.iter().map(|(file, _)| file.clone()).collect();
    replace_durably(dir, manifest_file, &manifest(listed)?)?;
    for entry in fs::read_dir(dir)?.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let ours = names.iter().any(|file| stem(file) == stem(&name));
        if ours && !names.contains(&name) && entry.file_type().is_ok_and(|t| t.is_file()) {
            let _ = fs::remove_file(entry.path());
        }
    }
    Ok(())
}

/// Reads `dir/file` once and checks it against the `fnv1a` digest its
/// manifest recorded. Callers parse from the returned buffer, so the bytes
/// that were verified are the bytes that are used.
pub fn read_verified(dir: &Path, file: &str, fnv1a: &str) -> io::Result<Vec<u8>> {
    let bytes = fs::read(dir.join(file))?;
    let actual = digest(&bytes);
    if actual != fnv1a {
        return Err(invalid(format!(
            "{file} checksum mismatch: manifest says {fnv1a}, file hashes to {actual} \
             (truncated or corrupted)"
        )));
    }
    Ok(bytes)
}

const MAGIC: &[u8; 4] = b"RRRP";
const VERSION: u32 = 1;

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Params {
    /// Writes all parameter values to `w` in checkpoint format.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        write_u32(w, VERSION)?;
        write_u32(w, self.len() as u32)?;
        for (_, name, value) in self.iter() {
            write_u32(w, name.len() as u32)?;
            w.write_all(name.as_bytes())?;
            let (rows, cols) = value.shape();
            write_u32(w, rows as u32)?;
            write_u32(w, cols as u32)?;
            for &x in value.as_slice() {
                w.write_all(&x.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Reads a checkpoint into a fresh store (zeroed gradients).
    pub fn read_from(r: &mut impl Read) -> io::Result<Params> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(invalid("not an RRRP checkpoint"));
        }
        let version = read_u32(r)?;
        if version != VERSION {
            return Err(invalid(format!("unsupported checkpoint version {version}")));
        }
        let count = read_u32(r)? as usize;
        let mut params = Params::new();
        for _ in 0..count {
            let name_len = read_u32(r)? as usize;
            if name_len > 1 << 20 {
                return Err(invalid("implausible parameter name length"));
            }
            let mut name = vec![0u8; name_len];
            r.read_exact(&mut name)?;
            let name = String::from_utf8(name).map_err(|e| invalid(e.to_string()))?;
            let rows = read_u32(r)? as usize;
            let cols = read_u32(r)? as usize;
            if rows.saturating_mul(cols) > 1 << 28 {
                return Err(invalid("implausible tensor size"));
            }
            let mut data = vec![0.0f32; rows * cols];
            let mut buf = [0u8; 4];
            for x in &mut data {
                r.read_exact(&mut buf)?;
                *x = f32::from_le_bytes(buf);
            }
            params.register(name, Tensor::from_vec(rows, cols, data));
        }
        Ok(params)
    }

    /// Saves a checkpoint file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        self.write_to(&mut w)
    }

    /// Loads a checkpoint file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Params> {
        let mut r = BufReader::new(File::open(path)?);
        Self::read_from(&mut r)
    }

    /// Copies the values of `other` into this store. The parameter count,
    /// registration order, names and shapes must all match — the intended
    /// flow is: rebuild the model with the same config (same registrations),
    /// then restore its weights.
    pub fn restore_values(&mut self, other: &Params) -> Result<(), String> {
        if self.len() != other.len() {
            return Err(format!("parameter count mismatch: {} vs {}", self.len(), other.len()));
        }
        for (id, other_id) in self.ids().zip(other.ids()).collect::<Vec<_>>() {
            let (name, other_name) = (self.name(id).to_string(), other.name(other_id));
            if name != other_name {
                return Err(format!("parameter name mismatch: {name} vs {other_name}"));
            }
            if self.get(id).shape() != other.get(other_id).shape() {
                return Err(format!(
                    "shape mismatch for {name}: {:?} vs {:?}",
                    self.get(id).shape(),
                    other.get(other_id).shape()
                ));
            }
            *self.get_mut(id) = other.get(other_id).clone();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::{rngs::StdRng, SeedableRng};

    fn sample_params() -> Params {
        let mut rng = StdRng::seed_from_u64(77);
        let mut p = Params::new();
        p.register("layer.w", init::normal(&mut rng, 3, 4, 0.0, 1.0));
        p.register("layer.b", init::normal(&mut rng, 1, 4, 0.0, 1.0));
        p.register("emb.table", init::normal(&mut rng, 10, 2, 0.0, 0.1));
        p
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let p = sample_params();
        let mut buf = Vec::new();
        p.write_to(&mut buf).unwrap();
        let q = Params::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(q.len(), p.len());
        for (id, name, value) in p.iter() {
            assert_eq!(q.name(id), name);
            assert!(q.get(id).approx_eq(value, 0.0));
        }
    }

    #[test]
    fn file_roundtrip() {
        let p = sample_params();
        let dir = std::env::temp_dir().join(format!("rrre-params-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.rrrp");
        p.save(&path).unwrap();
        let q = Params::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(q.get(crate::ParamId(2)).approx_eq(p.get(crate::ParamId(2)), 0.0));
    }

    #[test]
    fn digest_is_fnv1a_64() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }

    /// The commit's cleanup deletes the previous generation, a crashed
    /// commit's orphans and stale `.tmp`s of the committed stems — and
    /// never a subdirectory, a file of another stem, or a listed name.
    #[test]
    fn commit_cleanup_touches_only_unlisted_files_of_its_stems() {
        let dir = std::env::temp_dir().join(format!("rrre-commit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let json = |listed: Vec<(String, String)>| {
            Ok(listed.iter().map(|(file, fnv1a)| format!("{file}={fnv1a}\n")).collect::<String>().into_bytes())
        };
        let payloads = |n: u32| vec![(format!("model.{n}.rrrp"), vec![n as u8; 8]), (format!("data.{n}.json"), b"{}".to_vec())];
        commit(&dir, "manifest.json", &payloads(1), json).unwrap();
        fs::create_dir_all(dir.join("wal")).unwrap();
        fs::write(dir.join("wal").join("model.0.rrrp"), b"not a payload").unwrap();
        for (name, bytes) in [
            ("repl_epoch", &b"3"[..]),
            ("repl_epoch.tmp", b"4"),
            ("model.2.rrrp", b"torn orphan of a crashed commit"),
            ("model.9.rrrp.tmp", b"stale"),
            ("manifest.json.tmp", b"stale"),
        ] {
            fs::write(dir.join(name), bytes).unwrap();
        }

        commit(&dir, "manifest.json", &payloads(2), json).unwrap();
        let mut left: Vec<String> =
            fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name().to_string_lossy().into_owned()).collect();
        left.sort();
        assert_eq!(left, ["data.2.json", "manifest.json", "model.2.rrrp", "repl_epoch", "repl_epoch.tmp", "wal"]);
        assert_eq!(fs::read(dir.join("model.2.rrrp")).unwrap(), vec![2u8; 8], "the orphan was rewritten whole");
        assert!(dir.join("wal").join("model.0.rrrp").exists(), "subdirectories are never entered");
        let manifest = fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert_eq!(manifest, format!("model.2.rrrp={}\ndata.2.json={}\n", digest(&[2; 8]), digest(b"{}")));
        for (file, fnv1a) in manifest.lines().map(|l| l.split_once('=').unwrap()) {
            read_verified(&dir, file, fnv1a).unwrap();
        }
        let err = read_verified(&dir, "model.2.rrrp", &digest(b"other")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = b"NOPE".to_vec();
        buf.extend_from_slice(&[0; 16]);
        assert!(Params::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_truncated_stream() {
        let p = sample_params();
        let mut buf = Vec::new();
        p.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(Params::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn restore_values_checks_structure() {
        let p = sample_params();
        let mut q = sample_params();
        q.restore_values(&p).unwrap();

        let mut wrong = Params::new();
        wrong.register("layer.w", Tensor::zeros(3, 4));
        assert!(q.restore_values(&wrong).is_err());

        let mut wrong_shape = sample_params();
        // Rebuild with a different shape for the last param.
        let mut r = Params::new();
        r.register("layer.w", Tensor::zeros(3, 4));
        r.register("layer.b", Tensor::zeros(1, 4));
        r.register("emb.table", Tensor::zeros(9, 2));
        assert!(wrong_shape.restore_values(&r).is_err());
    }
}
