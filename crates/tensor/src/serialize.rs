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
//! [`replace_durably`], and [`sync_dir`]: training checkpoints and the
//! serving write path's ledger and epoch file all commit through them.

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
        let dir = std::env::temp_dir().join("rrre-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.rrrp");
        p.save(&path).unwrap();
        let q = Params::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(q.get(crate::ParamId(2)).approx_eq(p.get(crate::ParamId(2)), 0.0));
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
