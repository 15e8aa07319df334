//! Crash-safe training: periodic atomic checkpoints, bit-identical resume
//! and a NaN/Inf divergence guard.
//!
//! A checkpoint directory holds one checkpoint:
//!
//! ```text
//! <dir>/latest.json      the checkpoint manifest: completed epochs, Adam step
//!                        count, RNG state, epoch order, and each payload's
//!                        name and FNV-1a digest
//! <dir>/model.<E>.rrrp   model weights after E completed epochs (RRRP)
//! <dir>/adam.<E>.rrrp    Adam first/second moments (RRRP)
//! ```
//!
//! Atomicity: a checkpoint commits the way a serving artifact does
//! ([`rrre_tensor::serialize::commit`]). Both payloads are written and
//! fsynced under the new epoch's names, `latest.json` is replaced durably —
//! the commit — and the previous epoch's payloads are deleted. A crash at
//! any instant — a power loss included — leaves the previous checkpoint or
//! the new one, whole, so [`Rrre::resume`] always has a valid state to
//! continue from. Resume and the divergence rollback verify a payload's
//! digest before parsing it. A fresh run first drops any earlier run's
//! `latest.json`, so no payload it writes has a name a committed manifest
//! lists.
//!
//! Bit-identical resume: the training loop's mutable state is exactly
//! (params, Adam `t`/`m`/`v`, the RNG, the epoch shuffle `order` — which is
//! permuted *in place* each epoch and therefore cannot be regenerated).
//! All four are persisted; [`Rrre::resume`] replays
//! `Rrre::training_setup` (same seed ⇒ same architecture + label mask),
//! overwrites that state from the checkpoint, and continues the epoch loop
//! on the identical trajectory — the golden-trace harness is the witness.

use crate::config::RrreConfig;
use crate::model::{EpochStats, Rrre};
use rand::rngs::StdRng;
use rrre_data::{Dataset, EncodedCorpus};
use rrre_tensor::serialize::{self, read_verified, sync_dir};
use rrre_tensor::{optim::Adam, Params, Tensor};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// Checkpoint manifest layout version. Version 2 is the manifest that
/// names and digests its payloads.
const VERSION: u32 = 2;

/// The checkpoint manifest's file name; replacing it commits a checkpoint.
const MANIFEST_FILE: &str = "latest.json";

/// Periodic-checkpointing knobs for [`Rrre::fit_checkpointed`].
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory the checkpoint lives in (created if absent).
    pub dir: PathBuf,
    /// Checkpoint after every `every` completed epochs (and after the
    /// last).
    pub every: usize,
}

impl CheckpointConfig {
    /// Checkpoint every epoch into `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), every: 1 }
    }
}

/// What a checkpointed (or resumed) training run produced.
pub struct FitOutcome {
    /// The trained model — rolled back to the last good checkpoint if the
    /// run diverged.
    pub model: Rrre,
    /// Epochs whose updates the returned model reflects.
    pub completed_epochs: usize,
    /// The zero-based epoch whose update produced a non-finite loss or
    /// parameter, if any; the model was rolled back when this is set.
    pub diverged_at: Option<usize>,
    /// The completed-epoch count this run resumed from, for resumed runs.
    pub resumed_from: Option<usize>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct CkptManifest {
    version: u32,
    /// Completed epochs at capture time.
    epoch: usize,
    /// Adam step counter.
    adam_t: u64,
    /// Raw xoshiro256++ words, each split into (low, high) 32-bit halves —
    /// always 8 entries. JSON numbers ride through f64, which is exact only
    /// up to 2⁵³; full-range u64 words would silently lose low bits and
    /// resume onto a different shuffle trajectory.
    rng_state: Vec<u64>,
    /// The in-place-shuffled epoch order — training state that cannot be
    /// regenerated without replaying every prior epoch's permutation.
    order: Vec<usize>,
    /// `model.<epoch>.rrrp` and `adam.<epoch>.rrrp`, each with its digest.
    payloads: Vec<Payload>,
}

/// One payload file and its FNV-1a 64 digest (lowercase hex).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Payload {
    file: String,
    fnv1a: String,
}

impl CkptManifest {
    /// Reads the committed manifest in `dir`.
    fn read(dir: &Path) -> io::Result<Self> {
        let json = std::fs::read_to_string(dir.join(MANIFEST_FILE)).map_err(|e| {
            io::Error::new(e.kind(), format!("no resumable checkpoint in {}: {e}", dir.display()))
        })?;
        let manifest: CkptManifest =
            serde_json::from_str(&json).map_err(|e| invalid(format!("bad {MANIFEST_FILE}: {e}")))?;
        if manifest.version != VERSION {
            return Err(invalid(format!(
                "unsupported checkpoint version {} (this build reads {VERSION})",
                manifest.version
            )));
        }
        Ok(manifest)
    }

    /// Reads the payload with this stem, verifies its digest and parses it.
    fn read_payload(&self, dir: &Path, stem: &str) -> io::Result<Params> {
        let entry = self
            .payloads
            .iter()
            .find(|p| serialize::stem(&p.file) == stem)
            .ok_or_else(|| invalid(format!("{MANIFEST_FILE} lists no {stem} payload")))?;
        Params::read_from(&mut &read_verified(dir, &entry.file, &entry.fnv1a)?[..])
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Rrre {
    /// [`Rrre::fit_with_hook`] with periodic atomic checkpoints and a
    /// divergence guard. The per-epoch statistics and the final weights are
    /// bit-identical to an uncheckpointed run; checkpoint writes consume no
    /// randomness.
    ///
    /// After any epoch whose mean loss is non-finite or that left a NaN/Inf
    /// in the parameters, the model is rolled back to the last complete
    /// checkpoint and the run stops with [`FitOutcome::diverged_at`] set
    /// (an error if the run diverged before the first checkpoint).
    pub fn fit_checkpointed(
        ds: &Dataset,
        corpus: &EncodedCorpus,
        train: &[usize],
        cfg: RrreConfig,
        ckpt: &CheckpointConfig,
        hook: impl FnMut(EpochStats, &Rrre),
    ) -> io::Result<FitOutcome> {
        run_checkpointed(ds, corpus, train, cfg, ckpt, None, hook)
    }

    /// Continues a [`Rrre::fit_checkpointed`] run from the checkpoint
    /// `ckpt.dir` commits, up to `cfg.epochs` total epochs. `ds`,
    /// `corpus`, `train` and the architectural parts of `cfg` must match
    /// the original run (shape mismatches fail with `InvalidData`).
    pub fn resume(
        ds: &Dataset,
        corpus: &EncodedCorpus,
        train: &[usize],
        cfg: RrreConfig,
        ckpt: &CheckpointConfig,
        hook: impl FnMut(EpochStats, &Rrre),
    ) -> io::Result<FitOutcome> {
        let latest = CkptManifest::read(&ckpt.dir)?;
        run_checkpointed(ds, corpus, train, cfg, ckpt, Some(latest), hook)
    }
}

fn run_checkpointed(
    ds: &Dataset,
    corpus: &EncodedCorpus,
    train: &[usize],
    cfg: RrreConfig,
    ckpt: &CheckpointConfig,
    resume_from: Option<CkptManifest>,
    mut hook: impl FnMut(EpochStats, &Rrre),
) -> io::Result<FitOutcome> {
    assert!(ckpt.every >= 1, "CheckpointConfig: `every` must be ≥ 1");
    std::fs::create_dir_all(&ckpt.dir)?;

    let (mut model, mut rng, labeled) = Rrre::training_setup(ds, corpus, train, cfg);
    let mut opt = Adam::new(cfg.lr);
    let mut order: Vec<usize> = (0..train.len()).collect();

    let resume_from = match resume_from {
        Some(latest) => {
            if latest.epoch > cfg.epochs {
                return Err(invalid(format!(
                    "checkpoint has {} completed epochs but the run targets only {}",
                    latest.epoch, cfg.epochs
                )));
            }
            restore_state(&ckpt.dir, &latest, corpus, &mut model, &mut opt, &mut rng, &mut order)?;
            Some(latest.epoch)
        }
        // A fresh run supersedes an earlier run's checkpoint: drop its
        // manifest before this run writes payloads that could share its
        // names.
        None => match std::fs::remove_file(ckpt.dir.join(MANIFEST_FILE)) {
            Ok(()) => sync_dir(&ckpt.dir).map(|()| None)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        },
    };

    let start_epoch = resume_from.unwrap_or(0);
    let mut last_good = resume_from;
    // Thread count is *not* checkpoint state: training is bit-identical at
    // every `threads`, so a run may legally resume with a different count.
    for epoch in start_epoch..cfg.epochs {
        let stats =
            model.train_epoch(ds, corpus, train, &labeled, &mut order, &mut rng, &mut opt, epoch);
        if !stats.loss.is_finite() || model.params().has_non_finite() {
            // Divergence guard: do not checkpoint the poisoned state, do
            // not keep training on it — restore the last good weights.
            let Some(good) = last_good else {
                return Err(invalid(format!(
                    "training diverged at epoch {epoch} before any checkpoint existed"
                )));
            };
            let latest = CkptManifest::read(&ckpt.dir)?;
            model.install_weights(&latest.read_payload(&ckpt.dir, "model")?, corpus)?;
            // The diverged epoch's non-finite gradients are still in the
            // store; weights were restored, so clear them too.
            model.params_mut().zero_grads();
            return Ok(FitOutcome {
                model,
                completed_epochs: good,
                diverged_at: Some(epoch),
                resumed_from: resume_from,
            });
        }
        let completed = epoch + 1;
        if completed % ckpt.every == 0 || completed == cfg.epochs {
            write_checkpoint(&ckpt.dir, completed, &model, &opt, &rng, &order)?;
            last_good = Some(completed);
        }
        hook(stats, &model);
    }
    Ok(FitOutcome {
        model,
        completed_epochs: cfg.epochs,
        diverged_at: None,
        resumed_from: resume_from,
    })
}

/// Commits the checkpoint after `epoch` completed epochs: its payloads
/// under that epoch's names, then `latest.json`.
fn write_checkpoint(
    dir: &Path,
    epoch: usize,
    model: &Rrre,
    opt: &Adam,
    rng: &StdRng,
    order: &[usize],
) -> io::Result<()> {
    let (t, m, v) = opt.state();
    let mut adam = Params::new();
    for (i, tensor) in m.iter().enumerate() {
        adam.register(format!("adam.m.{i}"), tensor.clone());
    }
    for (i, tensor) in v.iter().enumerate() {
        adam.register(format!("adam.v.{i}"), tensor.clone());
    }
    let (mut weights, mut moments) = (Vec::new(), Vec::new());
    model.params().write_to(&mut weights)?;
    adam.write_to(&mut moments)?;
    let payloads = [(format!("model.{epoch}.rrrp"), weights), (format!("adam.{epoch}.rrrp"), moments)];
    serialize::commit(dir, MANIFEST_FILE, &payloads, |listed| {
        let manifest = CkptManifest {
            version: VERSION,
            epoch,
            adam_t: t,
            rng_state: rng.state().iter().flat_map(|&w| [w & 0xFFFF_FFFF, w >> 32]).collect(),
            order: order.to_vec(),
            payloads: listed.into_iter().map(|(file, fnv1a)| Payload { file, fnv1a }).collect(),
        };
        serde_json::to_string(&manifest).map(String::into_bytes).map_err(io::Error::other)
    })
}

/// Restores params, Adam moments, RNG and epoch order from the checkpoint
/// `manifest` commits in `dir`, validating every count and shape against
/// the live model.
fn restore_state(
    dir: &Path,
    manifest: &CkptManifest,
    corpus: &EncodedCorpus,
    model: &mut Rrre,
    opt: &mut Adam,
    rng: &mut StdRng,
    order: &mut [usize],
) -> io::Result<()> {
    if manifest.rng_state.len() != 8 {
        return Err(invalid(format!(
            "rng_state has {} half-words, expected 8",
            manifest.rng_state.len()
        )));
    }
    if manifest.rng_state.iter().any(|&h| h > u32::MAX as u64) {
        return Err(invalid("rng_state half-word out of 32-bit range"));
    }
    let mut words = [0u64; 4];
    for (i, pair) in manifest.rng_state.chunks_exact(2).enumerate() {
        words[i] = pair[0] | (pair[1] << 32);
    }
    if words.iter().all(|&w| w == 0) {
        return Err(invalid("rng_state is all zeros"));
    }
    if manifest.order.len() != order.len() {
        return Err(invalid(format!(
            "checkpoint order covers {} training reviews, run has {}",
            manifest.order.len(),
            order.len()
        )));
    }
    if manifest.order.iter().any(|&i| i >= order.len()) {
        return Err(invalid("checkpoint order indexes past the training set"));
    }

    let weights = manifest.read_payload(dir, "model")?;
    let adam = manifest.read_payload(dir, "adam")?;
    model.install_weights(&weights, corpus)?;
    let n = model.params().len();
    if adam.len() != 2 * n {
        return Err(invalid(format!(
            "Adam state has {} tensors, expected {} (2 per parameter)",
            adam.len(),
            2 * n
        )));
    }
    let mut moments: Vec<Tensor> = Vec::with_capacity(2 * n);
    for (i, (id, name, value)) in adam.iter().enumerate() {
        let expect = if i < n { format!("adam.m.{i}") } else { format!("adam.v.{}", i - n) };
        if name != expect {
            return Err(invalid(format!("Adam tensor {} is named `{name}`, expected `{expect}`", id.index())));
        }
        let param_shape = model
            .params()
            .iter()
            .nth(i % n)
            .map(|(_, _, p)| p.shape())
            .unwrap_or((0, 0));
        if value.shape() != param_shape {
            return Err(invalid(format!(
                "Adam moment `{name}` is {:?} but the parameter is {param_shape:?}",
                value.shape()
            )));
        }
        moments.push(value.clone());
    }
    let v = moments.split_off(n);
    opt.restore(manifest.adam_t, moments, v).map_err(invalid)?;

    *rng = StdRng::from_state(words);
    order.copy_from_slice(&manifest.order);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrre_data::synth::{generate, SynthConfig};
    use rrre_data::CorpusConfig;
    use rrre_text::word2vec::Word2VecConfig;

    fn tiny() -> (Dataset, EncodedCorpus) {
        let ds = generate(&SynthConfig::yelp_chi().scaled(0.03));
        let corpus = EncodedCorpus::build(
            &ds,
            &CorpusConfig {
                max_len: 10,
                word2vec: Word2VecConfig { dim: 8, epochs: 1, ..Default::default() },
                ..Default::default()
            },
        );
        (ds, corpus)
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rrre-checkpoint-tests").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn params_bits(model: &Rrre) -> Vec<u32> {
        model
            .params()
            .iter()
            .flat_map(|(_, _, t)| t.as_slice().iter().map(|x| x.to_bits()))
            .collect()
    }

    #[test]
    fn checkpointed_fit_matches_plain_fit_exactly() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..ds.len()).collect();
        let cfg = RrreConfig { epochs: 3, ..RrreConfig::tiny() };

        let mut plain_trace = Vec::new();
        let plain = Rrre::fit_with_hook(&ds, &corpus, &train, cfg, |s, _| plain_trace.push(s));

        let dir = scratch("plain-parity");
        let ckpt = CheckpointConfig::new(&dir);
        let mut traced = Vec::new();
        let out = Rrre::fit_checkpointed(&ds, &corpus, &train, cfg, &ckpt, |s, _| traced.push(s)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(out.completed_epochs, 3);
        assert!(out.diverged_at.is_none());
        assert_eq!(plain_trace.len(), traced.len());
        for (a, b) in plain_trace.iter().zip(&traced) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "epoch {} loss diverged", a.epoch);
            assert_eq!(a.loss1.to_bits(), b.loss1.to_bits());
            assert_eq!(a.loss2.to_bits(), b.loss2.to_bits());
        }
        assert_eq!(params_bits(&plain), params_bits(&out.model));
    }

    #[test]
    fn resume_continues_bit_identically() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..ds.len()).collect();
        let full_cfg = RrreConfig { epochs: 4, ..RrreConfig::tiny() };

        let mut full_trace = Vec::new();
        let full = Rrre::fit_with_hook(&ds, &corpus, &train, full_cfg, |s, _| full_trace.push(s));

        // Interrupted run: stop after 2 epochs (the checkpoint survives),
        // then resume to the full 4.
        let dir = scratch("resume");
        let ckpt = CheckpointConfig::new(&dir);
        let cut_cfg = RrreConfig { epochs: 2, ..full_cfg };
        Rrre::fit_checkpointed(&ds, &corpus, &train, cut_cfg, &ckpt, |_, _| {}).unwrap();

        let mut tail = Vec::new();
        let resumed = Rrre::resume(&ds, &corpus, &train, full_cfg, &ckpt, |s, _| tail.push(s)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(resumed.resumed_from, Some(2));
        assert_eq!(resumed.completed_epochs, 4);
        assert_eq!(tail.len(), 2, "resume must run exactly the remaining epochs");
        for (a, b) in full_trace[2..].iter().zip(&tail) {
            assert_eq!(a.epoch, b.epoch);
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "epoch {} loss diverged after resume", a.epoch);
        }
        assert_eq!(params_bits(&full), params_bits(&resumed.model), "resumed weights diverged");
    }

    #[test]
    fn divergence_rolls_back_to_last_good_checkpoint() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..ds.len()).collect();
        let cfg = RrreConfig { epochs: 2, ..RrreConfig::tiny() };

        let dir = scratch("nan-guard");
        let ckpt = CheckpointConfig::new(&dir);
        let good = Rrre::fit_checkpointed(&ds, &corpus, &train, cfg, &ckpt, |_, _| {}).unwrap();
        let good_bits = params_bits(&good.model);

        // Resume with an absurd learning rate: the next epoch blows up, the
        // guard trips, and the model rolls back to the epoch-2 checkpoint.
        let hot_cfg = RrreConfig { epochs: 4, lr: 1e30, ..cfg };
        let out = Rrre::resume(&ds, &corpus, &train, hot_cfg, &ckpt, |_, _| {}).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(out.diverged_at, Some(2), "epoch 2 (0-based) must trip the guard");
        assert_eq!(out.completed_epochs, 2);
        assert!(!out.model.params().has_non_finite(), "rolled-back model must be clean");
        assert_eq!(params_bits(&out.model), good_bits, "rollback must restore the checkpoint exactly");
    }

    /// The directory's files, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn the_directory_holds_one_checkpoint_and_a_fresh_run_supersedes_it() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..ds.len()).collect();
        let cfg = RrreConfig { epochs: 4, ..RrreConfig::tiny() };
        let dir = scratch("one-checkpoint");
        let ckpt = CheckpointConfig::new(&dir);
        Rrre::fit_checkpointed(&ds, &corpus, &train, cfg, &ckpt, |_, _| {}).unwrap();
        assert_eq!(listing(&dir), ["adam.4.rrrp", "latest.json", "model.4.rrrp"]);
        assert_eq!(CkptManifest::read(&dir).unwrap().epoch, 4);

        // A shorter fresh run reuses none of the old names' contents: its
        // first commit deletes the old payloads, its last is what resumes.
        let short = RrreConfig { epochs: 2, ..cfg };
        Rrre::fit_checkpointed(&ds, &corpus, &train, short, &ckpt, |_, _| {}).unwrap();
        assert_eq!(listing(&dir), ["adam.2.rrrp", "latest.json", "model.2.rrrp"]);
        assert_eq!(CkptManifest::read(&dir).unwrap().epoch, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crash while epoch 3's payloads were being written leaves them
    /// torn beside epoch 2's committed `latest.json`: resume reads only what
    /// the manifest lists, and its next commit rewrites the torn names.
    #[test]
    fn a_torn_next_epoch_payload_beside_a_good_manifest_resumes_bit_identically() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..ds.len()).collect();
        let full_cfg = RrreConfig { epochs: 4, ..RrreConfig::tiny() };
        let mut full_trace = Vec::new();
        let full = Rrre::fit_with_hook(&ds, &corpus, &train, full_cfg, |s, _| full_trace.push(s));

        let dir = scratch("torn-next");
        let ckpt = CheckpointConfig::new(&dir);
        Rrre::fit_checkpointed(&ds, &corpus, &train, RrreConfig { epochs: 2, ..full_cfg }, &ckpt, |_, _| {})
            .unwrap();
        let whole = std::fs::read(dir.join("model.2.rrrp")).unwrap();
        std::fs::write(dir.join("model.3.rrrp"), &whole[..whole.len() / 2]).unwrap();
        std::fs::write(dir.join("adam.3.rrrp"), b"").unwrap();

        let mut tail = Vec::new();
        let resumed = Rrre::resume(&ds, &corpus, &train, full_cfg, &ckpt, |s, _| tail.push(s)).unwrap();
        assert_eq!(resumed.resumed_from, Some(2));
        for (a, b) in full_trace[2..].iter().zip(&tail) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "epoch {} loss diverged after resume", a.epoch);
        }
        assert_eq!(params_bits(&full), params_bits(&resumed.model), "resumed weights diverged");
        assert_eq!(listing(&dir), ["adam.4.rrrp", "latest.json", "model.4.rrrp"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_checkpoints_is_a_clean_error() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..ds.len()).collect();
        let cfg = RrreConfig { epochs: 2, ..RrreConfig::tiny() };
        let dir = scratch("no-ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let err = Rrre::resume(&ds, &corpus, &train, cfg, &CheckpointConfig::new(&dir), |_, _| {})
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("no resumable checkpoint"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_checkpoint_file_fails_closed() {
        let (ds, corpus) = tiny();
        let train: Vec<usize> = (0..ds.len()).collect();
        let cfg = RrreConfig { epochs: 1, ..RrreConfig::tiny() };
        let dir = scratch("torn");
        let ckpt = CheckpointConfig::new(&dir);
        Rrre::fit_checkpointed(&ds, &corpus, &train, cfg, &ckpt, |_, _| {}).unwrap();

        let model_file = dir.join("model.1.rrrp");
        let bytes = std::fs::read(&model_file).unwrap();
        std::fs::write(&model_file, &bytes[..bytes.len() / 2]).unwrap();
        let err =
            Rrre::resume(&ds, &corpus, &train, cfg, &ckpt, |_, _| {}).map(|_| ()).unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
        // A torn weights file must surface as an I/O / InvalidData error,
        // never a half-restored model.
        assert!(matches!(
            err.kind(),
            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
        ));
    }
}
