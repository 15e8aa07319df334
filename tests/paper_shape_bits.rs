//! Bit-exact training oracle at the paper's shapes (tier 1). Two fits are
//! recorded in `tests/goldens/train_bits.json`, each as its per-epoch
//! `loss`/`loss1`/`loss2` bits and an FNV-1a hash of every final weight:
//!
//! * `RrreConfig::default()` — the shapes the benchmark trains (k = 64,
//!   s_u = 11, s_i = 12, id_dim = attn_dim = 16), frozen encoder;
//! * `RrreConfig::tiny()` with `EncoderMode::EndToEnd`, where the backward
//!   also runs through the BiLSTM, half-labelled so the self-training
//!   weight is read off the forward.
//!
//! `golden_trace.rs` checks a tiny-shape run within bands; this one compares
//! bits, so a 1-ulp drift in any kernel the training step runs fails here.
//! The thread count comes from `RRRE_THREADS` (serial when unset), and
//! training is bit-identical at every count, so the parallel rerun of the
//! root suite replays the same file.
//!
//! Intended changes: `RRRE_UPDATE_GOLDENS=1 cargo test -q --test
//! paper_shape_bits` rewrites the file; commit the diff.

use rrre_core::{EncoderMode, Rrre, RrreConfig};
use rrre_testkit::golden::UPDATE_ENV;
use rrre_testkit::FixtureSpec;
use serde_json::Value;
use std::path::PathBuf;

/// YelpChi-shaped data at this scale: enough examples for a dozen
/// optimiser steps per epoch at the default batch of 64, few enough for a
/// few seconds under a debug build.
const SCALE: f64 = 0.15;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/train_bits.json")
}

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// One recorded fit: its name, each epoch's `loss`/`loss1`/`loss2` as `f32`
/// bit patterns in hex, and FNV-1a (64-bit) over the little-endian bytes of
/// every final weight, parameters in registration order, in hex.
fn run(name: &str, spec: FixtureSpec, cfg: RrreConfig) -> Value {
    let (ds, corpus) = spec.corpus();
    let train: Vec<usize> = (0..ds.len()).collect();
    let threads = RrreConfig::env_threads().unwrap_or(1);
    let mut epochs = Vec::new();
    let model = Rrre::fit_with_hook(&ds, &corpus, &train, cfg.with_threads(threads), |s, _| {
        epochs.push(Value::Seq([s.loss, s.loss1, s.loss2].map(|v| Value::Str(format!("{:08x}", v.to_bits()))).into()));
    });
    let bytes = model.params().iter().flat_map(|(_, _, t)| t.as_slice().iter().flat_map(|v| v.to_le_bytes()));
    Value::Map(vec![
        ("name".into(), Value::Str(name.into())),
        ("epochs".into(), Value::Seq(epochs)),
        ("weights_fnv1a".into(), Value::Str(format!("{:016x}", fnv1a(bytes)))),
    ])
}

fn capture() -> Vec<Value> {
    let spec = FixtureSpec { scale: SCALE, ..FixtureSpec::small() };
    let paper = RrreConfig { epochs: 2, seed: spec.seed, ..RrreConfig::default() };
    assert_eq!((paper.k, paper.s_u, paper.s_i, paper.id_dim, paper.attn_dim), (64, 11, 12, 16, 16));
    let end_to_end = RrreConfig {
        epochs: 2,
        seed: spec.seed,
        encoder: EncoderMode::EndToEnd,
        labeled_fraction: 0.5,
        ..RrreConfig::tiny()
    };
    vec![
        run("frozen, RrreConfig::default() shapes", spec, paper),
        run("end-to-end, RrreConfig::tiny() shapes, half labelled", spec, end_to_end),
    ]
}

#[test]
fn training_bits_at_paper_shapes_match_the_committed_golden() {
    let actual = capture();
    let path = golden_path();
    if std::env::var(UPDATE_ENV).as_deref() == Ok("1") {
        let json = serde_json::to_string_pretty(&Value::Seq(actual)).expect("serialize");
        std::fs::write(&path, json + "\n").expect("write golden");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {} ({e}); regenerate with {UPDATE_ENV}=1", path.display()));
    let golden: Value = serde_json::from_str(&raw).expect("golden parses");
    let Value::Seq(golden) = golden else { panic!("the golden is a list of runs") };
    assert_eq!(golden.len(), actual.len(), "run count");
    for (g, a) in golden.iter().zip(&actual) {
        assert_eq!(g, a, "training bits drifted from the committed golden");
    }
}
