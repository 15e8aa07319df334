//! Bit-exact oracle for the neural rating baselines (tier 1). NARRE,
//! DeepCoNN and DER are fitted at `repro --scale smoke`'s configurations on
//! one YelpChi-shaped fixture, and `tests/goldens/baseline_bits.json`
//! records, for each, an FNV-1a hash of every final weight and one of the
//! test-set predictions. A 1-ulp drift anywhere in a baseline's training or
//! prediction path fails here.
//!
//! The second test runs each baseline's one forward definition on a `Tape`
//! and on `Eval` over the test pairs and requires the same bits, so what a
//! baseline trains on is what it predicts with.
//!
//! Intended changes: `RRRE_UPDATE_GOLDENS=1 cargo test -q --test
//! baseline_bits` rewrites the file; commit the diff.

use rand::{rngs::StdRng, SeedableRng};
use rrre::baselines::rating::{DeepConn, DeepConnConfig, Der, DerConfig, Fitted, Narre, NarreConfig, PairNet};
use rrre::prelude::*;
use rrre::tensor::{Eval, Executor, Tape};
use rrre_testkit::golden::UPDATE_ENV;
use rrre_testkit::FixtureSpec;
use serde_json::Value;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/baseline_bits.json")
}

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// FNV-1a (64-bit) over the little-endian bytes of `values`, in hex.
fn hex_fnv(values: impl Iterator<Item = f32>) -> Value {
    Value::Str(format!("{:016x}", fnv1a(values.flat_map(|v| v.to_le_bytes()))))
}

/// The fixture: 900 YelpChi-shaped reviews, 630 of them for training (ten
/// optimiser steps per NARRE or DER epoch), and a seeded 30 % test split.
fn fixture() -> (Dataset, EncodedCorpus, Vec<usize>, Vec<usize>) {
    let (ds, corpus) = FixtureSpec { scale: 0.15, ..FixtureSpec::small() }.corpus();
    let split = train_test_split(&ds, 0.3, &mut StdRng::seed_from_u64(0x5917));
    (ds, corpus, split.train, split.test)
}

/// The three baselines, fitted at `repro --scale smoke`'s configurations.
struct Models {
    narre: Narre,
    deepconn: DeepConn,
    der: Der,
}

fn fit(ds: &Dataset, corpus: &EncodedCorpus, train: &[usize]) -> Models {
    let narre = NarreConfig { epochs: 3, s_u: 4, s_i: 6, id_dim: 8, attn_dim: 8, ..Default::default() };
    let deepconn = DeepConnConfig { epochs: 2, doc_tokens: 24, filters: 8, latent: 8, ..Default::default() };
    let der = DerConfig { epochs: 3, s_u: 4, s_i: 6, hidden: 8, ..Default::default() };
    Models {
        narre: Narre::fit(ds, corpus, train, narre),
        deepconn: DeepConn::fit(ds, corpus, train, deepconn),
        der: Der::fit(ds, corpus, train, der),
    }
}

fn record<N: PairNet>(name: &str, model: &Fitted<N>, ds: &Dataset, corpus: &EncodedCorpus, test: &[usize]) -> Value {
    let weights = model.params().iter().flat_map(|(_, _, t)| t.as_slice().iter().copied());
    let predictions = model.predict_reviews(ds, corpus, test);
    Value::Map(vec![
        ("name".into(), Value::Str(name.into())),
        ("weights_fnv1a".into(), hex_fnv(weights)),
        ("predictions_fnv1a".into(), hex_fnv(predictions.into_iter())),
    ])
}

#[test]
fn baseline_bits_match_the_committed_golden() {
    let (ds, corpus, train, test) = fixture();
    let m = fit(&ds, &corpus, &train);
    let actual = vec![
        record("NARRE", &m.narre, &ds, &corpus, &test),
        record("DeepCoNN", &m.deepconn, &ds, &corpus, &test),
        record("DER", &m.der, &ds, &corpus, &test),
    ];
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
        assert_eq!(g, a, "baseline bits drifted from the committed golden");
    }
}

/// Every test pair's forward value, as bits, on a fresh `Tape` and on `Eval`.
fn forward_bits<N: PairNet>(model: &Fitted<N>, ds: &Dataset, corpus: &EncodedCorpus, test: &[usize]) -> [Vec<u32>; 2] {
    let pairs = || test.iter().map(|&i| (ds.reviews[i].user, ds.reviews[i].item));
    let taped = pairs()
        .map(|(u, i)| {
            let mut tape = Tape::new();
            let v = model.forward(&mut tape, ds, corpus, u, i);
            tape.value(v).item().to_bits()
        })
        .collect();
    let evaluated = pairs()
        .map(|(u, i)| {
            let mut ex = Eval;
            let v = model.forward(&mut ex, ds, corpus, u, i);
            ex.value(&v).item().to_bits()
        })
        .collect();
    [taped, evaluated]
}

#[test]
fn each_forward_gives_the_same_bits_on_tape_and_eval() {
    let (ds, corpus, train, test) = fixture();
    let m = fit(&ds, &corpus, &train);
    for (name, [taped, evaluated]) in [
        ("NARRE", forward_bits(&m.narre, &ds, &corpus, &test)),
        ("DeepCoNN", forward_bits(&m.deepconn, &ds, &corpus, &test)),
        ("DER", forward_bits(&m.der, &ds, &corpus, &test)),
    ] {
        assert_eq!(taped.len(), test.len());
        assert_eq!(taped, evaluated, "{name}: Tape and Eval forwards differ");
    }
}
