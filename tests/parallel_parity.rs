//! The parallel-training parity oracle (tier 1): training with any worker
//! count must be **bit-identical** to serial training — the same per-epoch
//! loss bits and the same final weights, to the last f32 — across three
//! independently-seeded fixtures, plus a property sweep over
//! `(batch_size, threads)` combinations.
//!
//! This is the proof obligation behind `rrre_core::parallel`: shards are
//! positional (never per-worker), the gradient reduction is a fixed-order
//! pairwise tree, and the optimiser step is serial — so the thread count is
//! a pure throughput knob that can never change what the model learns.

use proptest::prelude::*;
use rrre_core::{EncoderMode, Rrre, RrreConfig};
use rrre_testkit::FixtureSpec;

/// Three distinct master seeds ⇒ three distinct datasets, corpora and
/// weight initialisations (the same trio the parity oracle uses).
const SEEDS: [u64; 3] = [0x5EED, 0xA11CE, 0x0B0E];

/// The thread counts under test: serial, even splits, a count that does not
/// divide the default batch, and more workers than this machine has cores.
const THREADS: [usize; 5] = [1, 2, 3, 4, 8];

/// Per-epoch loss bits and final weight bits of one training run.
struct RunBits {
    losses: Vec<(usize, u32, u32, u32)>,
    weights: Vec<u32>,
}

fn train_bits(spec: FixtureSpec, cfg: RrreConfig) -> RunBits {
    let (dataset, corpus) = spec.corpus();
    let train: Vec<usize> = (0..dataset.len()).collect();
    let mut losses = Vec::new();
    let model = Rrre::fit_with_hook(&dataset, &corpus, &train, cfg, |s, _| {
        losses.push((s.epoch, s.loss.to_bits(), s.loss1.to_bits(), s.loss2.to_bits()))
    });
    let weights = model
        .params()
        .iter()
        .flat_map(|(_, _, t)| t.as_slice().iter().map(|v| v.to_bits()))
        .collect();
    RunBits { losses, weights }
}

#[test]
fn every_thread_count_matches_serial_bits_on_three_seeds() {
    for seed in SEEDS {
        let spec = FixtureSpec::small().with_seed(seed);
        let serial = train_bits(spec, spec.rrre_config().with_threads(1));
        assert!(!serial.losses.is_empty() && !serial.weights.is_empty());
        for threads in THREADS {
            let run = train_bits(spec, spec.rrre_config().with_threads(threads));
            assert_eq!(
                run.losses, serial.losses,
                "per-epoch loss bits drifted from serial (seed {seed:#x}, threads {threads})"
            );
            assert_eq!(
                run.weights, serial.weights,
                "final weight bits drifted from serial (seed {seed:#x}, threads {threads})"
            );
        }
    }
}

/// End-to-end encoder mode backpropagates through the BiLSTM, so every
/// shard also writes whole-slot gradients for the encoder weights, slots
/// that frozen-mode runs never touch.
#[test]
fn end_to_end_encoder_matches_serial_bits() {
    let spec = FixtureSpec::micro().with_epochs(2);
    let base = RrreConfig { encoder: EncoderMode::EndToEnd, ..spec.rrre_config() };
    let serial = train_bits(spec, base.with_threads(1));
    assert_eq!(serial.losses.len(), 2);
    for threads in [2, 3] {
        let run = train_bits(spec, base.with_threads(threads));
        assert_eq!(run.losses, serial.losses, "end-to-end loss bits drifted (threads {threads})");
        assert_eq!(run.weights, serial.weights, "end-to-end weight bits drifted (threads {threads})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sweep awkward (batch_size, threads) combinations on the micro
    /// fixture: batches smaller than a shard, batches that leave ragged
    /// tail shards, and thread counts from serial to oversubscribed must
    /// all reproduce the serial bits.
    #[test]
    fn batch_and_thread_sweep_is_bit_identical(batch_size in 1usize..=9, threads in 2usize..=8) {
        let spec = FixtureSpec::micro().with_epochs(1);
        let base = RrreConfig { batch_size, ..spec.rrre_config() };
        let serial = train_bits(spec, base.with_threads(1));
        let parallel = train_bits(spec, base.with_threads(threads));
        prop_assert_eq!(
            serial.losses, parallel.losses,
            "loss bits drifted (batch_size {}, threads {})", batch_size, threads
        );
        prop_assert_eq!(
            serial.weights, parallel.weights,
            "weight bits drifted (batch_size {}, threads {})", batch_size, threads
        );
    }
}
