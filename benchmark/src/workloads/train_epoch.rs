//! `train_epoch`: offline training throughput.
//!
//! The only workload in which `rrre-tensor` runs backward as well as
//! forward and `rrre_core::parallel` does anything at all; every serving
//! layer is idle. It uses the same kernels as the serving workloads with
//! different shapes and access patterns, so a kernel tuned for inference
//! that hurts training shows here.
//!
//! The operation is one epoch of `Rrre::fit_with_hook` over the whole bench
//! dataset (≈ 157 optimiser steps). The hook fires once per epoch and
//! nothing finer can be seen from outside, so one `fit` call runs several
//! epochs and the time between two hook calls is one epoch's latency; the
//! first hook call also absorbs the frozen-encoder pass over the corpus
//! that `fit` starts with, so timing starts there. (Many short epochs over a
//! small sample would give more latency samples, but the model overfits
//! the sample within a second, the gradients turn denormal, and the step
//! time jumps by 40 % for whole stretches of the run.)

use super::Ctx;
use crate::inputs::{corpus_config, model_config, nproc, synth_config, Size};
use crate::metrics::{median, Outcome};
use crate::probes;
use rrre_core::Rrre;
use rrre_data::synth::generate;
use rrre_data::{Dataset, EncodedCorpus};
use std::time::Instant;

/// Timed epochs of the single-threaded floor run: three, so that the median
/// is one of them and one slow epoch does not move it (the mean of two
/// spread 16 % over ten seeds).
const FLOOR_EPOCHS: usize = 3;
/// Timed epochs the main run has at the least.
const MIN_EPOCHS: usize = 3;

struct Fit {
    /// Seconds between consecutive hook calls: one per timed epoch.
    epochs_s: Vec<f64>,
    /// Loss bits after each epoch, the untimed first included.
    loss_bits: Vec<u32>,
    model: Rrre,
}

/// Trains `timed + 1` epochs on `threads` threads; the first is not timed.
fn fit(
    ds: &Dataset,
    corpus: &EncodedCorpus,
    train: &[usize],
    seed: u64,
    timed: usize,
    threads: usize,
) -> Fit {
    let mut last: Option<Instant> = None;
    let (mut epochs_s, mut loss_bits) = (Vec::new(), Vec::new());
    let model = Rrre::fit_with_hook(
        ds,
        corpus,
        train,
        model_config(seed, timed + 1, threads),
        |stats, _| {
            let now = Instant::now();
            if let Some(prev) = last.replace(now) {
                epochs_s.push((now - prev).as_secs_f64());
            }
            loss_bits.push(stats.loss.to_bits());
        },
    );
    Fit {
        epochs_s,
        loss_bits,
        model,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();
    let threads = nproc();

    // Set-up: dataset generation and corpus build.
    let (mut setups, mut generate_s, mut corpus_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..ctx.setups {
        let t = Instant::now();
        let ds = generate(&synth_config(Size::Bench, ctx.seed));
        generate_s.push(t.elapsed().as_secs_f64());
        let t2 = Instant::now();
        let corpus = EncodedCorpus::build(&ds, &corpus_config(ctx.seed));
        corpus_s.push(t2.elapsed().as_secs_f64());
        setups.push(t.elapsed().as_secs_f64());
        built = Some((ds, corpus));
    }
    let (ds, corpus) = built.expect("at least one set-up");
    println!(
        "setup (generate + corpus build): {setups:.3?} s; {} reviews",
        ds.len()
    );
    let train: Vec<usize> = (0..ds.len()).collect();
    let samples_per_s = |epoch_s: f64| train.len() as f64 / epoch_s;

    // Floor: the same operation alone on one thread.
    let serial = fit(&ds, &corpus, &train, ctx.seed, FLOOR_EPOCHS, 1);
    let floor_s = median(&mut serial.epochs_s.clone());
    println!(
        "floor (1 thread): epoch {:.1} ms, {:.0} samples/s",
        floor_s * 1e3,
        samples_per_s(floor_s)
    );

    // Main run on every core, sized from the serial epoch as if the threads
    // scaled perfectly (so it runs a little longer than planned).
    let share = if ctx.trace { 0.3 } else { 0.55 };
    let timed = ((ctx.seconds * share / (floor_s / threads as f64)) as usize).max(MIN_EPOCHS);
    let parallel = fit(&ds, &corpus, &train, ctx.seed, timed, threads);
    let rss = probes::rss_mb();
    let epoch_s = median(&mut parallel.epochs_s.clone());
    out.count((FLOOR_EPOCHS + timed) as u64, 0);

    // Oracles: the loss stays finite, and — the parallel-parity contract —
    // any thread count produces the serial run's bits.
    let finite = |f: &Fit| f.loss_bits.iter().all(|&b| f32::from_bits(b).is_finite());
    out.expect(
        finite(&serial) && finite(&parallel),
        "training loss is not finite",
    );
    out.expect(
        serial.loss_bits[..] == parallel.loss_bits[..serial.loss_bits.len()],
        format!(
            "{threads}-thread training diverges from the 1-thread run within {} epochs",
            serial.loss_bits.len()
        ),
    );
    let last = *parallel.loss_bits.last().expect("at least one epoch");
    println!(
        "train ({threads} threads): {timed} timed epochs of {} samples, median {:.1} ms = {:.0} samples/s, final loss {:.6} loss_bits={last:08x}",
        train.len(),
        epoch_s * 1e3,
        samples_per_s(epoch_s),
        f32::from_bits(last)
    );

    if ctx.trace {
        out.set("data.generate_s", median(&mut generate_s));
        out.set("text.corpus_build_s", median(&mut corpus_s));
        out.set("bench.p50_ms", epoch_s * 1e3);
        out.set("core.train_samples_s.t1", samples_per_s(floor_s));
        out.set(
            "core.train_parallel_eff",
            floor_s / (threads as f64 * epoch_s),
        );
        probes::tensor(&mut out, &parallel.model, &corpus);
    } else {
        out.set("setup_s", median(&mut setups));
        out.set("throughput_ops_s", samples_per_s(epoch_s));
        out.set("floor_p50_ms", floor_s * 1e3);
        out.set("rss_mb", rss);
    }
    out
}
