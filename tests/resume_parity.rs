//! Crash-and-resume parity (tier 1): a checkpointed training run that is
//! interrupted after two epochs and resumed from disk must reproduce the
//! uninterrupted run — bit-for-bit on the loss curve and the final
//! parameters, and inside the golden tolerance bands when expressed as a
//! full golden trace (the same harness that gates every other training
//! change).

use rrre_core::{evaluate, CheckpointConfig, EpochStats, Rrre, RrreConfig};
use rrre_testkit::golden::{capture, compare, EpochRecord, EvalRecord, GoldenTolerance, GoldenTrace, HeadRecord};
use rrre_testkit::{deterministic_pairs, FixtureSpec, TempDir};

const EPOCHS: usize = 4;
const INTERRUPT_AFTER: usize = 2;
const HEAD_PROBES: usize = 8;

fn stats_bits(stats: &[EpochStats]) -> Vec<(usize, u32, u32, u32)> {
    stats
        .iter()
        .map(|s| (s.epoch, s.loss.to_bits(), s.loss1.to_bits(), s.loss2.to_bits()))
        .collect()
}

#[test]
fn interrupted_and_resumed_run_matches_the_uninterrupted_golden_trace() {
    let spec = FixtureSpec::small().with_epochs(EPOCHS);
    let (dataset, corpus) = spec.corpus();
    let train: Vec<usize> = (0..dataset.len()).collect();

    // The uninterrupted reference run, via the exact harness the committed
    // goldens use.
    let (full_trace, full) = capture(spec, HEAD_PROBES);
    let mut full_stats = Vec::new();
    Rrre::fit_with_hook(&dataset, &corpus, &train, spec.rrre_config(), |s, _| {
        full_stats.push(s)
    });

    // The interrupted run: train to the interruption point with periodic
    // checkpoints, "crash" (drop everything), then resume from disk.
    let scratch = TempDir::new("resume-parity");
    let ckpt = CheckpointConfig::new(scratch.path());

    let mut pieced_stats: Vec<EpochStats> = Vec::new();
    let first_leg = RrreConfig { epochs: INTERRUPT_AFTER, ..spec.rrre_config() };
    let out = Rrre::fit_checkpointed(&dataset, &corpus, &train, first_leg, &ckpt, |s, _| {
        pieced_stats.push(s)
    })
    .expect("first training leg");
    assert_eq!(out.completed_epochs, INTERRUPT_AFTER);
    assert!(out.diverged_at.is_none());
    drop(out); // the crash: the in-memory model is gone, only disk survives

    let out = Rrre::resume(&dataset, &corpus, &train, spec.rrre_config(), &ckpt, |s, _| {
        pieced_stats.push(s)
    })
    .expect("resume from the newest checkpoint");
    assert_eq!(out.resumed_from, Some(INTERRUPT_AFTER));
    assert_eq!(out.completed_epochs, EPOCHS);
    assert!(out.diverged_at.is_none());
    let resumed = out.model;

    // Exact witness: the pieced-together loss curve is the uninterrupted
    // one, bit for bit, and so are the final parameters.
    assert_eq!(
        stats_bits(&pieced_stats),
        stats_bits(&full_stats),
        "resumed loss curve must be bit-identical to the uninterrupted run"
    );
    let full_params: Vec<u32> = full
        .model
        .params()
        .iter()
        .flat_map(|(_, _, t)| t.as_slice().iter().map(|v| v.to_bits()))
        .collect();
    let resumed_params: Vec<u32> = resumed
        .params()
        .iter()
        .flat_map(|(_, _, t)| t.as_slice().iter().map(|v| v.to_bits()))
        .collect();
    assert_eq!(full_params, resumed_params, "final parameters must be bit-identical");

    // Golden-trace witness: express the resumed run as a full trace and
    // hold it to the same tolerance bands the committed goldens use.
    let joint = evaluate(&resumed, &dataset, &corpus, &train);
    let resumed_trace = GoldenTrace {
        epochs: pieced_stats
            .iter()
            .map(|s| EpochRecord {
                epoch: s.epoch,
                loss: s.loss as f64,
                loss1: s.loss1 as f64,
                loss2: s.loss2 as f64,
            })
            .collect(),
        eval: EvalRecord {
            auc: joint.auc,
            ap_benign: joint.ap_benign,
            rmse: joint.rmse,
            brmse: joint.brmse,
        },
        heads: deterministic_pairs(&dataset, spec.seed, HEAD_PROBES)
            .into_iter()
            .map(|(u, i)| {
                let p = resumed.predict(&corpus, u, i);
                HeadRecord {
                    user: u.0,
                    item: i.0,
                    rating: p.rating as f64,
                    reliability: p.reliability as f64,
                }
            })
            .collect(),
    };
    if let Err(errors) = compare(&full_trace, &resumed_trace, GoldenTolerance::default()) {
        panic!(
            "resumed trace leaves the golden tolerance bands ({} violation(s)):\n  {}",
            errors.len(),
            errors.join("\n  ")
        );
    }
}

/// Crash-and-resume under *parallel* training: interrupt a 2-thread run
/// mid-way, resume it with a different thread count (3), and demand the
/// pieced-together run reproduce an uninterrupted **serial** run bit for
/// bit — loss curve and final weights. Thread count is not checkpoint
/// state, so a crashed 16-core job may legally finish on a laptop.
#[test]
fn parallel_crash_resume_with_different_thread_count_is_bit_identical() {
    let spec = FixtureSpec::small().with_epochs(EPOCHS);
    let (dataset, corpus) = spec.corpus();
    let train: Vec<usize> = (0..dataset.len()).collect();

    // Serial, uninterrupted reference.
    let mut serial_stats = Vec::new();
    let serial = Rrre::fit_with_hook(
        &dataset,
        &corpus,
        &train,
        spec.rrre_config().with_threads(1),
        |s, _| serial_stats.push(s),
    );

    let scratch = TempDir::new("resume-parity-parallel");
    let ckpt = CheckpointConfig::new(scratch.path());

    // First leg on 2 threads, "crashing" after the interrupt epoch.
    let mut pieced_stats: Vec<EpochStats> = Vec::new();
    let first_leg =
        RrreConfig { epochs: INTERRUPT_AFTER, ..spec.rrre_config().with_threads(2) };
    let out = Rrre::fit_checkpointed(&dataset, &corpus, &train, first_leg, &ckpt, |s, _| {
        pieced_stats.push(s)
    })
    .expect("first parallel training leg");
    assert_eq!(out.completed_epochs, INTERRUPT_AFTER);
    drop(out); // the crash: only the checkpoint directory survives

    // Resume on 3 threads.
    let out = Rrre::resume(
        &dataset,
        &corpus,
        &train,
        spec.rrre_config().with_threads(3),
        &ckpt,
        |s, _| pieced_stats.push(s),
    )
    .expect("resume with a different thread count");
    assert_eq!(out.resumed_from, Some(INTERRUPT_AFTER));
    assert_eq!(out.completed_epochs, EPOCHS);
    let resumed = out.model;

    assert_eq!(
        stats_bits(&pieced_stats),
        stats_bits(&serial_stats),
        "2-thread leg + 3-thread resume must reproduce the serial loss curve bit-for-bit"
    );
    let serial_params: Vec<u32> = serial
        .params()
        .iter()
        .flat_map(|(_, _, t)| t.as_slice().iter().map(|v| v.to_bits()))
        .collect();
    let resumed_params: Vec<u32> = resumed
        .params()
        .iter()
        .flat_map(|(_, _, t)| t.as_slice().iter().map(|v| v.to_bits()))
        .collect();
    assert_eq!(
        serial_params, resumed_params,
        "final weights must be bit-identical across the thread-count switch"
    );
}
