//! Deterministic data-parallel training primitives.
//!
//! The training loop (`Rrre::train_epoch`) splits every minibatch
//! into *shards* of a fixed grain ([`SHARD_GRAIN`] examples), [`run_shards`]
//! has the calling thread and its scoped helpers claim shards off a shared
//! counter and accumulate forward/backward results into each shard's own
//! [`GradShard`], and a single thread then combines the shards with
//! [`tree_reduce`] — a fixed-order, pairwise tree whose shape depends only
//! on the shard count.
//!
//! Determinism argument, in three parts:
//!
//! 1. **Shards are positional, not per-worker.** Shard `s` always covers
//!    chunk positions `[s·G, (s+1)·G)` and its buffer is filled in position
//!    order, so the bits inside every shard are independent of which worker
//!    computed it (thread count only decides *who* runs a shard, never
//!    *what* a shard contains).
//! 2. **The reduction order is pinned.** [`tree_reduce`] combines shard `i`
//!    with shard `i + stride` for strides `1, 2, 4, …` — a tree determined by
//!    the shard count alone. Floating-point addition is not associative, so
//!    this is the step that would silently vary with thread count in a naïve
//!    "reduce as workers finish" design.
//! 3. **The optimiser step is serial.** One thread absorbs the reduced
//!    gradients into the `Params` store and applies Adam, exactly as before.
//!
//! Shards are row-sparse: each [`GradShard`] records which embedding rows
//! its examples wrote, and the reset, the merges and the absorb visit only
//! those. Skipping an unwritten element is exact — it is `+0.0`, and no
//! accumulator that starts at `+0.0` and only adds ever holds `-0.0`, the
//! one value `+ 0.0` would change — so this changes no bit of the
//! argument above.
//!
//! Each thread records its shards on a tape of its own, lent by
//! [`run_shards`] and kept across steps, so its buffers stay warm; a tape
//! only holds one shard's graph at a time, and a pass writes every value
//! it reads, so which tape a shard runs on changes none of its bits either.
//!
//! Together these make training bit-identical for every thread count,
//! including `threads = 1`, which runs the very same shard loop on the
//! calling thread. `tests/parallel_parity.rs` is the oracle for this claim.
//!
//! The threads come from `std::thread::scope`, spawned per step: the scope
//! joins every helper before [`run_shards`] returns or re-raises a panic,
//! so the shards and the model can be lent to them by plain borrows. A
//! persistent pool would save the spawn (tens of µs against a step of
//! milliseconds) at the price of erasing those borrows' lifetimes.

use rrre_tensor::{GradStore, Params, Tape};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Examples per shard. A constant — never derived from the thread count —
/// so the shard layout (and therefore every accumulation order) is a pure
/// function of the chunk length. Small enough to keep 8 threads busy on the
/// default 64-example batch. A shard's reset and merge cost the rows its
/// examples touched plus the small dense layers, so a finer grain costs
/// little; changing it changes the tree and therefore the bits.
pub const SHARD_GRAIN: usize = 4;

/// Number of shards a chunk of `n` examples splits into.
pub fn shard_count(n: usize) -> usize {
    n.div_ceil(SHARD_GRAIN)
}

/// Chunk positions covered by shard `s` of a chunk of `n` examples.
pub fn shard_range(s: usize, n: usize) -> std::ops::Range<usize> {
    let start = s * SHARD_GRAIN;
    start..((start + SHARD_GRAIN).min(n))
}

/// One shard's accumulation buffer: a detached gradient store plus the
/// (f64) loss partial sums for the epoch statistics. The store holds what
/// the shard's examples wrote — the embedding rows they looked up and the
/// dense layers they ran — and nothing else: a parameter no example
/// touches, such as the frozen review encoder, is never reset, merged or
/// absorbed. Keeping the loss sums
/// in the shard means the *statistics* are also combined by the fixed-order
/// tree, so the reported per-epoch losses are bit-stable across thread
/// counts too — which is exactly what the golden traces assert on.
#[derive(Debug)]
pub struct GradShard {
    /// Per-parameter gradient accumulators for this shard's examples.
    pub grads: GradStore,
    /// Sum over the shard of the per-example joint loss.
    pub loss: f64,
    /// Sum over the shard of the per-example reliability loss.
    pub loss1: f64,
    /// Sum over the shard of the per-example rating loss.
    pub loss2: f64,
}

impl GradShard {
    /// A zeroed shard shaped like `params`.
    pub fn new(params: &Params) -> Self {
        Self { grads: params.grad_store(), loss: 0.0, loss1: 0.0, loss2: 0.0 }
    }

    /// Resets the shard for reuse on the next minibatch: zeroes the written
    /// rows in place, with no reallocation.
    pub fn reset(&mut self) {
        self.grads.zero();
        self.loss = 0.0;
        self.loss1 = 0.0;
        self.loss2 = 0.0;
    }

    /// Pairwise combine: gradients and loss partials of `other` are added
    /// onto `self`. The single reduction primitive [`tree_reduce`] is built
    /// from.
    pub fn merge(&mut self, other: &GradShard) {
        self.grads.add_assign(&other.grads);
        self.loss += other.loss;
        self.loss1 += other.loss1;
        self.loss2 += other.loss2;
    }
}

/// Fixed-order pairwise tree reduction: after the call, `shards[0]` holds
/// the combination of all shards, merged as `(0,1) (2,3) …`, then
/// `(0,2) (4,6) …`, and so on with doubling strides. The tree shape — and
/// therefore every float-addition order — depends only on `shards.len()`.
pub fn tree_reduce(shards: &mut [GradShard]) {
    let n = shards.len();
    let mut stride = 1;
    while stride < n {
        let mut i = 0;
        while i + stride < n {
            let (left, right) = shards.split_at_mut(i + stride);
            left[i].merge(&right[0]);
            i += 2 * stride;
        }
        stride *= 2;
    }
}

/// Runs `fill(s, &mut shards[s], tape)` once for every `s` on the calling
/// thread plus `min(threads, shards.len()) − 1` scoped helpers (none at one
/// thread). Threads claim shards off one counter, so a descheduled thread
/// never stalls the step; which thread fills a shard never changes it.
///
/// Thread `t` hands every fill it runs `tapes[t]`, so one thread records all
/// its examples on one tape, whose buffers stay warm. `tapes` grows to the
/// number of threads run and is the caller's to keep across steps.
///
/// # Panics
/// Re-raises a panic from any `fill` after every thread has been joined;
/// the others keep claiming, so every other shard is still filled.
pub fn run_shards(
    threads: usize,
    shards: &mut [GradShard],
    tapes: &mut Vec<Tape<'static>>,
    fill: impl Fn(usize, &mut GradShard, &mut Tape<'static>) + Sync,
) {
    let n = shards.len();
    let next = AtomicUsize::new(0);
    // The claim counter gives each slot a single owner; the Mutex proves it
    // to the borrow checker.
    let slots: Vec<Mutex<&mut GradShard>> = shards.iter_mut().map(Mutex::new).collect();
    let claim = |tape: &mut Tape<'static>| loop {
        let s = next.fetch_add(1, Ordering::Relaxed);
        if s >= n {
            break;
        }
        fill(s, &mut slots[s].lock().expect("a shard's lock is taken once, by its one claimant"), tape);
    };
    let running = threads.min(n).max(1);
    if tapes.len() < running {
        tapes.resize_with(running, Tape::new);
    }
    let (caller, helpers) = tapes.split_at_mut(1);
    std::thread::scope(|scope| {
        for tape in &mut helpers[..running - 1] {
            let claim = &claim;
            scope.spawn(move || claim(tape));
        }
        claim(&mut caller[0]);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrre_tensor::{GradSink, ParamId, Tensor};
    use std::collections::HashSet;
    use std::sync::atomic::Ordering::SeqCst;
    use std::sync::{Arc, Condvar};

    fn test_params() -> (Params, ParamId) {
        let mut params = Params::new();
        let w = params.register("w", Tensor::zeros(1, 3));
        (params, w)
    }

    /// Shard `s`'s contents are a pure function of `s`, using magnitudes
    /// (±1e8 against O(1) values) where float addition order is observable.
    fn staged_shard(params: &Params, w: ParamId, s: usize) -> GradShard {
        let mut shard = GradShard::new(params);
        let v = [1.0e8, -1.0e8, 3.7][s % 3];
        shard.grads.accumulate_grad(
            w,
            &Tensor::from_vec(1, 3, vec![v, s as f32 + 0.1, 1.0 / (s as f32 + 1.0)]),
        );
        shard.loss = v as f64;
        shard
    }

    fn staged_shards(n: usize) -> (Params, ParamId, Vec<GradShard>) {
        let (params, w) = test_params();
        let shards = (0..n).map(|s| staged_shard(&params, w, s)).collect();
        (params, w, shards)
    }

    #[test]
    fn shard_layout_is_a_pure_function_of_chunk_length() {
        assert_eq!(shard_count(0), 0);
        assert_eq!(shard_count(1), 1);
        assert_eq!(shard_count(SHARD_GRAIN), 1);
        assert_eq!(shard_count(SHARD_GRAIN + 1), 2);
        assert_eq!(shard_count(64), 16);
        // The ranges tile [0, n) exactly, in order, for awkward lengths too.
        for n in [1usize, 3, 4, 5, 17, 64] {
            let mut covered = Vec::new();
            for s in 0..shard_count(n) {
                let r = shard_range(s, n);
                assert!(!r.is_empty(), "shard {s} of {n} is empty");
                covered.extend(r);
            }
            assert_eq!(covered, (0..n).collect::<Vec<_>>(), "tiling of {n}");
        }
    }

    #[test]
    fn tree_reduce_order_is_fixed_under_permuted_completion_order() {
        // Reference: shards created and reduced on one thread, in index order.
        let (_, w, mut reference) = staged_shards(7);
        tree_reduce(&mut reference);
        let want_grad: Vec<u32> =
            reference[0].grads.grad(w).as_slice().iter().map(|v| v.to_bits()).collect();
        let want_loss = reference[0].loss.to_bits();

        // Adversarial runs: 7 workers each build one shard, but a condvar
        // turnstile forces them to *finish* in a permuted order — the shape a
        // naïve "reduce as workers complete" design would be sensitive to.
        for perm in [[3usize, 0, 6, 1, 5, 2, 4], [6, 5, 4, 3, 2, 1, 0], [0, 2, 4, 6, 1, 3, 5]] {
            let turnstile = Arc::new((Mutex::new(0usize), Condvar::new()));
            let gate = Arc::clone(&turnstile);
            let mut shards: Vec<GradShard> =
                rrre_testkit::sync::run_concurrently(7, move |shard_idx| {
                    let (params, w) = test_params();
                    let mine = staged_shard(&params, w, shard_idx);
                    // Completion turnstile: block until every worker with a
                    // lower rank in `perm` has already finished.
                    let my_rank = perm.iter().position(|&p| p == shard_idx).unwrap();
                    let (lock, cv) = &*gate;
                    let mut done = lock.lock().unwrap();
                    while *done != my_rank {
                        done = cv.wait(done).unwrap();
                    }
                    *done += 1;
                    cv.notify_all();
                    mine
                });
            // `run_concurrently` returns results in worker-index order, which
            // is shard-index order — completion order never leaks in.
            tree_reduce(&mut shards);
            let got: Vec<u32> =
                shards[0].grads.grad(w).as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want_grad, "gradient bits drifted under completion order {perm:?}");
            assert_eq!(shards[0].loss.to_bits(), want_loss, "loss bits drifted under {perm:?}");
        }
    }

    #[test]
    fn tree_reduce_differs_from_left_fold_on_cancellation_heavy_input() {
        // Sanity that the oracle has teeth: with catastrophic cancellation in
        // play, the pinned tree and a naïve left fold genuinely disagree —
        // so "bit-identical" elsewhere is a real constraint, not a tautology.
        let (params, w, mut tree) = staged_shards(7);
        let (_, _, fold_src) = staged_shards(7);
        tree_reduce(&mut tree);
        let mut fold = GradShard::new(&params);
        for s in &fold_src {
            fold.merge(s);
        }
        let tree_bits: Vec<u32> =
            tree[0].grads.grad(w).as_slice().iter().map(|v| v.to_bits()).collect();
        let fold_bits: Vec<u32> =
            fold.grads.grad(w).as_slice().iter().map(|v| v.to_bits()).collect();
        assert_ne!(
            tree_bits, fold_bits,
            "expected the pairwise tree and a left fold to disagree on cancellation-heavy input"
        );
    }

    fn blank_shards(n: usize) -> Vec<GradShard> {
        let (params, _) = test_params();
        (0..n).map(|_| GradShard::new(&params)).collect()
    }

    /// Counts a visit in `loss` and records which shard index it was for.
    fn stamp(s: usize, shard: &mut GradShard) {
        shard.loss += 1.0;
        shard.loss1 = s as f64;
    }

    /// Spins until `done()` holds or 10 s pass: a barrier that cannot hang.
    fn wait_until(done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !done() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    #[test]
    fn run_shards_fills_every_shard_exactly_once() {
        let caller = std::thread::current().id();
        for threads in [0usize, 1, 2, 3, 8] {
            // One tape list kept across the calls, as a training epoch keeps it.
            let mut tapes = Vec::new();
            let mut fills = 0;
            // Fewer, as many, and more shards than threads.
            for n in [0usize, 1, 2, 3, 5, 16] {
                let mut shards = blank_shards(n);
                // Every (tape address, thread) pair this call lends.
                let lent = Mutex::new(HashSet::new());
                run_shards(threads, &mut shards, &mut tapes, |s, shard, tape| {
                    assert!(threads > 1 || std::thread::current().id() == caller, "threads=1 spawned");
                    lent.lock().unwrap().insert((tape as *const Tape as usize, std::thread::current().id()));
                    // Never reset, so the tapes' node counts tally every fill of every call.
                    tape.scalar(0.0);
                    stamp(s, shard);
                });
                for (s, shard) in shards.iter().enumerate() {
                    assert_eq!(shard.loss, 1.0, "shard {s} of {n} at threads={threads}");
                    assert_eq!(shard.loss1, s as f64, "shard {s} got another's fill");
                }
                let lent = lent.into_inner().unwrap();
                let tapes_used: HashSet<_> = lent.iter().map(|&(tape, _)| tape).collect();
                let threads_used: HashSet<_> = lent.iter().map(|&(_, thread)| thread).collect();
                assert!(
                    tapes_used.len() == lent.len() && threads_used.len() == lent.len(),
                    "a tape shared between threads, or a thread on two tapes, at threads={threads} n={n}"
                );
                // `n` only grows, so the list is exactly as long as this call's thread count.
                assert_eq!(tapes.len(), threads.min(n).max(1), "tapes after n={n} at threads={threads}");
                fills += n;
                assert_eq!(tapes.iter().map(Tape::len).sum::<usize>(), fills, "a kept tape was replaced");
            }
        }
    }

    #[test]
    fn run_shards_threads_are_bounded_by_the_shard_count() {
        let ids = Mutex::new(HashSet::new());
        let started = AtomicUsize::new(0);
        let mut shards = blank_shards(3);
        run_shards(64, &mut shards, &mut Vec::new(), |s, shard, _| {
            ids.lock().unwrap().insert(std::thread::current().id());
            // Each fill waits for the other two: three threads hold the shards at once.
            started.fetch_add(1, SeqCst);
            wait_until(|| started.load(SeqCst) == 3);
            stamp(s, shard);
        });
        assert_eq!(ids.into_inner().unwrap().len(), 3);
        assert!(shards.iter().all(|s| s.loss == 1.0));
    }

    #[test]
    fn run_shards_panic_reaches_the_caller_after_the_other_fills() {
        let caller = std::thread::current().id();
        let mut shards = blank_shards(8);
        let panicked_at = AtomicUsize::new(usize::MAX);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_shards(3, &mut shards, &mut Vec::new(), |s, shard, _| {
                // The first fill a helper runs panics; every other fill
                // waits for that, so the panic lands while they still run.
                let helper = std::thread::current().id() != caller;
                if helper && panicked_at.compare_exchange(usize::MAX, s, SeqCst, SeqCst).is_ok() {
                    panic!("boom");
                }
                wait_until(|| panicked_at.load(SeqCst) != usize::MAX);
                stamp(s, shard);
            });
        }));
        assert!(caught.is_err(), "a helper's panic must surface in run_shards");
        // The scope joined every thread first: all other fills are done.
        let panicked_at = panicked_at.into_inner();
        for (s, shard) in shards.iter().enumerate() {
            assert_eq!(shard.loss, if s == panicked_at { 0.0 } else { 1.0 }, "shard {s}");
        }
    }
}
