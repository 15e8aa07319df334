//! Deterministic data-parallel training primitives.
//!
//! The training loop (`Rrre::train_epoch`) splits every minibatch
//! into *shards* of a fixed grain ([`SHARD_GRAIN`] examples), each worker of
//! a persistent [`Pool`] claims shards off a shared counter and accumulates
//! forward/backward results into that shard's own [`GradShard`], and a single
//! thread then combines the shards with [`tree_reduce`] — a fixed-order,
//! pairwise tree whose shape depends only on the shard count.
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
//! Together these make training bit-identical for every thread count,
//! including `threads = 1`, which runs the very same shard loop on the
//! calling thread. `tests/parallel_parity.rs` is the oracle for this claim.
//!
//! The pool itself follows the worker-pool idiom of `crates/serve`'s
//! batching engine (parked workers, a generation counter instead of a
//! channel, panic containment), but publishes borrowed jobs: [`Pool::run`]
//! hands workers a lifetime-erased pointer to a caller-stack closure and
//! blocks until every worker is done with it, which is what makes the
//! erasure sound.

use rrre_tensor::{GradStore, Params};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Examples per shard. A constant — never derived from the thread count —
/// so the shard layout (and therefore every accumulation order) is a pure
/// function of the chunk length. Small enough to keep 8 workers busy on the
/// default 64-example batch, large enough that the per-shard buffer zeroing
/// amortises.
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
/// (f64) loss partial sums for the epoch statistics. Keeping the loss sums
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

    /// Resets the shard for reuse on the next minibatch (in place, no
    /// reallocation).
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

/// A published job: a borrowed `Fn(worker_index)` with its lifetime erased.
/// Sound because [`Pool::run`] does not return until every worker has
/// finished calling it (even when the caller's own slice of the job panics).
#[derive(Clone, Copy)]
struct ErasedJob(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and `Pool::run` guarantees it outlives every use.
unsafe impl Send for ErasedJob {}

struct PoolState {
    job: Option<ErasedJob>,
    /// Bumped once per `run`; workers use it to detect fresh jobs.
    generation: u64,
    /// Workers still inside the current job.
    remaining: usize,
    /// Set when any worker's slice of the job panicked.
    panicked: bool,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a new job is published (or on shutdown).
    start: Condvar,
    /// Signalled when the last worker leaves a job.
    done: Condvar,
}

/// A persistent pool of training workers. `threads` counts the calling
/// thread: `Pool::new(1)` spawns nothing and [`Pool::run`] degenerates to a
/// plain call, so serial training goes through the identical code path.
pub struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl Pool {
    /// Creates a pool of `threads.max(1)` workers (including the caller).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                generation: 0,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rrre-train-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("Pool: failed to spawn worker thread")
            })
            .collect();
        Self { shared, handles, threads }
    }

    /// Total worker count, calling thread included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job(worker_index)` once on every worker — background workers get
    /// indices `1..threads`, the calling thread runs index `0` — and returns
    /// when all of them have finished.
    ///
    /// # Panics
    /// Re-raises after all workers have left the job if any worker's call
    /// (or the caller's own) panicked, so borrowed data is never freed while
    /// still in use.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        if self.handles.is_empty() {
            job(0);
            return;
        }
        // SAFETY (lifetime erasure): the pointer is cleared below before this
        // function returns, and we block until `remaining == 0`, so no worker
        // can observe the job after the borrow ends.
        let erased = ErasedJob(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(job)
        });
        {
            let mut st = self.shared.state.lock().unwrap();
            debug_assert_eq!(st.remaining, 0, "Pool::run re-entered while a job is active");
            st.job = Some(erased);
            st.generation += 1;
            st.remaining = self.handles.len();
            st.panicked = false;
            self.shared.start.notify_all();
        }

        // The caller is worker 0 — but even if its slice panics we must wait
        // for the background workers before unwinding frees the job.
        let caller = catch_unwind(AssertUnwindSafe(|| job(0)));

        let mut st = self.shared.state.lock().unwrap();
        while st.remaining > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.job = None;
        let worker_panicked = st.panicked;
        drop(st);

        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if worker_panicked {
            panic!("Pool: a worker thread panicked during a parallel training job");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.start.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, idx: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    break st.job.expect("Pool: generation advanced without a job");
                }
                st = shared.start.wait(st).unwrap();
            }
        };
        // SAFETY: `Pool::run` keeps the job alive until `remaining` hits 0,
        // which only happens after this call returns (or unwinds into the
        // catch below).
        let ok = catch_unwind(AssertUnwindSafe(|| {
            let f: &(dyn Fn(usize) + Sync) = unsafe { &*job.0 };
            f(idx);
        }))
        .is_ok();
        let mut st = shared.state.lock().unwrap();
        if !ok {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrre_tensor::{GradSink, ParamId, Tensor};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn test_params() -> (Params, ParamId) {
        let mut params = Params::new();
        let w = params.register("w", Tensor::zeros(1, 3));
        (params, w)
    }

    /// Shard `s`'s contents are a pure function of `s`, using magnitudes
    /// (±1e8 against O(1) values) where float addition order is observable.
    fn staged_shard(params: &Params, w: ParamId, s: usize) -> GradShard {
        let mut shard = GradShard::new(params);
        let v = match s % 3 {
            0 => 1.0e8,
            1 => -1.0e8,
            _ => 3.7,
        };
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

    #[test]
    fn pool_runs_job_on_every_worker_and_is_reusable() {
        let pool = Pool::new(4);
        assert_eq!(pool.threads(), 4);
        for _ in 0..3 {
            let seen = Mutex::new(BTreeSet::new());
            pool.run(&|w| {
                seen.lock().unwrap().insert(w);
            });
            assert_eq!(
                seen.into_inner().unwrap().into_iter().collect::<Vec<_>>(),
                vec![0, 1, 2, 3],
                "every worker index must run the job exactly once"
            );
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let count = AtomicUsize::new(0);
        let caller = std::thread::current().id();
        pool.run(&|w| {
            assert_eq!(w, 0);
            assert_eq!(std::thread::current().id(), caller, "threads=1 must run on the caller");
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pool_zero_threads_clamps_to_one() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
        pool.run(&|_| {});
    }

    #[test]
    fn worker_panic_propagates_to_the_caller_and_pool_survives() {
        let pool = Pool::new(3);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|w| {
                if w == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err(), "a worker panic must surface in Pool::run");
        // The pool is still serviceable afterwards.
        let count = AtomicUsize::new(0);
        pool.run(&|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }
}
