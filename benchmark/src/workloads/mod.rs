//! The five workloads. Each takes the run's [`Ctx`] and returns an
//! [`Outcome`]: untraced, every end-to-end metric; traced, the per-layer
//! metrics of the layers it exercises.
//!
//! A run of `--seconds S` splits S between its timed phases by the
//! fractions below, fixed-count phases first. Set-up (for the serving
//! workloads: artifact load, fleet launch, warm-up) is repeated
//! [`Ctx::setups`] times and reported as the median; the fleet of the last
//! repetition is the one measured.

pub mod ingest_quorum;
pub mod node;
pub mod scatter_warm;
pub mod train_epoch;

use crate::hist::Windowed;
use crate::inputs::{Inputs, Size};
use crate::metrics::Outcome;
use rrre_wire::{Request, Response, StatsSnapshot};
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Share of `--seconds` spent on lone, depth-1 operations (`floor_p50_ms`).
pub const FLOOR_SHARE: f64 = 0.10;
/// Share spent at the reference rate (cold, hot: latency under a fixed
/// load, and a fixed number of operations before `rss_mb` is read);
/// `ingest_quorum` adds it to its depth-1 phase.
pub const REFERENCE_SHARE: f64 = 0.55;
/// Share spent in the closed-loop saturation phase (`throughput_ops_s`).
pub const SATURATION_SHARE: f64 = 0.25;
/// Requests an open-loop latency phase sends at the least.
pub const MIN_LATENCY_SAMPLES: usize = 1_000;

/// Built inputs by size, shared between the workloads of one process.
pub type SharedInputs = RefCell<Vec<(Size, Rc<Inputs>)>>;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set-up repetitions (3; 1 under `--quick`).
    pub setups: usize,
    /// Inputs kept for the next workload of an all-workloads run, which uses
    /// the same seed; a single-workload run keeps nothing.
    pub shared_inputs: Option<SharedInputs>,
    /// Scratch directory of this process; removed when the run ends.
    pub work: PathBuf,
    /// Where trace files go; kept.
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn share(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "train_epoch" => train_epoch::run(ctx),
        "recommend_cold" => node::run(node::Kind::Cold, ctx),
        "predict_hot" => node::run(node::Kind::Hot, ctx),
        "scatter_warm" => scatter_warm::run(ctx),
        "ingest_quorum" => ingest_quorum::run(ctx),
        _ => return None,
    })
}

/// Builds the seeded inputs and writes the artifact under the work dir.
/// Untimed: for the serving workloads the artifact is an input.
pub fn prepare(ctx: &Ctx, size: Size, shards: u32) -> (Rc<Inputs>, PathBuf) {
    let t = Instant::now();
    let kept = ctx.shared_inputs.as_ref().and_then(|c| {
        c.borrow()
            .iter()
            .find(|(s, _)| *s == size)
            .map(|(_, i)| Rc::clone(i))
    });
    let inputs = kept.unwrap_or_else(|| {
        let built = Rc::new(Inputs::build(size, ctx.seed));
        if let Some(cache) = &ctx.shared_inputs {
            cache.borrow_mut().push((size, Rc::clone(&built)));
        }
        built
    });
    let dir = ctx.work.join("artifact");
    let _ = std::fs::remove_dir_all(&dir);
    inputs
        .save(&dir, shards)
        .expect("cannot write the bench artifact");
    println!(
        "inputs: seed {} -> {} users x {} items, {} reviews; built and saved in {:.2} s (untimed)",
        ctx.seed,
        inputs.dataset.n_users,
        inputs.dataset.n_items,
        inputs.dataset.len(),
        t.elapsed().as_secs_f64()
    );
    (inputs, dir)
}

/// Encodes requests as protocol lines, request `i` carrying id `i`.
pub fn encode(reqs: impl IntoIterator<Item = Request>) -> Vec<String> {
    reqs.into_iter()
        .enumerate()
        .map(|(i, r)| {
            serde_json::to_string(&r.with_id(i as u64)).expect("Request serialisation cannot fail")
        })
        .collect()
}

pub fn decode(line: &str) -> Option<Response> {
    serde_json::from_str(line.trim()).ok()
}

/// Time windows a measured phase is split into (see [`Windowed`]).
pub const WINDOWS: usize = 5;

/// Prints a phase's latency — the median window's p50, p95 and p99 — with
/// the sample count, and in a traced run reports them as `bench.p50_ms`,
/// `bench.p95_ms` and `bench.p99_ms`. They are per-layer metrics only: under
/// load on two shared cores they spread 15 to 35 % over ten seeds, more than
/// any bound the end-to-end contract allows.
pub fn report_latency(out: &mut Outcome, trace: bool, what: &str, w: &Windowed) {
    let (p50, p95, p99) = (w.quantile_ms(0.5), w.quantile_ms(0.95), w.quantile_ms(0.99));
    if trace {
        out.set("bench.p50_ms", p50);
        out.set("bench.p95_ms", p95);
        out.set("bench.p99_ms", p99);
    }
    let note = if w.supports(0.99) {
        ""
    } else {
        " (fewer than ten samples beyond p99 in some window)"
    };
    println!(
        "{what}: n={} in {} windows, p50 {p50:.3} ms, p95 {p95:.3} ms, p99 {p99:.3} ms{note}",
        w.count(),
        w.windows.len(),
    );
}

/// Share of tower-cache lookups between two snapshots that hit.
pub fn hit_share(before: &StatsSnapshot, after: &StatsSnapshot) -> f64 {
    let hits = (after.user_cache_hits + after.item_cache_hits)
        - (before.user_cache_hits + before.item_cache_hits);
    let misses = (after.user_cache_misses + after.item_cache_misses)
        - (before.user_cache_misses + before.item_cache_misses);
    hits as f64 / (hits + misses).max(1) as f64
}

/// The `serve.cache` / `serve.engine` / `serve.server` counters of a traced
/// phase, from the `Engine::stats()` snapshots taken around it (for a fleet:
/// `rrre_shard::merge_stats` of its nodes).
pub fn report_engine_counters(out: &mut Outcome, before: &StatsSnapshot, after: &StatsSnapshot) {
    let delta = |f: fn(&StatsSnapshot) -> u64| (f(after) - f(before)) as f64;
    let requests = delta(|s| s.requests).max(1.0);
    out.set("serve.cache.hit_share", hit_share(before, after));
    out.set(
        "serve.cache.entries",
        (after.user_cache_misses + after.item_cache_misses) as f64,
    );
    out.set(
        "serve.engine.mean_batch",
        requests / delta(|s| s.batches).max(1.0),
    );
    out.set(
        "serve.engine.tower_evals_per_req",
        delta(|s| s.tower_evals) / requests,
    );
    out.set("serve.engine.shed", delta(|s| s.shed));
    out.set("serve.engine.deadline_misses", delta(|s| s.deadline_misses));
    out.set(
        "serve.server.writev_batches_per_1k",
        delta(|s| s.writev_batches) * 1e3 / requests,
    );
    out.set(
        "serve.server.frames_partial_per_1k",
        delta(|s| s.frames_partial) * 1e3 / requests,
    );
}

/// What a closed loop of in-process callers observed.
pub struct CallerResult {
    pub attempted: u64,
    pub failed: u64,
    /// Latency of the ok calls by the time window they completed in.
    pub windows: Windowed,
}

/// Closed loop of `callers` threads, each calling `op(caller, k)` (its
/// `k`-th call; `true` = ok) back to back for `duration`.
pub fn closed_loop_callers(
    callers: usize,
    duration: Duration,
    windows: usize,
    op: &(dyn Fn(usize, u64) -> bool + Sync),
) -> CallerResult {
    let start = Instant::now();
    let end = start + duration;
    let window_len = duration / windows as u32;
    let per_caller: Vec<(u64, Windowed)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                scope.spawn(move || {
                    let (mut failed, mut w) = (0, Windowed::new(windows, window_len.as_secs_f64()));
                    let mut k = 0;
                    loop {
                        let t = Instant::now();
                        if t >= end {
                            break (failed, w);
                        }
                        let ok = op(c, k);
                        let now = Instant::now();
                        if !ok {
                            failed += 1;
                        } else if now <= end {
                            w.record(
                                ((now - start).as_nanos() / window_len.as_nanos().max(1)) as usize,
                                (now - t).as_nanos() as u64,
                            );
                        }
                        k += 1;
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let mut out = CallerResult {
        attempted: 0,
        failed: 0,
        windows: Windowed::new(windows, window_len.as_secs_f64()),
    };
    for (failed, w) in per_caller {
        out.failed += failed;
        out.windows.merge(&w);
    }
    // The one call per caller that straddles the end is neither.
    out.attempted = out.windows.count() + out.failed;
    out
}
