//! Allocation budget of a training step. Each training thread records its
//! shards on one tape, kept across the steps of an epoch, and a tape reset
//! for the next shard keeps every value and adjoint buffer, so once a tape
//! is warm a shard allocates only what the model's forward definition
//! itself builds (its input lists, the stacked review matrices), about two
//! allocations per example. This
//! binary counts every heap allocation the process makes (one test only, so
//! no other test thread allocates while it counts) across the second epoch
//! of a fit at the bench model's shapes (k = 64, s_u = 11, s_i = 12), and
//! pins the count per example, so a per-op allocation creeping back onto
//! the tape fails here. The count includes the epoch's one warm-up of its
//! tape and shards, spread over the epoch's examples: most of the count.
//! The workspace `cargo test` runs it; it needs no step of its own.

use rrre_core::{Rrre, RrreConfig};
use rrre_testkit::FixtureSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter has no
// effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations a warmed-up example may make.
const PER_EXAMPLE: usize = 10;

#[test]
fn a_warm_training_example_stays_within_its_allocation_budget() {
    let spec = FixtureSpec::small();
    let (ds, corpus) = spec.corpus();
    let train: Vec<usize> = (0..ds.len()).collect();
    let cfg = RrreConfig { epochs: 2, seed: spec.seed, threads: 1, ..RrreConfig::default() };
    assert_eq!((cfg.k, cfg.s_u, cfg.s_i), (64, 11, 12), "the bench model's shapes");

    // Allocation counter at the end of each epoch; the second epoch runs on
    // the tapes and shards the first one warmed up.
    let mut marks = Vec::new();
    Rrre::fit_with_hook(&ds, &corpus, &train, cfg, |_, _| marks.push(ALLOCATIONS.load(Ordering::Relaxed)));
    let per_example = (marks[1] - marks[0]) as f64 / train.len() as f64;
    assert!(
        per_example <= PER_EXAMPLE as f64,
        "{per_example:.1} allocations per example in a warm epoch of {} (≤ {PER_EXAMPLE})",
        train.len()
    );
}
