//! Engine-wide counters and a log-bucketed latency histogram.
//!
//! Everything is lock-free (`AtomicU64` with relaxed ordering): the stats
//! path must never contend with the serving path. Counters are monotonic
//! over the engine's lifetime; a snapshot is a consistent-enough point-in-
//! time read for operational monitoring, not a transaction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

pub use rrre_wire::StatsSnapshot;

const BUCKETS: usize = 64;

/// Power-of-two latency histogram: bucket `b` covers `[2^b, 2^(b+1))`
/// microseconds (bucket 0 is `< 2 µs`). 64 buckets cover any `u64` of
/// microseconds, so recording never saturates.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl LatencyHistogram {
    fn bucket_of(micros: u64) -> usize {
        (u64::BITS - micros.max(1).leading_zeros() - 1) as usize
    }

    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let b = Self::bucket_of(latency.as_micros() as u64);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The upper bound (in µs) of the bucket containing the `q`-quantile
    /// observation, or 0 with no observations. Resolution is a factor of
    /// two — honest enough for p50/p99 dashboards, free on the hot path.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << (b + 1);
            }
        }
        u64::MAX
    }
}

/// Counters owned by the TCP front end (the event loop), shared with the
/// engine so `Op::Stats` reports them. `open_conns` and
/// `pipelined_inflight` are gauges — incremented and decremented as
/// connections and requests come and go; the other two are monotonic.
#[derive(Default)]
pub struct FrontendStats {
    /// Connections currently open (gauge).
    pub open_conns: AtomicU64,
    /// Requests submitted by the front end and not yet answered (gauge) —
    /// the pipelining depth across every connection.
    pub pipelined_inflight: AtomicU64,
    /// `writev` calls that flushed two or more response frames in one
    /// syscall.
    pub writev_batches: AtomicU64,
    /// Read events that left an incomplete frame buffered in a
    /// connection's decoder.
    pub frames_partial: AtomicU64,
}

/// Monotonic counters for one [`crate::Engine`].
#[derive(Default)]
pub struct EngineStats {
    /// Requests that entered `process` (including ones that errored).
    pub requests: AtomicU64,
    /// Requests answered with `ok = false`.
    pub errors: AtomicU64,
    /// Batches drained from the micro-batch queue.
    pub batches: AtomicU64,
    /// Jobs across all drained batches (mean batch = `batched_jobs/batches`).
    pub batched_jobs: AtomicU64,
    /// Largest batch drained so far.
    pub max_batch: AtomicU64,
    /// Tower (UserNet/ItemNet) forward passes actually executed — cache
    /// misses. A warm cache keeps this flat while `requests` grows.
    pub tower_evals: AtomicU64,
    /// Requests dropped because their deadline passed while queued.
    pub deadline_misses: AtomicU64,
    /// Requests shed at submission because the queue (or the circuit
    /// breaker) refused them. Shed requests never enter `process`, so they
    /// are *not* counted in `requests` or `errors`.
    pub shed: AtomicU64,
    /// Hot-reload attempts (successful or not).
    pub reloads: AtomicU64,
    /// Hot-reload attempts that failed validation; the previous generation
    /// kept serving.
    pub reload_failures: AtomicU64,
    /// Worker panics caught by the supervisor (each one feeds the circuit
    /// breaker and restarts the worker loop after backoff).
    pub worker_panics: AtomicU64,
    /// Requests refused with `WrongShard` because this engine does not own
    /// the target entity (always 0 on whole-model engines).
    pub cross_shard_rejects: AtomicU64,
    /// Shard-scoped `Recommend` requests served — this engine's side of a
    /// scatter-gather fan-out (always 0 on whole-model engines).
    pub scatter_fanout: AtomicU64,
    /// Reviews durably accepted through `IngestReview` (first delivery
    /// only; duplicates count below).
    pub ingested: AtomicU64,
    /// `IngestReview` deliveries whose sequence id was already accepted —
    /// re-acked without re-applying.
    pub ingest_duplicates: AtomicU64,
    /// Bytes appended to (or recovered from) the write-ahead log.
    pub wal_bytes: AtomicU64,
    /// Incremental tower refreshes published (no generation swap).
    pub refreshes: AtomicU64,
    /// WAL compactions folded into a new artifact generation.
    pub compactions: AtomicU64,
    /// Torn WAL tails truncated during recovery. Mid-log corruption is
    /// *not* counted — it fails closed instead of recovering.
    pub wal_recoveries: AtomicU64,
    /// Requests refused with `StaleEpoch` — fenced stale-leader traffic.
    pub stale_epoch_rejections: AtomicU64,
    /// Enqueue-to-reply latency of every request.
    pub latency: LatencyHistogram,
}

impl EngineStats {
    /// Records a drained batch of `n` jobs.
    pub fn record_batch(&self, n: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_jobs.fetch_add(n as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(n as u64, Ordering::Relaxed);
    }

    /// Point-in-time snapshot including the cache counters, which live on
    /// the caches themselves. `draining` comes from the engine's shutdown
    /// flag; readiness is derived — not draining and breaker closed.
    pub fn snapshot(
        &self,
        generation: &crate::Generation,
        breaker_open: bool,
        draining: bool,
        shard_id: Option<u32>,
        frontend: &FrontendStats,
    ) -> StatsSnapshot {
        let requests = self.requests.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let batched_jobs = self.batched_jobs.load(Ordering::Relaxed);
        let (user_cache, item_cache) = (&generation.user_cache, &generation.item_cache);
        let (uh, um) = (user_cache.hits(), user_cache.misses());
        let (ih, im) = (item_cache.hits(), item_cache.misses());
        let lookups = uh + um + ih + im;
        StatsSnapshot {
            requests,
            errors: self.errors.load(Ordering::Relaxed),
            batches,
            mean_batch: if batches == 0 { 0.0 } else { batched_jobs as f64 / batches as f64 },
            max_batch: self.max_batch.load(Ordering::Relaxed),
            user_cache_hits: uh,
            user_cache_misses: um,
            item_cache_hits: ih,
            item_cache_misses: im,
            cache_hit_rate: if lookups == 0 { 0.0 } else { (uh + ih) as f64 / lookups as f64 },
            tower_evals: self.tower_evals.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            reload_failures: self.reload_failures.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            generation: generation.id,
            breaker_open,
            draining,
            ready: !draining && !breaker_open,
            p50_latency_us: self.latency.quantile_micros(0.50),
            p99_latency_us: self.latency.quantile_micros(0.99),
            shard_id,
            cross_shard_rejects: self.cross_shard_rejects.load(Ordering::Relaxed),
            scatter_fanout: self.scatter_fanout.load(Ordering::Relaxed),
            ingested: self.ingested.load(Ordering::Relaxed),
            ingest_duplicates: self.ingest_duplicates.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            refreshes: self.refreshes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            wal_recoveries: self.wal_recoveries.load(Ordering::Relaxed),
            // The replication gauges live on the replication state; the
            // engine fills them in when it is replicated.
            epoch: 0,
            replicated_seq: 0,
            replication_lag: 0,
            stale_epoch_rejections: self.stale_epoch_rejections.load(Ordering::Relaxed),
            // Engines never degrade on their own — they either own the
            // entity or refuse; the scatter-gather client fills this in
            // merged snapshots.
            degraded_responses: 0,
            open_conns: frontend.open_conns.load(Ordering::Relaxed),
            pipelined_inflight: frontend.pipelined_inflight.load(Ordering::Relaxed),
            writev_batches: frontend.writev_batches.load(Ordering::Relaxed),
            frames_partial: frontend.frames_partial.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(1000));
        h.record(Duration::from_micros(1001));
        assert_eq!(h.count(), 3);
        // Two of three observations sit in the ~1ms bucket, so p99 lands
        // there: upper bound 2^10 = 1024 µs.
        assert_eq!(h.quantile_micros(0.99), 1024);
        assert!(h.quantile_micros(0.01) <= 2);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(LatencyHistogram::default().quantile_micros(0.5), 0);
    }

    #[test]
    fn batch_accounting() {
        let s = EngineStats::default();
        s.record_batch(3);
        s.record_batch(5);
        assert_eq!(s.batches.load(Ordering::Relaxed), 2);
        assert_eq!(s.batched_jobs.load(Ordering::Relaxed), 8);
        assert_eq!(s.max_batch.load(Ordering::Relaxed), 5);
    }
}
