//! Scatter-gather planning: where each protocol op must be sent, and how
//! per-shard answers fold back into a single response.
//!
//! The merge functions are the gather half of the parity oracle: a
//! scatter-gathered `Recommend` must be **bit-identical** to a single node
//! holding the whole model. That holds because the global two-stage top-k
//! is contained in the union of per-shard two-stage top-ks (stage one
//! keeps the k highest ratings per shard, and the global k highest ratings
//! are each the highest *somewhere*), so running the engine's ordering
//! function ([`rank_by_key`]) over the union recovers the single-node
//! answer, ties and all.

use rrre_wire::{rank_by_key, HealthDto, Op, Prediction, RecommendationDto, Request, StatsSnapshot};

use crate::map::ShardMap;

/// Where a request must be routed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutePlan {
    /// Point lookup: exactly one shard owns the answer.
    Shard(u32),
    /// Fan out to every shard and merge the partial answers.
    Scatter,
    /// Fan out to every shard; each side effect must land everywhere, and
    /// the gathered response is a fold of the acks.
    Broadcast,
    /// Any single replica can answer (or the server will reject it with a
    /// structured error that one replica is enough to produce).
    Any,
}

/// Plans a request against a shard map.
///
/// Ownership follows the **item** domain: `Predict` and `Explain` go to
/// the shard owning `item`; `Recommend` scatters because ranking scans the
/// (partitioned) item catalog. `Invalidate` goes to the owning shard when
/// an item is named, and broadcasts for a user-only eviction since every
/// shard may cache that user's tower. Requests missing the fields routing
/// would need plan as [`RoutePlan::Any`] — the server's own validation
/// produces the structured `BadRequest`, and it does so identically on
/// every shard.
pub fn plan(map: &ShardMap, req: &Request) -> RoutePlan {
    match req.op {
        Op::Predict | Op::Explain => match req.item {
            Some(item) => RoutePlan::Shard(map.shard_of_item(item)),
            None => RoutePlan::Any,
        },
        Op::Recommend => RoutePlan::Scatter,
        Op::Stats | Op::Health => RoutePlan::Scatter,
        Op::Invalidate => match (req.user, req.item) {
            (_, Some(item)) => RoutePlan::Shard(map.shard_of_item(item)),
            (Some(_), None) => RoutePlan::Broadcast,
            (None, None) => RoutePlan::Any,
        },
        Op::Reload => RoutePlan::Broadcast,
        Op::Crash => RoutePlan::Any,
        // Ingest follows item ownership like the other item-scoped ops: the
        // review must land on the shard whose slice serves (and re-encodes)
        // the item's tower. Compaction is a per-replica side effect like
        // Reload, folding each shard's own WAL.
        Op::IngestReview => match req.item {
            Some(item) => RoutePlan::Shard(map.shard_of_item(item)),
            None => RoutePlan::Any,
        },
        Op::Compact => RoutePlan::Broadcast,
        // Replication traffic addresses one specific replica (a follower
        // being shipped to, the leader being fetched from, the replica
        // being promoted) — it is never scatter-gathered across shards.
        Op::Replicate | Op::FetchWal | Op::Promote => RoutePlan::Any,
    }
}

/// Merges per-shard recommendation rows into the global top-`k` by running
/// the engine's own two-stage ordering ([`rank_by_key`], keyed by item id)
/// over the union, so the merged list is bit-identical to ranking the
/// whole catalog on one node.
pub fn merge_recommendations(mut rows: Vec<RecommendationDto>, k: usize) -> Vec<RecommendationDto> {
    rank_by_key(&mut rows, k, |r| {
        (Prediction { rating: r.rating, reliability: r.reliability }, r.item)
    });
    rows
}

/// Folds per-shard stats snapshots into one fleet-level snapshot.
///
/// Monotonic counters sum; `mean_batch` is re-derived from the summed
/// totals; `cache_hit_rate` is recomputed from the summed hit/miss
/// counters; boolean health bits fold pessimistically (`ready` only if
/// every shard is ready, `breaker_open`/`draining` if any shard is);
/// `generation` is the minimum so a rolling reload reads as "fleet still
/// partially on the old generation". `shard_id` is cleared — the merged
/// snapshot speaks for the whole fleet.
pub fn merge_stats(parts: &[StatsSnapshot]) -> StatsSnapshot {
    let mut out = StatsSnapshot::default();
    if parts.is_empty() {
        return out;
    }
    let mut weighted_batch = 0.0f64;
    out.generation = u64::MAX;
    out.ready = true;
    for p in parts {
        out.requests += p.requests;
        out.errors += p.errors;
        out.batches += p.batches;
        weighted_batch += p.mean_batch * p.batches as f64;
        out.max_batch = out.max_batch.max(p.max_batch);
        out.user_cache_hits += p.user_cache_hits;
        out.user_cache_misses += p.user_cache_misses;
        out.item_cache_hits += p.item_cache_hits;
        out.item_cache_misses += p.item_cache_misses;
        out.tower_evals += p.tower_evals;
        out.deadline_misses += p.deadline_misses;
        out.shed += p.shed;
        out.reloads += p.reloads;
        out.reload_failures += p.reload_failures;
        out.worker_panics += p.worker_panics;
        out.generation = out.generation.min(p.generation);
        out.breaker_open |= p.breaker_open;
        out.draining |= p.draining;
        out.ready &= p.ready;
        out.p50_latency_us = out.p50_latency_us.max(p.p50_latency_us);
        out.p99_latency_us = out.p99_latency_us.max(p.p99_latency_us);
        out.cross_shard_rejects += p.cross_shard_rejects;
        out.scatter_fanout += p.scatter_fanout;
        out.ingested += p.ingested;
        out.ingest_duplicates += p.ingest_duplicates;
        out.wal_bytes += p.wal_bytes;
        out.refreshes += p.refreshes;
        out.compactions += p.compactions;
        out.wal_recoveries += p.wal_recoveries;
        // Terms are per-shard clocks: the max is "the newest term anywhere
        // in the fleet". Watermarks and lags sum like the other gauges.
        out.epoch = out.epoch.max(p.epoch);
        out.replicated_seq += p.replicated_seq;
        out.replication_lag += p.replication_lag;
        out.stale_epoch_rejections += p.stale_epoch_rejections;
        out.degraded_responses += p.degraded_responses;
        out.open_conns += p.open_conns;
        out.pipelined_inflight += p.pipelined_inflight;
        out.writev_batches += p.writev_batches;
        out.frames_partial += p.frames_partial;
    }
    if out.batches > 0 {
        out.mean_batch = weighted_batch / out.batches as f64;
    }
    let hits = out.user_cache_hits + out.item_cache_hits;
    let total = hits + out.user_cache_misses + out.item_cache_misses;
    if total > 0 {
        out.cache_hit_rate = hits as f64 / total as f64;
    }
    out.shard_id = None;
    out
}

/// Folds per-shard health probes: the fleet is live/ready only when every
/// probed shard is, degraded bits propagate if any shard shows them, and
/// the generation is the minimum observed (rolling-reload semantics, as in
/// [`merge_stats`]).
pub fn merge_health(parts: &[HealthDto]) -> HealthDto {
    let mut out = HealthDto {
        live: !parts.is_empty(),
        ready: !parts.is_empty(),
        draining: false,
        breaker_open: false,
        generation: if parts.is_empty() { 0 } else { u64::MAX },
    };
    for p in parts {
        out.live &= p.live;
        out.ready &= p.ready;
        out.draining |= p.draining;
        out.breaker_open |= p.breaker_open;
        out.generation = out.generation.min(p.generation);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrre_wire::ShardSpec;

    fn map3() -> ShardMap {
        ShardMap::new(ShardSpec::with_shards(3)).unwrap()
    }

    fn req(op: Op, user: Option<u32>, item: Option<u32>) -> Request {
        let mut r = Request::invalidate(user, item);
        r.op = op;
        r
    }

    fn row(item: u32, rating: f32, reliability: f32) -> RecommendationDto {
        RecommendationDto { item, item_name: format!("item-{item}"), rating, reliability }
    }

    #[test]
    fn point_ops_route_to_item_owner() {
        let m = map3();
        for item in [0u32, 11, 4242] {
            let owner = m.shard_of_item(item);
            assert_eq!(plan(&m, &req(Op::Predict, Some(1), Some(item))), RoutePlan::Shard(owner));
            assert_eq!(plan(&m, &req(Op::Explain, None, Some(item))), RoutePlan::Shard(owner));
            assert_eq!(plan(&m, &req(Op::Invalidate, None, Some(item))), RoutePlan::Shard(owner));
        }
    }

    #[test]
    fn ranking_scatters_and_user_eviction_broadcasts() {
        let m = map3();
        assert_eq!(plan(&m, &req(Op::Recommend, Some(1), None)), RoutePlan::Scatter);
        assert_eq!(plan(&m, &req(Op::Stats, None, None)), RoutePlan::Scatter);
        assert_eq!(plan(&m, &req(Op::Invalidate, Some(7), None)), RoutePlan::Broadcast);
        assert_eq!(plan(&m, &req(Op::Reload, None, None)), RoutePlan::Broadcast);
    }

    #[test]
    fn ingest_routes_to_item_owner_and_compact_broadcasts() {
        let m = map3();
        let r = Request::ingest_review(1, 2, 77, 4.5, "solid", 1000);
        assert_eq!(plan(&m, &r), RoutePlan::Shard(m.shard_of_item(77)));
        assert_eq!(plan(&m, &req(Op::IngestReview, Some(2), None)), RoutePlan::Any);
        assert_eq!(plan(&m, &Request::compact()), RoutePlan::Broadcast);
    }

    #[test]
    fn malformed_requests_plan_as_any() {
        let m = map3();
        assert_eq!(plan(&m, &req(Op::Predict, Some(1), None)), RoutePlan::Any);
        assert_eq!(plan(&m, &req(Op::Invalidate, None, None)), RoutePlan::Any);
    }

    #[test]
    fn merge_reranks_with_the_two_stage_tie_break() {
        // Stage one keeps the 3 best ratings (items 5, 2, 9); stage two
        // presents them by reliability. Item 7 has the best reliability but
        // loses at stage one.
        let rows = vec![
            row(7, 1.0, 0.99),
            row(5, 4.0, 0.10),
            row(2, 3.5, 0.80),
            row(9, 3.0, 0.50),
        ];
        let merged = merge_recommendations(rows, 3);
        let items: Vec<u32> = merged.iter().map(|r| r.item).collect();
        assert_eq!(items, vec![2, 9, 5]);
    }

    #[test]
    fn merge_breaks_rating_ties_on_lower_item_id() {
        let rows = vec![row(30, 2.0, 0.5), row(10, 2.0, 0.5), row(20, 2.0, 0.5)];
        let merged = merge_recommendations(rows, 2);
        let items: Vec<u32> = merged.iter().map(|r| r.item).collect();
        assert_eq!(items, vec![10, 20]);
    }

    #[test]
    fn merged_stats_sum_counters_and_fold_health_bits() {
        let mut a = StatsSnapshot { requests: 10, errors: 1, batches: 2, mean_batch: 2.0, ..StatsSnapshot::default() };
        a.user_cache_hits = 6;
        a.user_cache_misses = 2;
        a.ready = true;
        a.generation = 3;
        a.shard_id = Some(0);
        let mut b = StatsSnapshot { requests: 5, batches: 3, mean_batch: 1.0, ..StatsSnapshot::default() };
        b.item_cache_hits = 2;
        b.ready = true;
        b.draining = true;
        b.generation = 2;
        b.shard_id = Some(1);
        b.cross_shard_rejects = 4;

        let m = merge_stats(&[a, b]);
        assert_eq!(m.requests, 15);
        assert_eq!(m.errors, 1);
        assert_eq!(m.batches, 5);
        assert!((m.mean_batch - 1.4).abs() < 1e-9);
        assert!((m.cache_hit_rate - 0.8).abs() < 1e-9);
        assert_eq!(m.generation, 2);
        assert!(m.ready && m.draining && !m.breaker_open);
        assert_eq!(m.cross_shard_rejects, 4);
        assert_eq!(m.shard_id, None);
    }

    #[test]
    fn merged_health_is_pessimistic() {
        let healthy = HealthDto { live: true, ready: true, draining: false, breaker_open: false, generation: 4 };
        let ailing = HealthDto { live: true, ready: false, draining: false, breaker_open: true, generation: 3 };
        let m = merge_health(&[healthy, ailing]);
        assert!(m.live && !m.ready && m.breaker_open);
        assert_eq!(m.generation, 3);
        assert!(!merge_health(&[]).live);
    }
}
