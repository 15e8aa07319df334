//! Sharded, lock-striped caches of tower representations.
//!
//! RRRE's UserNet/ItemNet outputs are *pair*-dependent — the fraud
//! attention conditions on both the user's and the item's ID embedding
//! (paper Eq. 5) — so entries are keyed by the `(user, item)` pair, not by
//! the entity alone. Shard selection, however, uses only the cache's
//! *axis* (the user id for the UserNet cache, the item id for the ItemNet
//! cache), so one entity's entries share one lock.
//!
//! **An entry lives exactly as long as its generation.** A tower's output
//! depends only on the weights, the pair's ids and each side's latest
//! reviews, and none of those change inside a generation: a review reaches
//! the towers only through a refresh, reload or compaction, each of which
//! publishes a new [`crate::Generation`] with empty caches. So nothing is
//! ever removed from a cache; the whole cache is dropped with the
//! generation that owns it.
//!
//! Misses compute under the shard lock. That serialises concurrent misses
//! *within* a shard (no duplicated tower evaluations, which keeps the
//! `tower_evals` counter an exact measure of encoder-side work) while
//! leaving the other shards fully concurrent — lock striping doing its job.

use rrre_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Which entity id shards a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheAxis {
    /// Sharded by the *user* id (UserNet cache).
    User,
    /// Sharded by the *item* id (ItemNet cache).
    Item,
}

/// A pair-keyed cache of `[1, id_dim]` tower representations.
pub struct TowerCache {
    axis: CacheAxis,
    shards: Vec<Mutex<HashMap<u64, Tensor>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

fn pair_key(user: u32, item: u32) -> u64 {
    (u64::from(user) << 32) | u64::from(item)
}

impl TowerCache {
    /// Creates an empty cache with `shards` independent lock stripes.
    pub fn new(axis: CacheAxis, shards: usize) -> Self {
        assert!(shards > 0, "TowerCache: need at least one shard");
        Self {
            axis,
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn entity(&self, user: u32, item: u32) -> u32 {
        match self.axis {
            CacheAxis::User => user,
            CacheAxis::Item => item,
        }
    }

    fn shard_index(&self, entity: u32) -> usize {
        // Fibonacci multiplicative spread so consecutive ids don't pile
        // into consecutive shards.
        (entity.wrapping_mul(0x9E37_79B1) as usize) % self.shards.len()
    }

    /// The cached representation for the pair, computing and storing it on
    /// a miss. `compute` runs under the pair's shard lock, so each pair is
    /// evaluated at most once per cache.
    pub fn get_or_compute(
        &self,
        user: u32,
        item: u32,
        compute: impl FnOnce() -> Tensor,
    ) -> Tensor {
        let shard = &self.shards[self.shard_index(self.entity(user, item))];
        let mut map = shard.lock().unwrap_or_else(|e| e.into_inner());
        match map.get(&pair_key(user, item)) {
            Some(t) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                t.clone()
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let t = compute();
                map.insert(pair_key(user, item), t.clone());
                t
            }
        }
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: f32) -> Tensor {
        Tensor::from_vec(1, 1, vec![v])
    }

    #[test]
    fn hit_after_miss_and_counters() {
        let cache = TowerCache::new(CacheAxis::User, 4);
        let a = cache.get_or_compute(1, 2, || t(7.0));
        let b = cache.get_or_compute(1, 2, || panic!("must be cached"));
        assert_eq!(a.item(), b.item());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn pairs_are_distinct_entries() {
        let cache = TowerCache::new(CacheAxis::User, 4);
        cache.get_or_compute(1, 2, || t(1.0));
        cache.get_or_compute(1, 3, || t(2.0));
        assert_eq!(cache.get_or_compute(1, 3, || unreachable!()).item(), 2.0);
        assert_eq!(cache.get_or_compute(1, 2, || unreachable!()).item(), 1.0);
        assert_eq!(cache.misses(), 2);
    }
}
