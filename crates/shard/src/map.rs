//! The consistent-hash shard map: a vnode ring derived purely from a
//! [`ShardSpec`].
//!
//! Every shard owns [`ShardSpec::vnodes`] points on a `u64` ring; an
//! entity hashes to a ring position and is owned by the shard of the first
//! vnode at or after it (wrapping). Two properties fall out of this
//! construction and are load-bearing for the serving tier:
//!
//! * **Determinism** — placement depends only on the spec's scalars and
//!   fixed domain-separated hashing (no `RandomState`, no process salt).
//!   A replica, a client and a test harness that agree on the spec agree
//!   on every owner, across processes and architectures.
//! * **Minimal disruption** — growing the topology from `n` to `n+1`
//!   shards only *adds* vnodes. A key either keeps its owner or moves to
//!   the new shard (never between old shards), and the expected moved
//!   fraction is `1/(n+1)`.
//!
//! The serving tier routes by **item** — `Recommend` scatters over the
//! item catalog, so the catalog is the partitioned axis; a pair's cached
//! towers live on the shard owning the item.

use rrre_wire::ShardSpec;

/// Domain-separation constants: ring points and item ids must never
/// collide in hash space.
const DOMAIN_RING: u64 = 0x52_49_4E_47; // "RING"
const DOMAIN_ITEM: u64 = 0x49_54_45_4D; // "ITEM"

/// SplitMix64 finalizer: cheap, strong bit mixing with no tables.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic 64-bit hash of `(seed, domain, a, b)`.
fn hash(seed: u64, domain: u64, a: u64, b: u64) -> u64 {
    mix(seed.wrapping_add(mix(domain)).wrapping_add(mix(a).rotate_left(17)).wrapping_add(mix(b).rotate_left(31)))
}

/// A materialised consistent-hash ring. Cheap to build (`shards × vnodes`
/// hashed points, sorted once) and cheap to query (one hash + one binary
/// search).
#[derive(Debug, Clone)]
pub struct ShardMap {
    spec: ShardSpec,
    /// `(ring position, shard id)`, sorted ascending; ties break on the
    /// lower shard id so inserting a *new* (higher-numbered) shard at a
    /// colliding point can never steal a key an old shard already owned
    /// at that exact position.
    ring: Vec<(u64, u32)>,
}

impl ShardMap {
    /// Builds the ring for a spec. Fails on a structurally invalid spec
    /// (zero shards or zero vnodes).
    pub fn new(spec: ShardSpec) -> Result<Self, String> {
        spec.validate()?;
        let mut ring = Vec::with_capacity(spec.shards as usize * spec.vnodes as usize);
        for shard in 0..spec.shards {
            for vnode in 0..spec.vnodes {
                ring.push((hash(spec.seed, DOMAIN_RING, u64::from(shard), u64::from(vnode)), shard));
            }
        }
        ring.sort_unstable();
        Ok(Self { spec, ring })
    }

    /// The spec this map was derived from.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The topology version (see [`ShardSpec::version`]).
    pub fn version(&self) -> u64 {
        self.spec.version
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.spec.shards
    }

    /// The shard owning item `item` — the serving tier's routing axis.
    /// Total: every item maps to exactly one shard, for any id, under any
    /// valid spec.
    pub fn shard_of_item(&self, item: u32) -> u32 {
        let point = hash(self.spec.seed, DOMAIN_ITEM, u64::from(item), 0);
        let idx = self.ring.partition_point(|&(p, _)| p < point);
        // Wrap past the last vnode back to the first.
        self.ring[if idx == self.ring.len() { 0 } else { idx }].1
    }

    /// Whether `shard` owns item `item`.
    pub fn owns_item(&self, shard: u32, item: u32) -> bool {
        self.shard_of_item(item) == shard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn map(shards: u32) -> ShardMap {
        ShardMap::new(ShardSpec::with_shards(shards)).unwrap()
    }

    #[test]
    fn invalid_specs_are_refused() {
        assert!(ShardMap::new(ShardSpec { shards: 0, ..ShardSpec::single() }).is_err());
        assert!(ShardMap::new(ShardSpec { vnodes: 0, ..ShardSpec::single() }).is_err());
    }

    #[test]
    fn single_shard_owns_everything() {
        let m = map(1);
        for id in [0u32, 1, 7, 1000, u32::MAX] {
            assert_eq!(m.shard_of_item(id), 0);
        }
    }

    #[test]
    fn same_spec_same_assignment_across_builds() {
        let (a, b) = (map(5), map(5));
        for id in 0..2000u32 {
            assert_eq!(a.shard_of_item(id), b.shard_of_item(id));
        }
    }

    /// Every routing verdict is part of the on-disk and on-wire contract:
    /// replicas, clients and artifacts that agree on a spec must keep
    /// agreeing across builds. The sum weights 100 000 owners by their id.
    #[test]
    fn item_owners_are_pinned() {
        for (shards, first, weighted) in [
            (2u32, [0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 1, 0], 2_238_813_783u64),
            (3, [2, 2, 1, 2, 2, 2, 2, 1, 0, 1, 1, 0, 2, 2, 0, 1, 0, 1, 1, 2, 2, 0, 1, 0], 4_978_073_685),
            (5, [2, 2, 3, 3, 2, 2, 2, 3, 3, 1, 4, 3, 2, 3, 0, 1, 4, 1, 1, 2, 2, 0, 3, 0], 9_837_987_819),
        ] {
            let m = map(shards);
            let owners: Vec<u32> = (0..24).map(|i| m.shard_of_item(i)).collect();
            assert_eq!(owners, first, "{shards} shards");
            let sum: u64 = (0..100_000u32).map(|i| u64::from(m.shard_of_item(i)) * u64::from(i)).sum();
            assert_eq!(sum, weighted, "{shards} shards");
        }
    }

    #[test]
    fn assignment_is_reasonably_balanced() {
        let m = map(3);
        let mut counts = [0usize; 3];
        for id in 0..6000u32 {
            counts[m.shard_of_item(id) as usize] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            // Perfect balance is 2000; vnode hashing should stay well
            // within a factor-of-two band of it.
            assert!((1000..=3200).contains(&c), "shard {s} owns {c} of 6000 items: {counts:?}");
        }
    }

    #[test]
    fn adding_a_shard_moves_only_keys_bound_for_the_new_shard() {
        const KEYS: u32 = 4000;
        let before = map(3);
        let after = map(4);
        let mut moved = 0usize;
        for id in 0..KEYS {
            let (old, new) = (before.shard_of_item(id), after.shard_of_item(id));
            if old != new {
                moved += 1;
                assert_eq!(new, 3, "item {id} moved between old shards ({old} -> {new})");
            }
        }
        // Expected moved fraction is 1/4; with 64 vnodes per shard the
        // realised fraction stays in a generous band around it.
        let frac = moved as f64 / KEYS as f64;
        assert!((0.10..=0.45).contains(&frac), "moved fraction {frac} out of band");
    }

    proptest! {
        #[test]
        fn routing_is_total_and_stable(shards in 1u32..9, seed in proptest::prelude::any::<u64>(), id in proptest::prelude::any::<u32>()) {
            let spec = ShardSpec { shards, seed, ..ShardSpec::single() };
            let a = ShardMap::new(spec).unwrap();
            let b = ShardMap::new(spec).unwrap();
            let owner = a.shard_of_item(id);
            prop_assert!(owner < shards);
            prop_assert_eq!(owner, b.shard_of_item(id));
        }
    }
}
