//! # rrre-shard
//!
//! The sharded serving tier's routing brain: a versioned consistent-hash
//! shard map, replica-set topologies, and the scatter-gather planner the
//! resilient client uses to answer ranking queries across shards.
//!
//! Three layers, bottom to top:
//!
//! * [`map`] — [`ShardMap`]: a vnode hash ring derived *purely* from the
//!   four scalars of [`rrre_wire::ShardSpec`]. The map is never shipped as
//!   an assignment table; every process that holds the same spec computes
//!   the same owner for every entity, bit-for-bit. Adding a shard moves
//!   only ~`1/(n+1)` of the keys, and every moved key moves *to* the new
//!   shard — the consistent-hashing contract the remap tests pin.
//! * [`topology`] — [`ShardTopology`]: the deployment-side companion of a
//!   spec: which replica endpoints serve each shard. Carried in a JSON
//!   file handed to clients (`--shard-map`), validated against the spec.
//! * [`plan`] — [`RoutePlan`] and the deterministic gather-side merges:
//!   where each protocol op must go (point lookup by owning shard,
//!   scatter for ranking, broadcast for reload/compaction), and how to
//!   fold per-shard answers back into one response. `Recommend` rows are
//!   re-ranked by the engine's own ordering function
//!   (`rrre_core::rank_by_key`), so a scatter-gather deployment is
//!   bit-identical to a single node holding the whole model.

#![warn(missing_docs)]

pub mod map;
pub mod plan;
pub mod topology;

pub use map::ShardMap;
pub use plan::{merge_health, merge_recommendations, merge_stats, RoutePlan};
pub use rrre_wire::ShardSpec;
pub use topology::ShardTopology;
