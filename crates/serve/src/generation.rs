//! What one generation serves, and how the next one replaces it.
//!
//! **Generations.** The serving state — artifact plus its tower caches —
//! lives in an `Arc<Generation>` behind an `RwLock`. Workers take the read
//! lock only long enough to clone the `Arc`, so a hot reload validates the
//! *next* generation off to the side, then swaps the pointer: in-flight
//! requests finish on the generation they started on.
//!
//! **The scoring seam.** `predict_pair` is the one per-pair scorer:
//! towers through the generation's caches, heads recomputed, reliability
//! gated by the cold-start prior. `Predict` is that scorer; `Recommend` and
//! `Explain` are validation plus one call into [`rrre_core::recommend_with`]
//! / [`rrre_core::explain_with`] with it, over the shard's owned item slice
//! and the model's review index, so the ranking procedure is core's by
//! construction. The scorer reproduces `Rrre::predict` bit for bit:
//! `infer_user_tower` / `infer_item_tower` / `infer_heads` are the model's
//! one forward definition, which training runs on the tape, split into
//! towers and heads on the value evaluator (`tests/parity_oracle.rs` holds
//! it to that), so with the prior off every answer equals a direct
//! `rrre_core` call.

use crate::artifact::ModelArtifact;
use crate::cache::{CacheAxis, TowerCache};
use crate::engine::EngineConfig;
use crate::stats::EngineStats;
use rrre_core::{ColdStartPrior, Prediction};
use rrre_data::{ItemId, UserId};
use rrre_shard::ShardMap;
use rrre_wire::Response;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One immutable serving state: an artifact and the tower caches built
/// against it. Swapped wholesale on reload — caches never outlive the
/// weights they were computed from.
pub struct Generation {
    /// Monotonic generation number (the first load is generation 1).
    pub id: u64,
    /// The artifact this generation serves.
    pub artifact: ModelArtifact,
    /// The consistent-hash map built from the manifest's shard spec. Kept
    /// on the generation so the map version swaps atomically with the
    /// weights on reload — ownership decisions and the data they are made
    /// over can never disagree.
    pub shard_map: ShardMap,
    /// The calibrated cold-start reliability prior, when the engine was
    /// opened with [`crate::IngestConfig::cold_start_min`] `> 0`. Thin pairs
    /// get its reliability instead of the head score.
    pub prior: Option<ColdStartPrior>,
    pub(crate) user_cache: TowerCache,
    pub(crate) item_cache: TowerCache,
}

/// How an engine builds each of its generations; fixed for its lifetime.
struct Recipe {
    cache_shards: usize,
    cold_start_min: usize,
}

impl Recipe {
    /// A generation over `artifact` with empty tower caches and, when
    /// `cold_start_min > 0`, the prior calibrated on the artifact's dataset.
    /// The one place a [`Generation`] is built.
    fn generation(&self, id: u64, artifact: ModelArtifact, shard_map: ShardMap) -> Arc<Generation> {
        let prior = (self.cold_start_min > 0)
            .then(|| ColdStartPrior::calibrate(&artifact.dataset, self.cold_start_min));
        Arc::new(Generation {
            id,
            artifact,
            shard_map,
            prior,
            user_cache: TowerCache::new(CacheAxis::User, self.cache_shards),
            item_cache: TowerCache::new(CacheAxis::Item, self.cache_shards),
        })
    }
}

/// The serving pointer and what every generation behind it is built with.
pub(crate) struct Serving {
    current: RwLock<Arc<Generation>>,
    next_id: AtomicU64,
    recipe: Recipe,
    shard_id: Option<u32>,
}

impl Serving {
    /// Serves `artifact` as generation 1; panics if `cfg.shard_id` is not
    /// one of the valid shard spec's shards.
    pub(crate) fn new(artifact: ModelArtifact, cfg: &EngineConfig, cold_start_min: usize) -> Self {
        let shard_map = ShardMap::new(artifact.manifest.shard_spec)
            .expect("Engine: artifact manifest carries an invalid shard spec");
        if let Some(shard) = cfg.shard_id {
            assert!(
                shard < shard_map.shards(),
                "Engine: shard_id {shard} out of range (artifact declares {} shards)",
                shard_map.shards()
            );
        }
        let recipe = Recipe { cache_shards: cfg.cache_shards, cold_start_min };
        Self {
            current: RwLock::new(recipe.generation(1, artifact, shard_map)),
            next_id: AtomicU64::new(2),
            recipe,
            shard_id: cfg.shard_id,
        }
    }

    /// Clones the current generation pointer (the only read-lock hold).
    pub(crate) fn current(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Swaps the serving pointer to `generation`.
    pub(crate) fn publish(&self, generation: Arc<Generation>) {
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = generation;
    }

    /// `base` with its artifact replaced by `artifact`, under the *same* id
    /// and shard map: a refresh updates towers in place, it is not a
    /// generation swap — clients see no reload. The caches start empty, as
    /// every generation's do: the touched entities' towers changed, and a
    /// cache *shared* with the old generation could be repopulated with
    /// stale towers by in-flight jobs still pinned to it. Untouched entries
    /// recompute to bit-identical values on their next request.
    pub(crate) fn refreshed(&self, base: &Generation, artifact: ModelArtifact) -> Arc<Generation> {
        self.recipe.generation(base.id, artifact, base.shard_map.clone())
    }

    /// Loads and validates the next generation from the current one's
    /// directory, hands it to `publish` and returns its id. Every attempt
    /// counts in `reloads`, every refusal in `reload_failures`.
    pub(crate) fn reload(
        &self,
        stats: &EngineStats,
        publish: impl FnOnce(Arc<Generation>),
    ) -> Result<u64, String> {
        stats.reloads.fetch_add(1, Ordering::Relaxed);
        let current = self.current();
        let (dir, current_id) = (&current.artifact.source_dir, current.id);
        let refused = |why: String| {
            stats.reload_failures.fetch_add(1, Ordering::Relaxed);
            format!("reload from {} {why}; generation {current_id} keeps serving", dir.display())
        };
        // Full validation first: `ModelArtifact::load` verifies every
        // checksum and cross-check before we ever touch the serving pointer.
        let artifact = ModelArtifact::load(dir).map_err(|e| refused(format!("failed ({e})")))?;
        // The reloaded manifest may carry a *new* shard spec (topology
        // change shipped with the weights); this engine must still be a
        // member of it, or the old generation keeps serving.
        let shard_map = ShardMap::new(artifact.manifest.shard_spec)
            .map_err(|e| refused(format!("failed (bad shard spec: {e})")))?;
        if let Some(shard) = self.shard_id.filter(|&s| s >= shard_map.shards()) {
            return Err(refused(format!(
                "failed (this engine serves shard {shard} but the new manifest declares only {} \
                 shards)",
                shard_map.shards()
            )));
        }
        // The map version is the fleet's topology clock: clients and the
        // scatter-gather tier treat a higher version as newer, so a manifest
        // whose version goes *backwards* (a stale artifact restored over a
        // newer one) must never start serving — it would make every current
        // client look "from the future".
        let serving_version = current.shard_map.version();
        if shard_map.version() < serving_version {
            return Err(refused(format!(
                "refused: manifest shard-map version {} is behind the serving version \
                 {serving_version} (topology versions must never roll backwards)",
                shard_map.version()
            )));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        publish(self.recipe.generation(id, artifact, shard_map));
        Ok(id)
    }

    /// Ownership gate for shard-scoped engines: the structured `WrongShard`
    /// refusal (owner + map version, so a stale client can tell a misroute
    /// from a topology change) when `item` belongs to another shard, `None`
    /// when this engine owns it. Whole-model engines (`shard_id: None`) own
    /// everything.
    pub(crate) fn check_owned(
        &self,
        stats: &EngineStats,
        generation: &Generation,
        id: Option<u64>,
        item: u32,
    ) -> Option<Response> {
        let shard = self.shard_id?;
        let owner = generation.shard_map.shard_of_item(item);
        (owner != shard).then(|| {
            stats.cross_shard_rejects.fetch_add(1, Ordering::Relaxed);
            Response::wrong_shard(id, owner, generation.shard_map.version())
        })
    }

    /// Stamps an answer with `generation`'s id and, on a scoped engine, the
    /// shard and the map version it routed under, so gather sides and
    /// debugging humans can always tell which slice produced what.
    pub(crate) fn stamp(&self, generation: &Generation, mut response: Response) -> Response {
        response.generation = Some(generation.id);
        if let Some(shard) = self.shard_id {
            response.shard = Some(shard);
            response.map_version = Some(generation.shard_map.version());
        }
        response
    }
}

/// The cached frozen prediction: tower representations through the
/// generation's caches, heads recomputed (they depend on nothing cacheable
/// but the pair).
pub(crate) fn predict_pair(
    stats: &EngineStats,
    generation: &Generation,
    user: u32,
    item: u32,
) -> Prediction {
    let model = &generation.artifact.model;
    let (u, i) = (UserId(user), ItemId(item));
    let x_u = generation.user_cache.get_or_compute(user, item, || {
        stats.tower_evals.fetch_add(1, Ordering::Relaxed);
        model.infer_user_tower(u, i)
    });
    let y_i = generation.item_cache.get_or_compute(user, item, || {
        stats.tower_evals.fetch_add(1, Ordering::Relaxed);
        model.infer_item_tower(u, i)
    });
    let pred = model.infer_heads(u, i, &x_u, &y_i);
    match generation.prior {
        // Thin pairs (either side below the evidence threshold) get the
        // calibrated cold-start reliability instead of a head score the
        // model had almost no reviews to ground; the rating passes
        // through. Degrees come from the model's live index, which the
        // incremental refresh keeps current.
        Some(prior) => {
            let index = model.index();
            prior.gate(pred, index.user_degree(u), index.item_degree(i))
        }
        None => pred,
    }
}
