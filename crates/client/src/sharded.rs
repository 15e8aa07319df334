//! Scatter-gather front end over a sharded deployment.
//!
//! A [`ShardedClient`] owns one resilient [`Client`] per shard (each with
//! the full retry/hedge/breaker/probe machinery scoped to that shard's
//! replica set) and a [`ShardMap`] built from the deployment's
//! [`ShardTopology`]. Requests route by plan:
//!
//! * **point lookups** (`Predict`, `Explain`, `IngestReview`) go straight
//!   to the owning shard's client;
//! * **`Recommend`** scatters to every shard in parallel — each shard
//!   scores only the catalog slice it owns — and the partial top-k lists
//!   are gathered and re-ranked by the engine's own ordering function
//!   (`rrre_core::rank_by_key`, through [`merge_recommendations`]), so the
//!   merged answer is bit-identical to a single node holding the whole
//!   model;
//! * **`Stats`/`Health`** scatter and fold into one fleet-level snapshot;
//! * **`Reload` and `Compact`** broadcast, since every shard holds state
//!   the side effect must reach.
//!
//! **Deadline split.** A scatter shares *one* caller budget
//! ([`ClientConfig::request_timeout`]): the overall deadline is fixed
//! up front and every per-shard sub-request runs under
//! [`Client::request_with_deadline`], whose retries spend down the
//! *remaining* budget. The per-shard arms run in parallel, so a slow shard
//! can exhaust only its own slice of the budget — never another shard's
//! time, and never more than the caller's total.
//!
//! **Degraded answers.** If a shard's replica set is entirely unavailable,
//! the gather returns what the surviving shards produced, flagged
//! `degraded: true` with the missing shard ids — the exact answer to the
//! sub-universe that was reachable, incomplete but never wrong. Callers
//! that need completeness can retry; callers that need availability can
//! render the partial list.

use crate::{Client, ClientConfig, ClientError, ClientSnapshot, ErrorClass};
use rrre_shard::plan::{merge_health, merge_recommendations, merge_stats, plan, RoutePlan};
use rrre_shard::{ShardMap, ShardTopology};
use rrre_wire::{CompactionDto, ErrorKind, HealthDto, Op, Request, Response};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counters a [`ShardedClient`] keeps on top of its per-shard clients.
#[derive(Debug, Clone)]
pub struct ShardedSnapshot {
    /// Logical requests submitted.
    pub requests: u64,
    /// Scatter fan-outs fired (sub-requests actually sent, summed over
    /// scattered and broadcast ops).
    pub scatter_fanout: u64,
    /// Gathered answers that came back partial (≥ 1 shard missing).
    pub degraded_responses: u64,
    /// Per-shard client snapshots, indexed by shard id.
    pub shards: Vec<ClientSnapshot>,
}

/// A shard-routing, scatter-gathering client over one deployment topology.
pub struct ShardedClient {
    map: ShardMap,
    clients: Vec<Client>,
    requests: AtomicU64,
    scatter_fanout: AtomicU64,
    degraded_responses: AtomicU64,
}

impl ShardedClient {
    /// Builds one [`Client`] per shard from a validated topology. Each
    /// shard's client gets a decorrelated RNG seed (`cfg.seed` mixed with
    /// the shard id) so backoff schedules don't synchronise across shards
    /// into fleet-wide retry storms.
    pub fn new(topology: ShardTopology, cfg: ClientConfig) -> Result<Self, String> {
        topology.validate()?;
        let map = ShardMap::new(topology.spec)?;
        let clients = topology
            .replicas
            .iter()
            .enumerate()
            .map(|(shard, addrs)| {
                let mut shard_cfg = cfg.clone();
                shard_cfg.seed = cfg.seed.rotate_left(17)
                    ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64 + 1);
                Client::new(addrs.clone(), shard_cfg)
            })
            .collect();
        Ok(Self {
            map,
            clients,
            requests: AtomicU64::new(0),
            scatter_fanout: AtomicU64::new(0),
            degraded_responses: AtomicU64::new(0),
        })
    }

    /// The shard map this client routes with.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Direct access to one shard's client (testing and tooling).
    pub fn shard_client(&self, shard: u32) -> &Client {
        &self.clients[shard as usize]
    }

    /// Routes one logical request per its [`RoutePlan`] and returns the
    /// (possibly gathered) response. Transport-level failure of *every*
    /// involved shard is the only way to get `Err`; a partially failed
    /// scatter returns `Ok` with `degraded: true`.
    pub fn request(&self, req: Request) -> Result<Response, ClientError> {
        self.requests.fetch_add(1, Ordering::SeqCst);
        match plan(&self.map, &req) {
            RoutePlan::Shard(shard) => self.clients[shard as usize].request(req),
            // Shardless requests are answered identically everywhere
            // (typically with a structured BadRequest); shard 0 speaks for
            // the deployment.
            RoutePlan::Any => self.clients[0].request(req),
            RoutePlan::Scatter => self.scatter(req),
            RoutePlan::Broadcast => self.broadcast(req),
        }
    }

    /// Point-in-time counters, including each shard's client snapshot.
    pub fn snapshot(&self) -> ShardedSnapshot {
        ShardedSnapshot {
            requests: self.requests.load(Ordering::SeqCst),
            scatter_fanout: self.scatter_fanout.load(Ordering::SeqCst),
            degraded_responses: self.degraded_responses.load(Ordering::SeqCst),
            shards: self.clients.iter().map(Client::snapshot).collect(),
        }
    }

    /// Stops every shard client's health prober. Idempotent.
    pub fn shutdown(&self) {
        for client in &self.clients {
            client.shutdown();
        }
    }

    /// Fans `req` out to every shard under one shared deadline and returns
    /// the per-shard outcomes (indexed by shard id).
    fn fan_out(&self, req: &Request) -> Vec<Result<Response, ClientError>> {
        let deadline = Instant::now()
            + self.clients.first().map(|c| c.config().request_timeout).unwrap_or_default();
        self.scatter_fanout.fetch_add(self.clients.len() as u64, Ordering::SeqCst);
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter()
                .map(|client| {
                    let sub = req.clone();
                    scope.spawn(move || client.request_with_deadline(sub, deadline))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("scatter arm panicked")).collect()
        })
    }

    /// Scatter + gather for `Recommend`, `Stats` and `Health`: merge the
    /// survivors, flag the missing.
    fn scatter(&self, req: Request) -> Result<Response, ClientError> {
        let outcomes = self.fan_out(&req);
        let mut missing: Vec<u32> = Vec::new();
        let mut answers: Vec<(u32, Response)> = Vec::new();
        let mut last_err: Option<ClientError> = None;
        for (shard, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(resp) if resp.ok => answers.push((shard as u32, resp)),
                Ok(resp) => {
                    // A structured refusal is deterministic across shards
                    // for a malformed request — report it as the overall
                    // answer rather than degrading around it.
                    if resp.kind == Some(ErrorKind::BadRequest) {
                        return Ok(resp);
                    }
                    missing.push(shard as u32);
                    last_err = Some(ClientError::new(
                        ErrorClass::Server(resp.kind.unwrap_or(ErrorKind::Internal)),
                        resp.error.unwrap_or_else(|| "shard refused the sub-request".into()),
                    ));
                }
                Err(e) => {
                    missing.push(shard as u32);
                    last_err = Some(e);
                }
            }
        }
        if answers.is_empty() {
            return Err(last_err.unwrap_or_else(|| {
                ClientError::new(ErrorClass::NoReplica, "scatter reached no shard")
            }));
        }
        let degraded = !missing.is_empty();
        if degraded {
            self.degraded_responses.fetch_add(1, Ordering::SeqCst);
        }

        let mut merged = Response::ok(req.id);
        merged.generation = answers.iter().filter_map(|(_, r)| r.generation).min();
        match req.op {
            Op::Recommend => {
                let k = req.k.unwrap_or(0);
                let rows = answers
                    .iter_mut()
                    .flat_map(|(_, r)| r.recommendations.take().unwrap_or_default())
                    .collect();
                merged.recommendations = Some(merge_recommendations(rows, k));
            }
            Op::Stats => {
                let parts: Vec<_> =
                    answers.iter_mut().filter_map(|(_, r)| r.stats.take()).collect();
                let mut stats = merge_stats(&parts);
                // Engines report 0 here — degradation is a gather-side
                // phenomenon only this client can see.
                stats.degraded_responses = self.degraded_responses.load(Ordering::SeqCst);
                merged.stats = Some(stats);
            }
            Op::Health => {
                let mut parts: Vec<_> =
                    answers.iter_mut().filter_map(|(_, r)| r.health.take()).collect();
                // An unreachable shard reads as a dead member of the fleet,
                // not an absent one.
                for _ in &missing {
                    parts.push(HealthDto {
                        live: false,
                        ready: false,
                        draining: false,
                        breaker_open: false,
                        generation: 0,
                    });
                }
                merged.health = Some(merge_health(&parts));
            }
            _ => unreachable!("only Recommend/Stats/Health plan as Scatter"),
        }
        if degraded {
            merged.degraded = Some(true);
            merged.missing_shards = Some(missing);
        }
        Ok(merged)
    }

    /// Broadcast for side-effecting ops (`Reload`, `Compact`): the effect
    /// must land on *every* shard, so any failure fails the whole call — a
    /// half-applied broadcast must not report success.
    fn broadcast(&self, req: Request) -> Result<Response, ClientError> {
        let outcomes = self.fan_out(&req);
        let mut merged = Response::ok(req.id);
        let mut folded = 0u64;
        let mut saw_compaction = false;
        for outcome in outcomes {
            let resp = outcome?;
            if !resp.ok {
                return Ok(resp);
            }
            merged.generation = match (merged.generation, resp.generation) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            if let Some(c) = resp.compaction {
                folded += c.folded;
                saw_compaction = true;
            }
        }
        if saw_compaction {
            // Deployment-wide fold count; the generation is the *lowest*
            // post-compaction generation across shards (same conservative
            // convention as the merged `generation` field).
            merged.compaction =
                Some(CompactionDto { folded, generation: merged.generation.unwrap_or(0) });
        }
        Ok(merged)
    }
}

impl Drop for ShardedClient {
    fn drop(&mut self) {
        self.shutdown();
    }
}
