//! # rrre-serve
//!
//! Inference serving for the RRRE model — the deployment story the paper's
//! §III-B recommendation procedure implies but never spells out. Four layers,
//! bottom to top:
//!
//! * [`artifact`] — [`ModelArtifact`]: a self-describing on-disk bundle
//!   (manifest + dataset + word vectors + `RRRP` weights + frozen review
//!   vectors) that restores a trained model with
//!   [`rrre_core::Rrre::from_frozen_parts`] without re-running the BiLSTM,
//!   validating every shape and a bit-exact sample of the review vectors on
//!   the way in.
//! * [`cache`] — [`TowerCache`]: sharded, lock-striped caches of the
//!   pair-dependent UserNet/ItemNet representations, with explicit
//!   invalidation when an entity gains a review. A warm prediction is two
//!   cache lookups plus the two cheap heads; the BiLSTM never runs on the
//!   hot path.
//! * [`engine`] — [`Engine`]: a worker pool fed by a micro-batching queue
//!   ([`batch::BatchQueue`]) that serves predict / recommend / explain with
//!   per-request deadlines, engine-wide counters ([`stats`]) and graceful
//!   shutdown.
//! * [`rrre_wire`] + [`server`] — newline-delimited JSON over TCP (and a
//!   single-shot CLI in `src/bin/serve.rs`): one request per line, one
//!   response per line, stable across process restarts because ranking ties
//!   break deterministically ([`rrre_core::rank_candidates`]).
//!
//! The TCP front end is a readiness-driven event core: one epoll thread
//! ([`sys`]) multiplexes every connection, decoding frames incrementally
//! ([`frame`]), pipelining requests per connection ([`conn`]), reaping
//! idle sockets with a timer wheel ([`timer`]), and flushing responses
//! with `writev`. Workers answer through completion callbacks
//! ([`batch::Completion`]) instead of parked threads.
//!
//! The engine reproduces `rrre_core` predictions *bit for bit*: it calls the
//! same decomposed inference path (`infer_user_tower` / `infer_item_tower` /
//! `infer_heads`) that `Rrre::predict` itself uses in frozen mode, and its
//! `Recommend` / `Explain` are [`rrre_core::recommend_with`] /
//! [`rrre_core::explain_with`] called with that cached scorer.

#![warn(missing_docs)]

pub mod artifact;
pub mod batch;
pub mod cache;
pub mod conn;
pub mod engine;
mod event_loop;
pub mod frame;
pub mod replication;
pub mod server;
pub mod stats;
pub mod sys;
pub mod timer;
pub mod wal;

pub use artifact::{ArtifactManifest, FileChecksum, ModelArtifact};
pub use batch::Completion;
pub use cache::{CacheAxis, TowerCache};
pub use engine::{Engine, EngineConfig, Generation, IngestConfig, WAL_DIR};
pub use frame::{FrameDecoder, FrameError, FrameEvent};
pub use rrre_wire::{ErrorKind, HealthDto, Op, Request, Response};
pub use replication::{AckLevel, QuorumError, ReplRole, Replication, ReplicationConfig};
pub use server::{Server, ServerConfig};
pub use stats::{EngineStats, FrontendStats, StatsSnapshot};
pub use wal::{FsyncPolicy, IngestLedger, SeqSet, WalError, WalRecord, WalWriter};
