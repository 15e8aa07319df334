//! # rrre-testkit
//!
//! The workspace's shared correctness layer. Every crate's tests build on
//! the same four pillars instead of re-growing ad-hoc setup per test file:
//!
//! * [`fixtures`] — seeded, deterministic fixture builders: tiny synthetic
//!   corpora and pre-trained mini-models with fixed hyper-parameters. Two
//!   calls with the same [`fixtures::FixtureSpec`] produce bit-identical
//!   datasets, corpora and models, in this process or the next one.
//! * [`golden`] — the golden-trace regression harness: training traces
//!   (per-epoch `loss`/`loss1`/`loss2`, eval metrics, final head outputs)
//!   are compared against committed JSON files under tolerance bands and
//!   regenerated with `RRRE_UPDATE_GOLDENS=1`.
//! * [`parity`] — differential oracles asserting that `Rrre::predict`,
//!   the decomposed frozen inference path and the serving engine agree
//!   bit-for-bit, including through the checkpoint → artifact → engine
//!   round trip.
//! * [`fault`] — fault injection: artifact byte corruption, WAL tail
//!   shaving (torn writes), partial protocol writes, oversized lines and
//!   mid-stream disconnects for serve robustness tests.
//! * [`sync`] — deterministic concurrency helpers (barrier-started thread
//!   fan-out, pre-expired deadlines) that replace wall-clock sleeps in
//!   concurrency tests.
//! * [`chaos`] — a TCP chaos proxy ([`chaos::ChaosProxy`]) that
//!   interposes between a client and a replica and injects the fault a
//!   test forces: a truncated request, a corrupted or swallowed response,
//!   or a black hole.
//! * [`topology`] — in-process sharded deployments
//!   ([`topology::ShardedDeployment`]): one saved artifact served by
//!   `shards × replicas` shard-scoped engines on loopback, with per-shard
//!   and per-replica kill switches for degraded-answer drills.
//! * [`replication`] — in-process replicated single-shard deployments
//!   ([`replication::ReplicatedDeployment`]): one artifact cloned into a
//!   private directory per replica, leader-shipped WAL replication
//!   between them, with kill / restart / resync / promote levers for the
//!   durable-failover oracle.
//!
//! The crate is a *dev-dependency* everywhere it is used; production crates
//! never link it.

#![warn(missing_docs)]

pub mod chaos;
pub mod fault;
pub mod fixtures;
pub mod golden;
pub mod parity;
pub mod replication;
pub mod sync;
pub mod topology;

pub use chaos::{ChaosProxy, ChaosStats, Fault};
pub use fixtures::{
    corpus_for, poisoned_fixture, poisoned_fixture_with, trained_fixture, trained_fixture_with,
    Fixture, FixtureSpec, PoisonedFixture, TempDir,
};
pub use golden::{check_golden, compare, GoldenTolerance, GoldenTrace};
pub use parity::{assert_model_parity, assert_serve_parity, deterministic_pairs};
pub use replication::ReplicatedDeployment;
pub use topology::ShardedDeployment;
