//! In-process replicated single-shard deployments for durability drills.
//!
//! [`ReplicatedDeployment::launch`] saves one ingest-enabled artifact and
//! clones it into one directory **per replica** — unlike
//! [`crate::topology::ShardedDeployment`], which shares a directory,
//! because WAL replication is precisely about keeping *separate* disks in
//! agreement. It then boots every replica as a replicated [`Engine`]
//! behind a loopback [`Server`]: slot 0 as the epoch-1 leader shipping its
//! WAL to the others, the rest as followers.
//!
//! The deployment exposes the failure levers the replication oracle
//! drills: [`kill`](ReplicatedDeployment::kill) a replica (server down,
//! engine shut down — the WAL stays, exactly like a machine rebooting),
//! [`restart_follower`](ReplicatedDeployment::restart_follower) it on a
//! fresh port so it recovers from its own WAL and the leader's shipper
//! brings it level,
//! [`resync_follower`](ReplicatedDeployment::resync_follower) it from a
//! copy of the current leader's directory (the full-resync path a deposed
//! leader needs), and [`promote`](ReplicatedDeployment::promote) a new
//! leader under a bumped, fenced epoch. Convergence is observed through
//! each engine's `replicated_seq` / `epoch` stats gauges, and
//! [`compact_fingerprints`](ReplicatedDeployment::compact_fingerprints)
//! turns the byte-identical-artifacts invariant into a comparable value.

use crate::fixtures::{Fixture, TempDir};
use rrre_serve::{
    AckLevel, Engine, EngineConfig, IngestConfig, ModelArtifact, ReplRole, ReplicationConfig,
    Server,
};
use rrre_wire::{Request, Response};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One replica: its private artifact directory, its current address, and
/// the live engine/server pair (`None` while killed).
struct ReplSlot {
    dir: PathBuf,
    addr: String,
    engine: Option<Arc<Engine>>,
    server: Option<Server>,
}

/// A live in-process replicated shard: N engines over N private copies of
/// one artifact, leader-shipped WAL replication between them.
pub struct ReplicatedDeployment {
    /// Root scratch directory holding every replica's private artifact
    /// copy (kept alive for the deployment's lifetime).
    pub root: TempDir,
    slots: Vec<ReplSlot>,
    leader: usize,
    epoch: u64,
    ingest: IngestConfig,
    ack: AckLevel,
    quorum_timeout: Duration,
}

/// Reserves a loopback address by binding port 0 and immediately
/// releasing it. The replication config needs every replica's address
/// *before* any server starts (the leader lists its followers, every
/// replica advertises itself as a future leader hint), so ports are
/// claimed up front and servers bind them explicitly.
fn reserve_addr() -> String {
    let listener =
        std::net::TcpListener::bind("127.0.0.1:0").expect("reserve_addr: loopback bind failed");
    listener.local_addr().expect("reserve_addr: no local addr").to_string()
}

/// Copies a directory tree (the artifact plus `wal/` and the epoch file).
/// Both deployment launch and follower resync clone a quiescent directory,
/// so a plain recursive copy is exact.
pub fn copy_tree(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("copy_tree: cannot create destination");
    for entry in std::fs::read_dir(src).expect("copy_tree: cannot read source") {
        let entry = entry.expect("copy_tree: bad dir entry");
        let from = entry.path();
        let to = dst.join(entry.file_name());
        if from.is_dir() {
            copy_tree(&from, &to);
        } else {
            std::fs::copy(&from, &to).expect("copy_tree: file copy failed");
        }
    }
}

impl ReplicatedDeployment {
    /// Saves `fixture` once, clones it into `replicas` private artifact
    /// directories and boots the fleet: slot 0 leads at epoch 1, everyone
    /// else follows. `quorum_timeout` is deliberately short (300ms) so
    /// quorum-loss drills fail fast instead of hanging the test.
    pub fn launch(fixture: &Fixture, replicas: usize, ack: AckLevel) -> Self {
        assert!(replicas >= 1, "ReplicatedDeployment: need ≥1 replica");
        let root = TempDir::new(&format!("replicated-{replicas}"));
        let seed_dir = root.path().join("seed");
        ModelArtifact::save(
            &seed_dir,
            &fixture.dataset,
            &fixture.corpus,
            &fixture.model,
            fixture.min_count(),
        )
        .expect("ReplicatedDeployment: artifact save failed");

        let mut slots: Vec<ReplSlot> = (0..replicas)
            .map(|i| {
                let dir = root.path().join(format!("replica{i}"));
                copy_tree(&seed_dir, &dir);
                ReplSlot { dir, addr: reserve_addr(), engine: None, server: None }
            })
            .collect();

        let mut dep = Self {
            root,
            slots: Vec::new(),
            leader: 0,
            epoch: 1,
            ingest: IngestConfig::default(),
            ack,
            quorum_timeout: Duration::from_millis(300),
        };
        // Followers first: the leader probes them the moment it boots.
        let leader_addr = slots[0].addr.clone();
        let follower_addrs: Vec<String> = slots[1..].iter().map(|s| s.addr.clone()).collect();
        std::mem::swap(&mut dep.slots, &mut slots);
        for i in 1..replicas {
            dep.boot(i, ReplRole::Follower { leader: Some(leader_addr.clone()) });
        }
        dep.boot(0, ReplRole::Leader { followers: follower_addrs, epoch: 1 });
        dep
    }

    /// Opens slot `i`'s directory as a replicated engine in `role` and
    /// binds its server on the slot's reserved address.
    fn boot(&mut self, i: usize, role: ReplRole) {
        let slot = &mut self.slots[i];
        let repl = ReplicationConfig {
            role,
            ack: self.ack,
            quorum_timeout: self.quorum_timeout,
            self_addr: Some(slot.addr.clone()),
        };
        let engine = Arc::new(
            Engine::open_replicated(&slot.dir, EngineConfig::default(), self.ingest, repl)
                .expect("ReplicatedDeployment: replicated open failed"),
        );
        let server = Server::start(Arc::clone(&engine), slot.addr.as_str())
            .expect("ReplicatedDeployment: server bind failed");
        slot.engine = Some(engine);
        slot.server = Some(server);
    }

    /// Number of replica slots (live or killed).
    pub fn replicas(&self) -> usize {
        self.slots.len()
    }

    /// The slot index currently holding leadership (as this deployment
    /// last arranged it — a deposed-but-unaware engine may disagree until
    /// the new term's traffic fences it).
    pub fn leader(&self) -> usize {
        self.leader
    }

    /// The current leader term as this deployment last arranged it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Replica `i`'s current address.
    pub fn addr(&self, i: usize) -> &str {
        &self.slots[i].addr
    }

    /// Whether replica `i` is currently up.
    pub fn is_live(&self, i: usize) -> bool {
        self.slots[i].engine.is_some()
    }

    /// Indices of the live replicas.
    pub fn live(&self) -> Vec<usize> {
        (0..self.slots.len()).filter(|&i| self.is_live(i)).collect()
    }

    /// Direct access to a live engine.
    pub fn engine(&self, i: usize) -> Option<&Arc<Engine>> {
        self.slots[i].engine.as_ref()
    }

    /// Submits one request straight to replica `i`'s engine (no client
    /// stack in between — the oracle wants to choose its target exactly).
    pub fn submit(&self, i: usize, req: Request) -> Response {
        self.slots[i].engine.as_ref().expect("submit: replica is killed").submit(req)
    }

    /// Takes replica `i` down: server stopped, engine shut down. Its
    /// directory — artifact, WAL, epoch file — stays, like a machine that
    /// lost power with its disk intact.
    pub fn kill(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        if let Some(mut server) = slot.server.take() {
            server.stop();
        }
        if let Some(engine) = slot.engine.take() {
            engine.shutdown();
        }
    }

    /// Restarts a killed replica as a follower of the current leader, on a
    /// *fresh* port, recovering from its own WAL. The acting leader (if
    /// alive) gets a same-term peer refresh so its shippers aim at the new
    /// address; their first probe learns the replica's count and ships it
    /// the rest — a follower no leader ships to would never catch up.
    pub fn restart_follower(&mut self, i: usize) {
        assert!(!self.is_live(i), "restart_follower: replica {i} is still up");
        self.slots[i].addr = reserve_addr();
        let leader_addr = self.slots[self.leader].addr.clone();
        self.boot(i, ReplRole::Follower { leader: Some(leader_addr) });
        self.refresh_peers();
    }

    /// Wipes a killed replica's directory, reclones the current leader's
    /// (quiescent) directory into it and restarts it as a follower — the
    /// full-resync path a replica whose log diverged (e.g. a deposed
    /// leader holding unacked records) must take before rejoining.
    pub fn resync_follower(&mut self, i: usize) {
        assert!(!self.is_live(i), "resync_follower: replica {i} is still up");
        assert!(self.is_live(self.leader), "resync_follower: no live leader to resync from");
        let src = self.slots[self.leader].dir.clone();
        let dst = self.slots[i].dir.clone();
        std::fs::remove_dir_all(&dst).expect("resync_follower: wipe failed");
        copy_tree(&src, &dst);
        self.restart_follower(i);
    }

    /// Promotes replica `i` to lead a new, fenced term (`epoch + 1`) with
    /// every other slot as a peer. The old leader — if still running —
    /// learns of its deposal from the new term's first probe.
    pub fn promote(&mut self, i: usize) {
        assert!(self.is_live(i), "promote: replica {i} is killed");
        self.epoch += 1;
        self.leader = i;
        let peers = self.peer_addrs(i);
        let resp = self.submit(i, Request::promote(self.epoch, peers));
        assert!(resp.ok, "promote of replica {i} refused: {:?}", resp.error);
    }

    /// Re-sends the *current* term's peer set to the acting leader — the
    /// same-term `Promote` form — so its shippers pick up followers that
    /// restarted on new addresses. No-op when the leader is down.
    pub fn refresh_peers(&self) {
        if !self.is_live(self.leader) {
            return;
        }
        let peers = self.peer_addrs(self.leader);
        let resp = self.submit(self.leader, Request::promote(self.epoch, peers));
        assert!(resp.ok, "peer refresh refused: {:?}", resp.error);
    }

    fn peer_addrs(&self, leader: usize) -> Vec<String> {
        (0..self.slots.len()).filter(|&j| j != leader).map(|j| self.slots[j].addr.clone()).collect()
    }

    /// Replica `i`'s replicated-log watermark, from its stats gauges.
    pub fn replicated_seq(&self, i: usize) -> u64 {
        self.slots[i].engine.as_ref().expect("replicated_seq: replica is killed").stats().replicated_seq
    }

    /// Waits until every live replica reports the leader's watermark and
    /// the current epoch. Returns `false` on timeout.
    pub fn await_convergence(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let target = self.replicated_seq(self.leader);
            let done = self.live().into_iter().all(|i| {
                let s = self.slots[i].engine.as_ref().unwrap().stats();
                s.replicated_seq == target && s.epoch == self.epoch
            });
            if done {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Compacts every live replica and returns `(slot, fingerprint)`
    /// pairs, where the fingerprint is the sorted `(file, digest)` table
    /// of the artifact — manifest, and with it the folded seq set,
    /// included — so equal fingerprints mean byte-identical compacted
    /// artifacts. The WAL directory and the epoch file are deliberately
    /// *not* part of the fingerprint: they are per-replica operational
    /// state (a follower's segment boundaries lag the leader's), not the
    /// replicated artifact.
    pub fn compact_fingerprints(&self) -> Vec<(usize, Vec<(String, String)>)> {
        self.live()
            .into_iter()
            .map(|i| {
                self.slots[i]
                    .engine
                    .as_ref()
                    .unwrap()
                    .compact_now()
                    .expect("compact_fingerprints: compaction failed");
                (i, artifact_fingerprint(&self.slots[i].dir))
            })
            .collect()
    }
}

/// Digests every artifact file in `dir` — the manifest and its payloads —
/// as a sorted `(file, digest)` table. Operational state (`wal/`, the epoch
/// file and its tmp sibling) is excluded.
pub fn artifact_fingerprint(dir: &Path) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("artifact_fingerprint: cannot read dir")
        .map(|e| e.expect("artifact_fingerprint: bad dir entry"))
        .filter(|e| e.path().is_file())
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            if name.starts_with("repl_epoch") {
                return None;
            }
            let bytes = std::fs::read(e.path()).expect("artifact_fingerprint: unreadable file");
            Some((name, rrre_tensor::serialize::digest(&bytes)))
        })
        .collect();
    out.sort();
    out
}

impl Drop for ReplicatedDeployment {
    fn drop(&mut self) {
        for i in 0..self.slots.len() {
            self.kill(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{trained_fixture_with, FixtureSpec};

    #[test]
    fn replicated_deployment_converges_and_fails_over() {
        let fx = trained_fixture_with(FixtureSpec::micro());
        let mut dep = ReplicatedDeployment::launch(&fx, 3, AckLevel::Quorum);
        assert_eq!(dep.leader(), 0);
        assert_eq!(dep.epoch(), 1);

        let resp =
            dep.submit(0, Request::ingest_review(1, 0, 0, 4.0, "solid find, would return", 1));
        assert!(resp.ok, "quorum ingest refused: {:?}", resp.error);
        assert!(dep.await_convergence(Duration::from_secs(10)), "followers never caught up");
        assert_eq!(dep.replicated_seq(1), dep.replicated_seq(0));

        // A follower must redirect writes at the leader.
        let resp =
            dep.submit(1, Request::ingest_review(2, 0, 0, 4.0, "solid find, would return", 2));
        assert!(!resp.ok);
        assert_eq!(resp.kind, Some(rrre_wire::ErrorKind::NotLeader));
        assert_eq!(resp.leader.as_deref(), Some(dep.addr(0)));

        // Failover: kill the leader, promote a follower, write again.
        dep.kill(0);
        dep.promote(1);
        assert_eq!(dep.epoch(), 2);
        let resp =
            dep.submit(1, Request::ingest_review(2, 0, 0, 4.0, "solid find, would return", 2));
        assert!(resp.ok, "post-failover ingest refused: {:?}", resp.error);
        let dup = resp.ingest.expect("ingest ack carries the dto");
        assert!(!dup.duplicate, "seq 2 was never acked before the failover");
        assert!(dep.await_convergence(Duration::from_secs(10)));
    }
}
