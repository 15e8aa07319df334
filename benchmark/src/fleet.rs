//! In-process fleets over loopback TCP, all on the shipped defaults
//! (`EngineConfig::default()`, `ServerConfig::default()`,
//! `IngestConfig::default()` except `refresh_every: 0`), so that a later
//! change to a default shows up as a moved number.

use rrre_serve::{
    AckLevel, Engine, EngineConfig, IngestConfig, ModelArtifact, ReplRole, ReplicationConfig,
    Server,
};
use rrre_shard::ShardTopology;
use rrre_wire::ShardSpec;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One engine behind its TCP front end. Dropping it stops the server, then
/// the engine (field order).
pub struct Node {
    _server: Server,
    pub engine: Arc<Engine>,
    pub addr: String,
}

impl Node {
    fn start(engine: Engine, addr: &str) -> std::io::Result<Self> {
        let engine = Arc::new(engine);
        let server = Server::start(Arc::clone(&engine), addr)?;
        let addr = server.local_addr().to_string();
        Ok(Self {
            _server: server,
            engine,
            addr,
        })
    }

    /// A whole-model node over the artifact in `dir`.
    pub fn whole(dir: &Path) -> std::io::Result<Self> {
        let artifact = ModelArtifact::load(dir)?;
        Self::start(
            Engine::new(artifact, EngineConfig::default()),
            "127.0.0.1:0",
        )
    }
}

/// `shards` single-replica shard-scoped nodes over one artifact directory,
/// loaded concurrently, plus the topology a `ShardedClient` routes with.
pub fn sharded(dir: &Path, shards: u32) -> std::io::Result<(Vec<Node>, ShardTopology)> {
    let nodes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                scope.spawn(move || {
                    let artifact = ModelArtifact::load(dir)?;
                    let cfg = EngineConfig {
                        shard_id: Some(shard),
                        ..EngineConfig::default()
                    };
                    Node::start(Engine::new(artifact, cfg), "127.0.0.1:0")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard launcher panicked"))
            .collect::<std::io::Result<Vec<Node>>>()
    })?;
    let topology = ShardTopology {
        spec: ShardSpec::with_shards(shards),
        replicas: nodes.iter().map(|n| vec![n.addr.clone()]).collect(),
    };
    Ok((nodes, topology))
}

fn copy_tree(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

fn reserve_addr() -> std::io::Result<String> {
    Ok(std::net::TcpListener::bind("127.0.0.1:0")?
        .local_addr()?
        .to_string())
}

/// The ingest engine settings of `ingest_quorum`: shipped defaults (fsync
/// per record) with auto-refresh off, so the run measures the append path
/// and not a tower refresh per record.
pub fn ingest_config() -> IngestConfig {
    IngestConfig {
        refresh_every: 0,
        ..IngestConfig::default()
    }
}

/// A replicated single shard: one private copy of the artifact in `seed`
/// per replica under `root`, node 0 the epoch-1 leader shipping its WAL to
/// the others. (The testkit's `ReplicatedDeployment` hard-codes
/// `refresh_every: 1` and a 300 ms quorum timeout, hence this launcher.)
pub fn replicated(
    seed: &Path,
    root: &Path,
    replicas: usize,
    ack: AckLevel,
) -> std::io::Result<Vec<Node>> {
    let dirs: Vec<PathBuf> = (0..replicas)
        .map(|i| root.join(format!("replica{i}")))
        .collect();
    for dir in &dirs {
        copy_tree(seed, dir)?;
    }
    let addrs = (0..replicas)
        .map(|_| reserve_addr())
        .collect::<std::io::Result<Vec<_>>>()?;
    let boot = |i: usize, role: ReplRole| {
        let repl = ReplicationConfig {
            role,
            ack,
            self_addr: Some(addrs[i].clone()),
            ..ReplicationConfig::default()
        };
        let engine =
            Engine::open_replicated(&dirs[i], EngineConfig::default(), ingest_config(), repl)?;
        Node::start(engine, &addrs[i])
    };
    // Followers first: the leader probes them the moment it boots.
    let mut followers = (1..replicas)
        .map(|i| {
            boot(
                i,
                ReplRole::Follower {
                    leader: Some(addrs[0].clone()),
                },
            )
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    let leader = boot(
        0,
        ReplRole::Leader {
            followers: addrs[1..].to_vec(),
            epoch: 1,
        },
    )?;
    let mut nodes = vec![leader];
    nodes.append(&mut followers);
    Ok(nodes)
}
