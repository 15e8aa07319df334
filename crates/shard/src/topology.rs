//! Deployment topology: which replica endpoints serve each shard.
//!
//! The [`ShardSpec`] says *how keys map to shards*; the [`ShardTopology`]
//! adds *where each shard lives* — one replica-address list per shard.
//! Clients load it from a JSON file (`--shard-map topology.json`) and
//! validate it against the spec before routing a single request, so a
//! topology whose replica lists disagree with the spec's shard count is
//! refused up front rather than silently black-holing a shard.

use rrre_wire::ShardSpec;
use serde::{Deserialize, Serialize};

/// A validated deployment topology: the shard spec plus the replica
/// endpoints (host:port) serving each shard, indexed by shard id.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardTopology {
    /// The shard map spec every member of this deployment agrees on.
    pub spec: ShardSpec,
    /// `replicas[s]` lists the endpoints serving shard `s`. Must have
    /// exactly `spec.shards` entries, each non-empty.
    pub replicas: Vec<Vec<String>>,
}

impl ShardTopology {
    /// A single-shard topology over one replica set — the degenerate
    /// "whole model everywhere" deployment the pre-sharding tier ran.
    pub fn single(addrs: Vec<String>) -> Self {
        Self { spec: ShardSpec::single(), replicas: vec![addrs] }
    }

    /// Structural validation: a sound spec, one replica list per shard,
    /// no shard left without endpoints, no blank endpoint strings.
    pub fn validate(&self) -> Result<(), String> {
        self.spec.validate()?;
        if self.replicas.len() != self.spec.shards as usize {
            return Err(format!(
                "topology lists {} replica sets but the spec declares {} shards",
                self.replicas.len(),
                self.spec.shards
            ));
        }
        for (shard, set) in self.replicas.iter().enumerate() {
            if set.is_empty() {
                return Err(format!("shard {shard} has no replica endpoints"));
            }
            if set.iter().any(|a| a.trim().is_empty()) {
                return Err(format!("shard {shard} lists a blank endpoint"));
            }
        }
        Ok(())
    }

    /// Parses and validates a topology from its JSON representation.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let topo: Self = serde_json::from_str(json).map_err(|e| format!("invalid shard topology JSON: {e}"))?;
        topo.validate()?;
        Ok(topo)
    }

    /// Serialises the topology to JSON (one line, wire-stable field order).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ShardTopology serialisation cannot fail")
    }

    /// Number of shards in this deployment.
    pub fn shards(&self) -> u32 {
        self.spec.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo3() -> ShardTopology {
        ShardTopology {
            spec: ShardSpec::with_shards(3),
            replicas: vec![
                vec!["127.0.0.1:7001".into(), "127.0.0.1:7002".into()],
                vec!["127.0.0.1:7003".into()],
                vec!["127.0.0.1:7005".into(), "127.0.0.1:7006".into()],
            ],
        }
    }

    #[test]
    fn valid_topology_round_trips_through_json() {
        let t = topo3();
        t.validate().unwrap();
        let back = ShardTopology::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.shards(), 3);
        assert_eq!(back.replicas[1], ["127.0.0.1:7003".to_string()]);
    }

    #[test]
    fn shard_count_mismatch_is_refused() {
        let mut t = topo3();
        t.replicas.pop();
        let err = t.validate().unwrap_err();
        assert!(err.contains("2 replica sets"), "{err}");
        assert!(ShardTopology::from_json(&t.to_json()).is_err());
    }

    #[test]
    fn empty_or_blank_replica_sets_are_refused() {
        let mut t = topo3();
        t.replicas[1].clear();
        assert!(t.validate().unwrap_err().contains("no replica endpoints"));
        let mut t = topo3();
        t.replicas[2][0] = "  ".into();
        assert!(t.validate().unwrap_err().contains("blank endpoint"));
    }

    #[test]
    fn single_topology_is_valid() {
        let t = ShardTopology::single(vec!["127.0.0.1:9000".into()]);
        t.validate().unwrap();
        assert_eq!(t.shards(), 1);
    }
}
