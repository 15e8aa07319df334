//! The metric and workload catalogue — the names `BENCHMARK.json` lists and
//! `check` compares against — and the result every workload returns.

use serde_json::Value;
use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The five workloads, in the order an all-workloads run executes them, each
/// with the sentence `BENCHMARK.json` records for it.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "train_epoch",
        "offline, work/s: epochs of Rrre::fit over the bench dataset on nproc threads; tensor (tape+backward) and core::parallel do all the work, every serving layer none",
    ),
    (
        "recommend_cold",
        "open loop 150 req/s, SLO 100 ms: Recommend k=10, every user new, so TowerCache is only written; core towers do the work, wire/frame/server < 10 %",
    ),
    (
        "predict_hot",
        "open loop 20k req/s, SLO 10 ms: Predict over 64x32 pre-warmed pairs, TowerCache only read; wire codec, frame, epoll loop and batch window dominate, towers none",
    ),
    (
        "scatter_warm",
        "closed loop, 2 callers: Recommend k=10 over 64 warm users through ShardedClient on 3 shard engines; heads+rank, shard merge, client scatter, 3x wire; towers none",
    ),
    (
        "ingest_quorum",
        "closed loop, 1 writer then 2 conns x 16 in flight: IngestReview at AckLevel::Quorum on a 3-replica fleet, fsync per record; wal append, replication shipping, quorum wait; model none",
    ),
];

/// What a user of the system sees. Every workload reports every one of
/// these; README.md says what each means on each workload.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("throughput_ops_s", "ops/s"),
    lower("floor_p50_ms", "ms"),
    lower("rss_mb", "MB"),
];

/// Single-layer metrics of the traced run, layer = module name. A workload
/// reports 0 for a layer it does not exercise.
pub const PER_LAYER: &[MetricDef] = &[
    lower("tensor.matmul_ns.tower", "ns"),
    lower("tensor.matmul_ns.heads", "ns"),
    lower("tensor.matmul_flops.tower", "count"),
    lower("tensor.matmul_flops.heads", "count"),
    lower("tensor.bilstm_review_us", "us"),
    lower("core.user_tower_us", "us"),
    lower("core.item_tower_us", "us"),
    lower("core.heads_us", "us"),
    lower("core.rank_us", "us"),
    lower("core.recommend_direct_ms", "ms"),
    higher("core.train_samples_s.t1", "ops/s"),
    higher("core.train_parallel_eff", "ratio"),
    lower("data.generate_s", "s"),
    lower("text.corpus_build_s", "s"),
    lower("wire.decode_request_ns", "ns"),
    lower("wire.encode_response_ns", "ns"),
    lower("wire.request_bytes", "count"),
    lower("wire.response_bytes", "count"),
    lower("serve.frame.decode_ns_per_frame", "ns"),
    lower("serve.cache.hit_ns", "ns"),
    lower("serve.cache.miss_insert_ns", "ns"),
    higher("serve.cache.hit_share", "ratio"),
    lower("serve.cache.entries", "count"),
    lower("serve.cache.bytes_per_entry", "count"),
    lower("serve.engine.submit_us", "us"),
    higher("serve.engine.mean_batch", "count"),
    lower("serve.engine.tower_evals_per_req", "count"),
    lower("serve.engine.shed", "count"),
    lower("serve.engine.deadline_misses", "count"),
    lower("serve.engine.refresh_ms", "ms"),
    lower("serve.server.residual_us", "us"),
    lower("serve.server.writev_batches_per_1k", "count"),
    lower("serve.server.frames_partial_per_1k", "count"),
    lower("serve.artifact.save_ms", "ms"),
    lower("serve.artifact.load_ms", "ms"),
    lower("serve.artifact.bytes", "count"),
    lower("serve.wal.append_us.nosync", "us"),
    lower("serve.wal.append_us.fsync", "us"),
    lower("serve.wal.fsync_us", "us"),
    lower("serve.wal.bytes_per_record", "count"),
    lower("serve.wal.replay_ms_per_10k", "ms"),
    lower("serve.replication.quorum_wait_ms", "ms"),
    higher("serve.replication.quorum_ack_ops_s", "ops/s"),
    higher("serve.replication.leader_ack_ops_s", "ops/s"),
    lower("serve.replication.lag_max", "count"),
    lower("serve.replication.converge_ms", "ms"),
    lower("shard.route_ns", "ns"),
    lower("shard.merge_us", "us"),
    lower("shard.leg_p50_ms", "ms"),
    lower("shard.leg_max_over_mean", "ratio"),
    lower("client.overhead_us", "us"),
    lower("client.scatter_overhead_us", "us"),
    lower("client.retries", "count"),
    lower("client.hedges", "count"),
    lower("bench.p50_ms", "ms"),
    lower("bench.p95_ms", "ms"),
    lower("bench.p99_ms", "ms"),
    lower("bench.gen_late_ms_p99", "ms"),
    higher("bench.max_rate_ok_rps", "req/s"),
    lower("bench.overload_fail_share", "ratio"),
    lower("bench.fail_share", "ratio"),
    lower("bench.trace_overhead_pct", "%"),
    higher("bench.tower_share", "ratio"),
];

/// What one run of one workload produced.
pub struct Outcome {
    /// Every oracle held.
    pub correct: bool,
    /// Operations attempted over all timed phases.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric `{name}` is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Records a failed oracle and says which.
    pub fn miss(&mut self, what: impl std::fmt::Display) {
        println!("ORACLE MISS: {what}");
        self.correct = false;
    }

    /// Checks an oracle condition.
    pub fn expect(&mut self, ok: bool, what: impl std::fmt::Display) {
        if !ok {
            self.miss(what);
        }
    }

    /// Counts a load-generator phase into `attempted` / `failed`.
    pub fn count(&mut self, sent: u64, failed: u64) {
        self.attempted += sent;
        self.failed += failed;
    }

    /// The metrics this mode reports: every end-to-end metric untraced,
    /// every per-layer metric traced.
    pub fn defs(trace: bool) -> &'static [MetricDef] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The driver's result object. An end-to-end metric a workload failed
    /// to set, or a non-finite value, marks the run incorrect.
    pub fn to_json(&self, trace: bool) -> Value {
        let mut correct = self.correct;
        let metrics = Self::defs(trace)
            .iter()
            .map(|def| {
                let value = match self.metrics.get(def.name) {
                    Some(&v) if v.is_finite() => v,
                    Some(_) => {
                        correct = false;
                        0.0
                    }
                    None => {
                        correct &= trace;
                        0.0
                    }
                };
                let entry = Value::Map(vec![
                    ("value".into(), Value::Num(value)),
                    ("unit".into(), Value::Str(def.unit.into())),
                ]);
                (def.name.to_string(), entry)
            })
            .collect();
        Value::Map(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Map(metrics)),
        ])
    }

    /// Prints every metric of this mode by name with its unit.
    pub fn print(&self, trace: bool) {
        for def in Self::defs(trace) {
            if let Some(v) = self.metrics.get(def.name) {
                println!("  {:<40} {:>16.4} {}", def.name, v, def.unit);
            }
        }
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.0))
        {
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(name.len() <= 64 && name.chars().all(ok), "bad name {name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for (_, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {}",
                why.len()
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn untraced_result_needs_every_end_to_end_metric() {
        let mut o = Outcome::new();
        o.attempted = 5;
        for m in END_TO_END {
            o.set(m.name, 1.5);
        }
        let json = o.to_json(false);
        assert_eq!(json.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(
            json.get("metrics").unwrap().as_map().unwrap().len(),
            END_TO_END.len()
        );

        o.metrics.remove("rss_mb");
        assert_eq!(
            o.to_json(false).get("correct").unwrap().as_bool(),
            Some(false)
        );
        // The traced result lists every per-layer metric, unexercised ones as 0.
        let traced = o.to_json(true);
        assert_eq!(traced.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(
            traced.get("metrics").unwrap().as_map().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
