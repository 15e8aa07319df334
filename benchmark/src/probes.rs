//! Per-layer micro-probes: each times calls into one crate's public
//! functions from outside, at the operand shapes the bench model really
//! uses. A workload's traced run calls the probes of the layers it
//! exercises and leaves the rest at 0.

use crate::metrics::{median, Outcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrre_core::{rank_candidates, Prediction, ReviewEncoder, Rrre};
use rrre_data::{Dataset, EncodedCorpus, ItemId, UserId};
use rrre_serve::{
    CacheAxis, FrameDecoder, FsyncPolicy, ModelArtifact, TowerCache, WalRecord, WalWriter,
};
use rrre_tensor::{Params, Tensor};
use rrre_wire::{decode_request, encode_response, Request, Response, MAX_LINE_BYTES};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Median over `reps` batches of the mean wall time of one `f()` call in a
/// batch of `iters`, in nanoseconds.
pub fn per_call_ns(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut batches: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut batches)
}

/// Resident set size after handing free heap pages back to the kernel.
///
/// Without the trim, RSS is mostly what glibc's per-thread arenas keep of
/// the previous set-ups' engines: `scatter_warm` read 133 to 189 MB from run
/// to run around ≈ 48 MB of live memory. Trimmed, it follows what the
/// process actually holds — which is what a bounded cache would change.
pub fn rss_mb() -> f64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and has no preconditions;
        // it only releases free memory held by the allocator.
        unsafe {
            malloc_trim(0);
        }
    }
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn filled(rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| 0.01 + (i % 17) as f32 * 0.03)
            .collect(),
    )
}

/// `tensor`: the two matmuls that dominate inference, at the model's real
/// shapes — the tower's review projection `[s_i, k] × [k, attn_dim]` and
/// the reliability head `[1, 2·id_dim] × [2·id_dim, 2]` — plus one BiLSTM
/// review encoding. Flops are computed from the shapes (2·m·k·n), not
/// measured.
pub fn tensor(out: &mut Outcome, model: &Rrre, corpus: &EncodedCorpus) {
    let cfg = model.config();
    for (name_ns, name_flops, (m, k, n)) in [
        (
            "tensor.matmul_ns.tower",
            "tensor.matmul_flops.tower",
            (cfg.s_i, cfg.k, cfg.attn_dim),
        ),
        (
            "tensor.matmul_ns.heads",
            "tensor.matmul_flops.heads",
            (1, 2 * cfg.id_dim, 2),
        ),
    ] {
        let (a, b) = (filled(m, k), filled(k, n));
        out.set(
            name_ns,
            per_call_ns(9, 2_000, || {
                black_box(black_box(&a).matmul(black_box(&b)));
            }),
        );
        out.set(name_flops, (2 * m * k * n) as f64);
    }
    let mut params = Params::new();
    let encoder = ReviewEncoder::new(
        &mut params,
        &mut StdRng::seed_from_u64(7),
        corpus.embed_dim(),
        cfg.k,
    );
    let docs = corpus.docs.len().min(64);
    let mut idx = 0;
    out.set(
        "tensor.bilstm_review_us",
        per_call_ns(5, 64, || {
            black_box(encoder.encode_review(&params, corpus, idx % docs));
            idx += 1;
        }) / 1e3,
    );
}

fn probe_pairs(ds: &Dataset, users: &[u32]) -> Vec<(UserId, ItemId)> {
    users
        .iter()
        .take(8)
        .flat_map(|&u| {
            (0..ds.n_items as u32)
                .step_by(7)
                .map(move |i| (UserId(u), ItemId(i)))
        })
        .collect()
}

/// `core`, tower side: one tower evaluation per pair, and
/// `rrre_core::recommend` with no engine around it.
pub fn core_towers(
    out: &mut Outcome,
    model: &Rrre,
    ds: &Dataset,
    corpus: &EncodedCorpus,
    users: &[u32],
) {
    let pairs = probe_pairs(ds, users);
    let mut k = 0;
    let mut next = || {
        k += 1;
        pairs[k % pairs.len()]
    };
    out.set(
        "core.user_tower_us",
        per_call_ns(7, 400, || {
            let (u, i) = next();
            black_box(model.infer_user_tower(u, i));
        }) / 1e3,
    );
    out.set(
        "core.item_tower_us",
        per_call_ns(7, 400, || {
            let (u, i) = next();
            black_box(model.infer_item_tower(u, i));
        }) / 1e3,
    );
    let mut u = 0;
    out.set(
        "core.recommend_direct_ms",
        per_call_ns(5, 8, || {
            black_box(rrre_core::recommend(
                model,
                ds,
                corpus,
                UserId(users[u % users.len()]),
                10,
            ));
            u += 1;
        }) / 1e6,
    );
}

/// `core`, head side: the two heads over ready tower outputs, and the
/// two-stage ranking of a whole catalog's scores.
pub fn core_heads(out: &mut Outcome, model: &Rrre, ds: &Dataset, users: &[u32]) {
    let pairs = probe_pairs(ds, users);
    let (u0, i0) = pairs[0];
    let (x, y) = (
        model.infer_user_tower(u0, i0),
        model.infer_item_tower(u0, i0),
    );
    let mut k = 0;
    out.set(
        "core.heads_us",
        per_call_ns(7, 400, || {
            k += 1;
            let (u, i) = pairs[k % pairs.len()];
            black_box(model.infer_heads(u, i, &x, &y));
        }) / 1e3,
    );
    let scored: Vec<(ItemId, Prediction)> = (0..ds.n_items as u32)
        .map(|i| {
            (
                ItemId(i),
                Prediction {
                    rating: 1.0 + (i * 37 % 400) as f32 / 100.0,
                    reliability: (i * 13 % 100) as f32 / 100.0,
                },
            )
        })
        .collect();
    out.set(
        "core.rank_us",
        per_call_ns(7, 200, || {
            let mut s = scored.clone();
            rank_candidates(&mut s, 10);
            black_box(s);
        }) / 1e3,
    );
}

/// `wire` + `serve.frame`: the codec on this workload's own request and a
/// real response to it, and the frame decoder over a 64-frame chunk.
pub fn wire(out: &mut Outcome, req: &Request, resp: &Response) {
    let line = serde_json::to_string(req).expect("Request serialisation cannot fail");
    out.set("wire.request_bytes", line.len() as f64);
    out.set("wire.response_bytes", encode_response(resp).len() as f64);
    out.set(
        "wire.decode_request_ns",
        per_call_ns(9, 2_000, || {
            black_box(decode_request(black_box(&line)).expect("own request decodes"));
        }),
    );
    out.set(
        "wire.encode_response_ns",
        per_call_ns(9, 1_000, || {
            black_box(encode_response(black_box(resp)));
        }),
    );
    let chunk: Vec<u8> = std::iter::repeat_n(format!("{line}\n"), 64)
        .collect::<String>()
        .into_bytes();
    let mut decoder = FrameDecoder::new(MAX_LINE_BYTES);
    out.set(
        "serve.frame.decode_ns_per_frame",
        per_call_ns(9, 200, || {
            decoder.push(black_box(&chunk));
            while let Some(event) = decoder.next_event() {
                black_box(event);
            }
        }) / 64.0,
    );
}

/// `serve.cache`: a lookup that hits, and a lookup that misses and inserts
/// (the tower itself excluded: the closure returns a ready tensor). Bytes
/// per entry are computed from the shapes — key, `Tensor` header and its
/// `id_dim` floats — not measured; allocator and hash-table slack come on
/// top, and `rss_mb` on `recommend_cold` is where they show.
pub fn cache(out: &mut Outcome, id_dim: usize) {
    let cache = TowerCache::new(
        CacheAxis::User,
        rrre_serve::EngineConfig::default().cache_shards,
    );
    let value = Tensor::zeros(1, id_dim);
    let entries = 100_000u32;
    let t = Instant::now();
    for k in 0..entries {
        black_box(cache.get_or_compute(k / 200, k % 200, || value.clone()));
    }
    out.set(
        "serve.cache.miss_insert_ns",
        t.elapsed().as_nanos() as f64 / entries as f64,
    );
    let mut k = 0u32;
    out.set(
        "serve.cache.hit_ns",
        per_call_ns(9, 20_000, || {
            k = (k + 7919) % entries;
            black_box(
                cache.get_or_compute(k / 200, k % 200, || unreachable!("every key was inserted")),
            );
        }),
    );
    let bytes = std::mem::size_of::<u64>()
        + std::mem::size_of::<Tensor>()
        + id_dim * std::mem::size_of::<f32>();
    out.set("serve.cache.bytes_per_entry", bytes as f64);
}

/// `serve.artifact`: save and load of the bench artifact, and its size.
pub fn artifact(
    out: &mut Outcome,
    inputs: &crate::inputs::Inputs,
    dir: &Path,
) -> std::io::Result<()> {
    let t = Instant::now();
    inputs.save(dir, 1)?;
    out.set("serve.artifact.save_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    black_box(ModelArtifact::load(dir)?);
    out.set("serve.artifact.load_ms", t.elapsed().as_secs_f64() * 1e3);
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir)? {
        bytes += entry?.metadata()?.len();
    }
    out.set("serve.artifact.bytes", bytes as f64);
    std::fs::remove_dir_all(dir)
}

/// `serve.wal`: appends with and without the per-record fsync, the fsync
/// alone, and replay. The fsync numbers are this machine's disk under the
/// benchmark's working directory — comparable between two commits on one
/// machine, not between machines.
pub fn wal(out: &mut Outcome, dir: &Path, records: &[WalRecord]) -> std::io::Result<()> {
    let segment_bytes = rrre_serve::IngestConfig::default().segment_bytes;
    let mut bytes = 0;
    let mut timed_append = |sub: &str, policy: FsyncPolicy, n: usize| -> std::io::Result<f64> {
        let mut w = WalWriter::open(&dir.join(sub), segment_bytes, policy)?;
        let t = Instant::now();
        for rec in records.iter().cycle().take(n) {
            bytes = w.append(rec)?;
        }
        Ok(t.elapsed().as_nanos() as f64 / n as f64 / 1e3)
    };
    let nosync = timed_append("nosync", FsyncPolicy::Batched { every: usize::MAX }, 10_000)?;
    let fsync = timed_append("fsync", FsyncPolicy::EveryRecord, 300)?;
    out.set("serve.wal.append_us.nosync", nosync);
    out.set("serve.wal.append_us.fsync", fsync);
    out.set("serve.wal.fsync_us", (fsync - nosync).max(0.0));
    out.set("serve.wal.bytes_per_record", bytes as f64);
    let t = Instant::now();
    let recovered = rrre_serve::wal::replay_and_repair(&dir.join("nosync"))
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    out.expect(
        recovered.records.len() == 10_000,
        "wal replay returned a different record count than was appended",
    );
    out.set(
        "serve.wal.replay_ms_per_10k",
        t.elapsed().as_secs_f64() * 1e3,
    );
    std::fs::remove_dir_all(dir)
}
