//! `scatter_warm`: scatter-gather `Recommend` over three shard engines.
//!
//! Two callers in a closed loop ask a `ShardedClient` for `Recommend k=10`
//! over 64 users whose towers every shard already holds, so the towers do
//! nothing: the work is the heads and the ranking over each shard's slice of
//! the catalog, the gather-side merge, the client's scatter threads and
//! three wire round trips. Latency follows the slowest of the three legs,
//! and each leg pays the engine's batch window.

use super::{
    closed_loop_callers, encode, prepare, report_engine_counters, report_latency, Ctx, FLOOR_SHARE,
    REFERENCE_SHARE, SATURATION_SHARE, WINDOWS,
};
use crate::fleet::{self, Node};
use crate::inputs::{permutation, Size};
use crate::loadgen;
use crate::metrics::{median, Outcome};
use crate::probes;
use rrre_client::{ClientConfig, ShardedClient};
use rrre_data::UserId;
use rrre_shard::plan::plan;
use rrre_shard::{merge_recommendations, merge_stats};
use rrre_wire::{RecommendationDto, Request, Response};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

const SHARDS: u32 = 3;
const CALLERS: usize = 2;
const WARM_USERS: usize = 64;
const K: usize = 10;
/// Answers of the timed phase checked against the whole model.
const ORACLE_SAMPLES: u64 = 32;

struct Fleet {
    // Dropped in this order: the client's pooled connections first.
    client: ShardedClient,
    nodes: Vec<Node>,
}

/// Three artifact loads + launches, the client, and one `Recommend` per
/// warm user so that every shard has cached its slice of that user.
fn setup(dir: &Path, users: &[u32]) -> Result<Fleet, String> {
    let (nodes, topology) = fleet::sharded(dir, SHARDS).map_err(|e| e.to_string())?;
    let client = ShardedClient::new(topology, ClientConfig::default())?;
    for &u in users {
        let resp = client
            .request(Request::recommend(u, K))
            .map_err(|e| format!("warm-up request failed: {e:?}"))?;
        if !resp.ok || resp.degraded == Some(true) {
            return Err(format!("warm-up answer not ok: {resp:?}"));
        }
    }
    Ok(Fleet { client, nodes })
}

fn ok(resp: &Result<Response, rrre_client::ClientError>) -> bool {
    resp.as_ref()
        .is_ok_and(|r| r.ok && r.degraded != Some(true))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();
    let (inputs, dir) = prepare(ctx, Size::Bench, SHARDS);
    let users: Vec<u32> = permutation(ctx.seed, inputs.dataset.n_users)
        .into_iter()
        .take(WARM_USERS)
        .collect();
    let user_of = |caller: usize, k: u64| users[(caller * 31 + k as usize) % users.len()];

    let mut setups = Vec::new();
    let mut fleet = None;
    for _ in 0..if ctx.trace { 1 } else { ctx.setups } {
        drop(fleet.take());
        let t = Instant::now();
        fleet = Some(setup(&dir, &users).expect("set-up failed"));
        setups.push(t.elapsed().as_secs_f64());
    }
    let Fleet { client, nodes } = fleet.expect("at least one set-up");
    println!("setup: {setups:.3?} s");

    if ctx.trace {
        traced(&mut out, ctx, &inputs, &client, &nodes, &users);
        client.shutdown();
        return out;
    }
    drop(inputs);
    out.set("setup_s", median(&mut setups));

    let floor = closed_loop_callers(1, ctx.share(FLOOR_SHARE), 1, &|c, k| {
        ok(&client.request(Request::recommend(user_of(c, k), K)))
    });
    out.count(floor.attempted, floor.failed);
    out.set("floor_p50_ms", floor.windows.quantile_ms(0.5));
    println!(
        "floor (1 caller): n={} p50 {:.3} ms",
        floor.windows.count(),
        floor.windows.quantile_ms(0.5)
    );

    // One closed-loop phase gives both the latency and the throughput.
    let samples: Mutex<Vec<(u32, Response)>> = Mutex::new(Vec::new());
    let main = closed_loop_callers(
        CALLERS,
        ctx.share(REFERENCE_SHARE + SATURATION_SHARE),
        WINDOWS,
        &|c, k| {
            let user = user_of(c, k);
            let resp = client.request(Request::recommend(user, K));
            let good = ok(&resp);
            if let (true, Ok(resp)) = (k < ORACLE_SAMPLES / CALLERS as u64, resp) {
                samples
                    .lock()
                    .expect("sample lock poisoned")
                    .push((user, resp));
            }
            good
        },
    );
    out.count(main.attempted, main.failed);
    report_latency(
        &mut out,
        false,
        &format!("closed loop ({CALLERS} callers)"),
        &main.windows,
    );
    out.set("throughput_ops_s", main.windows.rate());
    out.set("rss_mb", probes::rss_mb());
    println!(
        "closed loop: attempted {} failed {} -> {:.1} ok/s (median window)",
        main.attempted,
        main.failed,
        main.windows.rate()
    );

    // Oracle: the gathered answer equals the whole-model answer, bit for bit.
    let generation = nodes[0].engine.generation();
    let art = &generation.artifact;
    let samples = samples.into_inner().expect("sample lock poisoned");
    out.expect(
        samples.len() as u64 == ORACLE_SAMPLES,
        format!(
            "{} of {ORACLE_SAMPLES} sampled answers arrived",
            samples.len()
        ),
    );
    for (user, resp) in &samples {
        let want = rrre_core::recommend(&art.model, &art.dataset, &art.corpus, UserId(*user), K);
        let same = resp.recommendations.as_ref().is_some_and(|got| {
            got.len() == want.len()
                && got.iter().zip(&want).all(|(g, w)| {
                    g.item == w.item.0
                        && g.rating.to_bits() == w.rating.to_bits()
                        && g.reliability.to_bits() == w.reliability.to_bits()
                })
        });
        out.expect(
            same,
            format!("scatter-gather answer for user {user} differs from rrre_core::recommend"),
        );
    }
    println!(
        "oracle: {} gathered answers equal rrre_core::recommend on the whole model",
        samples.len()
    );
    client.shutdown();
    out
}

fn traced(
    out: &mut Outcome,
    ctx: &Ctx,
    inputs: &crate::inputs::Inputs,
    client: &ShardedClient,
    nodes: &[Node],
    users: &[u32],
) {
    let user_of = |caller: usize, k: u64| users[(caller * 31 + k as usize) % users.len()];
    let snapshot = || merge_stats(&nodes.iter().map(|n| n.engine.stats()).collect::<Vec<_>>());

    // Counters over a closed-loop phase, all three shard engines together.
    let before = snapshot();
    let phase = closed_loop_callers(CALLERS, ctx.share(0.25), 3, &|c, k| {
        ok(&client.request(Request::recommend(user_of(c, k), K)))
    });
    let after = snapshot();
    out.count(phase.attempted, phase.failed);
    report_latency(
        out,
        true,
        &format!("closed loop ({CALLERS} callers)"),
        &phase.windows,
    );
    report_engine_counters(out, &before, &after);
    out.set(
        "bench.fail_share",
        phase.failed as f64 / phase.attempted.max(1) as f64,
    );

    // Legs one by one through each shard's own client, then the scatter.
    let (mut legs, mut slowest, mut skew, mut scatter) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for k in 0..150u64 {
        let req = Request::recommend(user_of(0, k), K);
        let times: Vec<f64> = (0..SHARDS)
            .map(|s| {
                let t = Instant::now();
                out.expect(
                    ok(&client.shard_client(s).request(req.clone())),
                    format!("leg {s} refused"),
                );
                t.elapsed().as_secs_f64()
            })
            .collect();
        let max = times.iter().copied().fold(0.0, f64::max);
        skew.push(max / (times.iter().sum::<f64>() / times.len() as f64));
        slowest.push(max);
        legs.extend(times);
        let t = Instant::now();
        out.expect(ok(&client.request(req)), "scatter refused");
        scatter.push(t.elapsed().as_secs_f64());
    }
    out.set("shard.leg_p50_ms", median(&mut legs) * 1e3);
    out.set("shard.leg_max_over_mean", median(&mut skew));
    out.set(
        "client.scatter_overhead_us",
        (median(&mut scatter) - median(&mut slowest)) * 1e6,
    );

    // `Client::request` against the same request on a raw depth-1 socket.
    let shard0 = client.shard_client(0);
    let (mut stream, mut reader) =
        loadgen::depth1(&nodes[0].addr).expect("cannot connect to shard 0");
    let (mut via_client, mut raw) = (Vec::new(), Vec::new());
    for (k, line) in encode((0..150).map(|k| Request::recommend(user_of(1, k), K)))
        .iter()
        .enumerate()
    {
        let t = Instant::now();
        out.expect(
            ok(&shard0.request(Request::recommend(user_of(1, k as u64), K))),
            "shard 0 refused",
        );
        via_client.push(t.elapsed().as_secs_f64());
        let (_, rt) =
            loadgen::round_trip(&mut stream, &mut reader, line).expect("raw round trip failed");
        raw.push(rt.as_secs_f64());
    }
    let raw_p50 = median(&mut raw);
    out.set(
        "client.overhead_us",
        (median(&mut via_client) - raw_p50) * 1e6,
    );
    let snap = client.snapshot();
    out.set(
        "client.retries",
        snap.shards.iter().map(|s| s.retries).sum::<u64>() as f64,
    );
    out.set(
        "client.hedges",
        snap.shards.iter().map(|s| s.hedges).sum::<u64>() as f64,
    );

    // Pure functions of the gather side.
    let req = Request::recommend(users[0], K);
    out.set(
        "shard.route_ns",
        probes::per_call_ns(9, 2_000, || {
            std::hint::black_box(plan(client.map(), std::hint::black_box(&req)));
        }),
    );
    let rows: Vec<RecommendationDto> = (0..SHARDS)
        .flat_map(|s| {
            let resp = client
                .shard_client(s)
                .request(req.clone())
                .expect("leg refused");
            resp.recommendations.expect("Recommend answers carry rows")
        })
        .collect();
    out.set(
        "shard.merge_us",
        probes::per_call_ns(9, 500, || {
            std::hint::black_box(merge_recommendations(rows.clone(), K));
        }) / 1e3,
    );

    // One shard engine with no TCP around it, and the shared micro-probes.
    let mut submits: Vec<f64> = (0..100u64)
        .map(|k| {
            let t = Instant::now();
            out.expect(
                nodes[0]
                    .engine
                    .submit(Request::recommend(user_of(0, k), K))
                    .ok,
                "engine refused",
            );
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let submit_p50 = median(&mut submits);
    out.set("serve.engine.submit_us", submit_p50);
    // What the depth-1 round trip costs beyond the engine: codec, frame,
    // epoll loop, kernel and the client socket together.
    out.set("serve.server.residual_us", raw_p50 * 1e6 - submit_p50);
    let generation = nodes[0].engine.generation();
    let art = &generation.artifact;
    let probe_resp = nodes[0].engine.submit(req.clone().with_id(1));
    probes::wire(out, &req.with_id(1), &probe_resp);
    probes::cache(out, art.model.config().id_dim);
    probes::core_heads(out, &art.model, &art.dataset, users);
    probes::artifact(out, inputs, &ctx.work.join("artifact-probe")).expect("artifact probe failed");
}
