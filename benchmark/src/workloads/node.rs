//! `recommend_cold` and `predict_hot`: one whole-model node, open loop.
//!
//! The two share every line of harness and differ only in what they ask
//! for, which is the point: they are the two sides of the `TowerCache`.
//! **Cold** sends `Recommend k=10` for a user never seen before, so every
//! (user, item) pair misses and the cache is only written; the towers do
//! nearly all the work. **Hot** sends `Predict` over 64 × 32 pairs that were
//! warmed during set-up, so the cache is only read and the request is
//! framing, codec, queue and the batch window. A change to the towers must
//! move cold and leave hot alone; a change to the codec, the reverse.

use super::{
    decode, encode, hit_share, prepare, report_engine_counters, report_latency, Ctx, FLOOR_SHARE,
    MIN_LATENCY_SAMPLES, REFERENCE_SHARE, SATURATION_SHARE, WINDOWS,
};
use crate::fleet::Node;
use crate::inputs::{permutation, Size};
use crate::loadgen::{self, Conns, EchoServer, PhaseResult};
use crate::metrics::{median, Outcome};
use crate::probes;
use crate::trace::Trace;
use rrre_core::{rank_candidates, Prediction};
use rrre_data::{ItemId, UserId};
use rrre_serve::{Engine, EngineConfig, FrameDecoder, ModelArtifact};
use rrre_wire::{decode_request, encode_response, Request, Response, MAX_LINE_BYTES};
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Cold,
    Hot,
}

/// `Recommend` depth asked for.
const K: usize = 10;
/// Warm set of `predict_hot`: users × items.
const HOT_USERS: usize = 64;
const HOT_ITEMS: usize = 32;
/// Rate ladder as multiples of the reference rate.
const LADDER: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];
/// Connections and closed-loop window per connection.
const CONNS: usize = 2;
const WINDOW: usize = 32;
/// Unseen users set aside per second of a cold saturation phase: 1.6 × what
/// the seed commit gets through on two cores.
const SATURATION_USERS_PER_S: f64 = 700.0;
/// Requests replayed span by span in a traced run.
const TRACED_REQUESTS: usize = 200;

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cold => "recommend_cold",
            Kind::Hot => "predict_hot",
        }
    }

    /// Reference rate in req/s: 0.3 (cold) and 0.2 (hot) × the seed commit's
    /// saturation throughput on the bench artifact (≈ 470 and ≈ 97 000 req/s
    /// on two cores), rounded and hard-coded so that every commit is offered
    /// the same load. Hot stays lower because generator and node share the
    /// two cores: at 30 000 req/s its p50 spread 36 % over ten runs.
    fn rate(self) -> f64 {
        match self {
            Kind::Cold => 150.0,
            Kind::Hot => 20_000.0,
        }
    }

    /// Latency limit of a ladder rung.
    fn slo(self) -> Duration {
        match self {
            Kind::Cold => Duration::from_millis(100),
            Kind::Hot => Duration::from_millis(10),
        }
    }

    /// Requests for a closed-loop phase of `dur`, and whether the phase
    /// cycles through them. Cold gets `per_s` unseen users per second of
    /// phase (the loop simply ends early if a faster system uses them up);
    /// hot rotates through its warm set.
    fn closed_loop_lines(
        self,
        reqs: &mut Requests,
        dur: Duration,
        per_s: f64,
    ) -> (Vec<String>, bool) {
        match self {
            Kind::Cold => (
                encode(reqs.take((dur.as_secs_f64() * per_s) as usize)),
                false,
            ),
            Kind::Hot => (encode(reqs.take(16 * HOT_USERS * HOT_ITEMS)), true),
        }
    }

    /// Shares of `--seconds` for the reference and the saturation phase.
    /// Cold needs the long reference phase for its 1 000 requests at
    /// 150 req/s. Hot has those within a tenth of a second, and its
    /// saturation rate — generator and node sharing two cores — wanders
    /// between 86 000 and 112 000 req/s from one second to the next and
    /// drops to 75 000 for seconds at a time when the host is busy, so it
    /// spends the time there: over ten seeds the median of five 0.6-s
    /// windows spread 12 to 30 %.
    fn shares(self) -> (f64, f64) {
        match self {
            Kind::Cold => (REFERENCE_SHARE, SATURATION_SHARE),
            Kind::Hot => (0.15, 0.65),
        }
    }

    /// Windows of the reference phase: hot has 3 600 requests in each of
    /// ten, cold 200 in each of five.
    fn reference_windows(self) -> usize {
        match self {
            Kind::Cold => WINDOWS,
            Kind::Hot => 2 * WINDOWS,
        }
    }

    /// Windows of the saturation phase, half a second each or a little more.
    fn saturation_windows(self) -> usize {
        match self {
            Kind::Cold => WINDOWS,
            Kind::Hot => 15,
        }
    }

    /// Responses of the reference phase checked against the model.
    fn oracle_samples(self) -> u64 {
        match self {
            Kind::Cold => 32,
            Kind::Hot => 64,
        }
    }
}

/// Hands out this run's requests: fresh users for cold, the warm pairs in
/// rotation for hot.
struct Requests {
    kind: Kind,
    /// Seeded permutation of the user ids; cold consumes it front to back.
    users: Vec<u32>,
    next_user: usize,
    pairs: Vec<(u32, u32)>,
    next_pair: usize,
}

impl Requests {
    fn new(kind: Kind, seed: u64, n_users: usize, n_items: usize) -> Self {
        let users = permutation(seed, n_users);
        // The warm set comes from the far end of the permutation, which cold
        // never reaches.
        let pairs = users
            .iter()
            .rev()
            .take(HOT_USERS)
            .flat_map(|&u| (0..HOT_ITEMS).map(move |j| (u, (j * n_items / HOT_ITEMS) as u32)))
            .collect();
        Self {
            kind,
            users,
            next_user: 0,
            pairs,
            next_pair: 0,
        }
    }

    /// The next `n` requests (fewer if cold has run out of unseen users).
    fn take(&mut self, n: usize) -> Vec<Request> {
        match self.kind {
            Kind::Cold => {
                let spare = self.users.len() - HOT_USERS - self.next_user;
                let from = self.next_user;
                self.next_user += n.min(spare);
                self.users[from..self.next_user]
                    .iter()
                    .map(|&u| Request::recommend(u, K))
                    .collect()
            }
            Kind::Hot => (0..n)
                .map(|_| {
                    let (u, i) = self.pairs[self.next_pair % self.pairs.len()];
                    self.next_pair += 1;
                    Request::predict(u, i)
                })
                .collect(),
        }
    }
}

/// Artifact load + node launch + connections + warm-up: what `setup_s`
/// times. Cold warms code paths with 16 users the measured phases never
/// reuse; hot fills the cache with its whole warm set.
fn setup(kind: Kind, dir: &Path, reqs: &mut Requests) -> std::io::Result<(Node, Conns)> {
    let node = Node::whole(dir)?;
    let mut conns = Conns::connect(&node.addr, CONNS)?;
    let warm = match kind {
        Kind::Cold => encode(reqs.take(16)),
        Kind::Hot => encode(reqs.pairs.iter().map(|&(u, i)| Request::predict(u, i))),
    };
    let r = conns.closed_loop(&warm, false, 8, Duration::from_secs(30), 1, &|_| false);
    if r.ok != warm.len() as u64 {
        return Err(std::io::Error::other(format!(
            "warm-up: {} of {} requests answered ok",
            r.ok,
            warm.len()
        )));
    }
    Ok((node, conns))
}

/// Checks sampled responses against the model loaded in the node itself:
/// cold answers must equal `rrre_core::recommend` (items, names and score
/// bits), hot answers `Rrre::predict`.
fn oracle(out: &mut Outcome, kind: Kind, node: &Node, sent: &[Request], phase: &PhaseResult) {
    let generation = node.engine.generation();
    let art = &generation.artifact;
    let wanted = kind.oracle_samples().min(sent.len() as u64);
    out.expect(
        phase.samples.len() as u64 == wanted,
        format!(
            "{} of {wanted} sampled responses arrived",
            phase.samples.len()
        ),
    );
    for (id, line) in &phase.samples {
        let req = &sent[*id as usize];
        let Some(resp) = decode(line) else {
            out.miss(format!("response {id} does not decode: {line}"));
            continue;
        };
        let user = UserId(req.user.expect("bench requests carry a user"));
        let same = match kind {
            Kind::Cold => {
                let want = rrre_core::recommend(&art.model, &art.dataset, &art.corpus, user, K);
                resp.recommendations.as_ref().is_some_and(|got| {
                    got.len() == want.len()
                        && got.iter().zip(&want).all(|(g, w)| {
                            g.item == w.item.0
                                && g.item_name == w.item_name
                                && g.rating.to_bits() == w.rating.to_bits()
                                && g.reliability.to_bits() == w.reliability.to_bits()
                        })
                })
            }
            Kind::Hot => {
                let item = ItemId(req.item.expect("predict requests carry an item"));
                let want = art.model.predict(&art.corpus, user, item);
                resp.prediction.as_ref().is_some_and(|got| {
                    got.rating.to_bits() == want.rating.to_bits()
                        && got.reliability.to_bits() == want.reliability.to_bits()
                })
            }
        };
        out.expect(
            same,
            format!("response {id} differs from the direct model answer: {line}"),
        );
    }
    println!(
        "oracle: {} sampled answers equal the direct model call",
        phase.samples.len()
    );
}

pub fn run(kind: Kind, ctx: &Ctx) -> Outcome {
    let (inputs, dir) = prepare(ctx, Size::Bench, 1);
    let mut reqs = Requests::new(
        kind,
        ctx.seed,
        inputs.dataset.n_users,
        inputs.dataset.n_items,
    );
    if ctx.trace {
        traced(kind, ctx, &inputs, &dir, &mut reqs)
    } else {
        drop(inputs);
        untraced(kind, ctx, &dir, &mut reqs)
    }
}

fn untraced(kind: Kind, ctx: &Ctx, dir: &Path, reqs: &mut Requests) -> Outcome {
    let mut out = Outcome::new();

    let mut setups = Vec::new();
    let mut fleet = None;
    for _ in 0..ctx.setups {
        drop(fleet.take());
        let t = Instant::now();
        fleet = Some(setup(kind, dir, reqs).expect("set-up failed"));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (node, mut conns) = fleet.expect("at least one set-up");
    println!("setup: {setups:.3?} s");
    out.set("setup_s", median(&mut setups));
    let warm = node.engine.stats();

    // Floor: what a lone request pays — one connection, one in flight.
    let floor_dur = ctx.share(FLOOR_SHARE);
    let (floor_lines, cycle) = kind.closed_loop_lines(reqs, floor_dur, 300.0);
    let floor = Conns::connect(&node.addr, 1)
        .expect("cannot connect for the floor phase")
        .closed_loop(&floor_lines, cycle, 1, floor_dur, 1, &|_| false);
    out.count(floor.sent, floor.failed);
    out.set("floor_p50_ms", floor.latency.quantile_ms(0.5));
    println!(
        "floor (depth 1): n={} p50 {:.3} ms",
        floor.latency.count(),
        floor.latency.quantile_ms(0.5)
    );

    // Reference: open loop at the fixed rate, at least 1 000 requests.
    let rate = kind.rate();
    let (reference_share, saturation_share) = kind.shares();
    let n = ((rate * ctx.share(reference_share).as_secs_f64()) as usize).max(MIN_LATENCY_SAMPLES);
    let sent = reqs.take(n);
    let samples = kind.oracle_samples();
    let reference = conns.open_loop(
        &encode(sent.iter().cloned()),
        rate,
        kind.slo(),
        kind.reference_windows(),
        &|id| id < samples,
    );
    out.count(reference.sent, reference.failed);
    report_latency(
        &mut out,
        false,
        &format!("reference ({rate} req/s, open loop, from due time)"),
        &reference.windows,
    );
    println!(
        "reference: sent {} ok {} achieved {:.1} req/s, generator lateness p99 {:.3} ms",
        reference.sent,
        reference.ok,
        reference.achieved_per_s,
        reference.lateness.quantile_ms(0.99)
    );
    out.expect(
        sent.len() == n,
        format!(
            "ran out of unseen users: {} of {n} reference requests",
            sent.len()
        ),
    );
    // A fixed number of operations has run on every commit by now.
    out.set("rss_mb", probes::rss_mb());

    // Saturation: closed loop, as much as the node will take.
    let sat_dur = ctx.share(saturation_share);
    let (sat_lines, cycle) = kind.closed_loop_lines(reqs, sat_dur, SATURATION_USERS_PER_S);
    let sat = conns.closed_loop(
        &sat_lines,
        cycle,
        WINDOW,
        sat_dur,
        kind.saturation_windows(),
        &|_| false,
    );
    out.count(sat.sent, sat.failed);
    out.set("throughput_ops_s", sat.windows.rate());
    println!(
        "saturation ({CONNS} conns x {WINDOW} in flight): sent {} ok {} -> {:.1} ok/s (median of {} windows), p50 {:.3} ms",
        sat.sent,
        sat.ok,
        sat.windows.rate(),
        sat.windows.windows.len(),
        sat.latency.quantile_ms(0.5)
    );

    oracle(&mut out, kind, &node, &sent, &reference);
    let share = hit_share(&warm, &node.engine.stats());
    match kind {
        Kind::Cold => out.expect(
            share <= 0.02,
            format!("cache hit share {share:.4} > 0.02 on the cold workload"),
        ),
        Kind::Hot => out.expect(
            share >= 0.99,
            format!("cache hit share {share:.4} < 0.99 on the hot workload"),
        ),
    }
    println!("cache hit share after warm-up: {share:.4}");
    out
}

/// One ladder rung's verdict.
enum Rung {
    Pass,
    /// The system missed the SLO share or fell short of the offered rate.
    Fail,
    /// The generator itself ran late; the rung says nothing about the system.
    Void,
}

/// A rung is void when the generator's own lateness p99 reaches this share
/// of the rung's latency limit: latency is timed from the due instant, so a
/// late generator pollutes it. (On two cores shared with the node under
/// test, a fixed 1 ms would void cold rungs whose limit is 100 ms.)
const LATENESS_SHARE_OF_SLO: f64 = 0.2;

/// The highest ladder rate the generator sustains cleanly against the echo
/// server, probed from the bottom rung up.
fn generator_clean_rate(kind: Kind, lines: &[String], rates: &[f64]) -> f64 {
    let echo = EchoServer::start().expect("cannot start the echo server");
    let mut conns = Conns::connect(&echo.addr(), CONNS).expect("cannot connect to the echo server");
    let mut clean_up_to = 0.0;
    for &rate in rates {
        let n = ((rate * 0.3) as usize).min(lines.len()).min(40_000);
        let r = conns.open_loop(&lines[..n], rate, kind.slo(), 1, &|_| false);
        let late = r.lateness.quantile_ms(0.99);
        let clean = r.achieved_per_s >= 0.97 * rate
            && late < kind.slo().as_secs_f64() * 1e3 * LATENESS_SHARE_OF_SLO;
        println!(
            "generator self-test at {rate:.0} req/s vs echo: achieved {:.0}, lateness p99 {late:.3} ms -> {}",
            r.achieved_per_s,
            if clean { "clean" } else { "not sustained" }
        );
        if !clean {
            break;
        }
        clean_up_to = rate;
    }
    clean_up_to
}

fn traced(
    kind: Kind,
    ctx: &Ctx,
    inputs: &crate::inputs::Inputs,
    dir: &Path,
    reqs: &mut Requests,
) -> Outcome {
    let mut out = Outcome::new();
    let (node, mut conns) = setup(kind, dir, reqs).expect("set-up failed");
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Counters over a plain saturation phase.
    let phase = ctx.share(0.12);
    let before = node.engine.stats();
    let (plain_lines, cycle) = kind.closed_loop_lines(reqs, phase, SATURATION_USERS_PER_S);
    let plain = conns.closed_loop(&plain_lines, cycle, WINDOW, phase, 3, &|_| false);
    let after = node.engine.stats();
    attempted += plain.sent;
    failed += plain.failed;
    report_engine_counters(&mut out, &before, &after);

    // The same phase with every response line kept, as a recording client
    // would: the cost of the benchmark's own tracing.
    let (kept_lines, cycle) = kind.closed_loop_lines(reqs, phase, SATURATION_USERS_PER_S);
    let kept = conns.closed_loop(&kept_lines, cycle, WINDOW, phase, 3, &|_| true);
    attempted += kept.sent;
    failed += kept.failed;
    let (plain_rate, kept_rate) = (plain.windows.rate(), kept.windows.rate());
    out.set(
        "bench.trace_overhead_pct",
        100.0 * (plain_rate - kept_rate) / plain_rate,
    );
    println!(
        "saturation: plain {plain_rate:.1} ok/s, recording every response {kept_rate:.1} ok/s"
    );

    // Rate ladder: rung 1 is the reference rate; stop at the first rung
    // that fails or that the generator cannot vouch for.
    let rates: Vec<f64> = LADDER.iter().map(|m| m * kind.rate()).collect();
    let clean = generator_clean_rate(kind, &plain_lines, &rates);
    let rung_s = ctx.seconds * 0.08;
    let mut max_ok = 0.0;
    for (i, &rate) in rates.iter().enumerate() {
        if rate > clean {
            println!("rung {} ({rate:.0} req/s): void, the generator does not sustain this rate against the echo server", i + 1);
            break;
        }
        let sent = reqs.take((rate * rung_s) as usize);
        if (sent.len() as f64) < rate * rung_s * 0.9 {
            println!(
                "rung {} ({rate:.0} req/s): void, out of unseen users",
                i + 1
            );
            break;
        }
        let r = conns.open_loop(&encode(sent), rate, kind.slo(), 1, &|_| false);
        let late = r.lateness.quantile_ms(0.99);
        let met = r.within_slo as f64 / r.sent.max(1) as f64;
        let verdict = if met < 0.99 || r.achieved_per_s < 0.97 * rate {
            Rung::Fail
        } else if late >= kind.slo().as_secs_f64() * 1e3 * LATENESS_SHARE_OF_SLO {
            Rung::Void
        } else {
            Rung::Pass
        };
        println!(
            "rung {} ({rate:.0} req/s): {:.2} % within {:?}, achieved {:.0} req/s, p50 {:.3} ms p{:.0} {:.3} ms, lateness p99 {late:.3} ms -> {}",
            i + 1,
            met * 100.0,
            kind.slo(),
            r.achieved_per_s,
            r.latency.quantile_ms(0.5),
            r.latency.tail(0.99).0 * 100.0,
            r.latency.tail(0.99).1 / 1e6,
            match verdict {
                Rung::Pass => "pass",
                Rung::Fail => "FAIL",
                Rung::Void => "void",
            }
        );
        if i == 0 {
            out.set("bench.gen_late_ms_p99", late);
            report_latency(&mut out, true, "rung 1 = reference rate", &r.windows);
        }
        match verdict {
            Rung::Pass => {
                attempted += r.sent;
                failed += r.failed;
                max_ok = rate;
            }
            Rung::Fail => {
                out.set("bench.overload_fail_share", 1.0 - met);
                break;
            }
            Rung::Void => break,
        }
    }
    out.set("bench.max_rate_ok_rps", max_ok);
    out.set("bench.fail_share", failed as f64 / attempted.max(1) as f64);
    out.count(attempted, failed);

    let trace = replay(&mut out, kind, &node, dir, reqs);
    trace.print_budget(kind.name());
    let path = ctx.out_dir.join(format!("trace-{}.json", kind.name()));
    match trace.write(&path) {
        Ok(()) => println!("{} spans written to {}", trace.spans.len(), path.display()),
        Err(e) => out.miss(format!("cannot write {}: {e}", path.display())),
    }

    // Micro-probes of the layers this workload exercises.
    let generation = node.engine.generation();
    let art = &generation.artifact;
    let probe_req = reqs.take(1).pop().expect("one more request").with_id(1);
    let probe_resp = node.engine.submit(probe_req.clone());
    out.expect(probe_resp.ok, "probe request refused");
    probes::wire(&mut out, &probe_req, &probe_resp);
    probes::cache(&mut out, art.model.config().id_dim);
    if kind == Kind::Cold {
        probes::tensor(&mut out, &art.model, &art.corpus);
        probes::core_towers(&mut out, &art.model, &art.dataset, &art.corpus, &reqs.users);
    }
    probes::core_heads(&mut out, &art.model, &art.dataset, &reqs.users);
    probes::artifact(&mut out, inputs, &ctx.work.join("artifact-probe"))
        .expect("artifact probe failed");
    out
}

/// Replays [`TRACED_REQUESTS`] requests span by span (see `trace.rs`).
/// Cold replays the engine step on a second, equally cold engine, because
/// the round trip has already warmed the node's cache for that user.
fn replay(out: &mut Outcome, kind: Kind, node: &Node, dir: &Path, reqs: &mut Requests) -> Trace {
    let twin = (kind == Kind::Cold).then(|| {
        Engine::new(
            ModelArtifact::load(dir).expect("cannot load the twin engine's artifact"),
            EngineConfig::default(),
        )
    });
    let engine: &Engine = twin.as_ref().unwrap_or(&node.engine);
    let generation = node.engine.generation();
    let (model, ds) = (&generation.artifact.model, &generation.artifact.dataset);
    let (mut stream, mut reader) =
        loadgen::depth1(&node.addr).expect("cannot connect for the traced replay");
    let mut decoder = FrameDecoder::new(MAX_LINE_BYTES);
    let epoch = Instant::now();
    let mut trace = Trace::default();
    let (mut roots, mut submits, mut residuals, mut tower_shares) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());

    for (n, req) in reqs.take(TRACED_REQUESTS).into_iter().enumerate() {
        let req = req.with_id(n as u64);
        let line = serde_json::to_string(&req).expect("Request serialisation cannot fail");
        let at = epoch.elapsed().as_nanos() as u64;
        let Ok((answer, rt)) = loadgen::round_trip(&mut stream, &mut reader, &line) else {
            out.miss(format!("traced request {n}: round trip failed"));
            break;
        };
        out.expect(
            decode(&answer).is_some_and(|r| r.ok),
            format!("traced request {n} refused: {answer}"),
        );
        let root = trace.root("tcp.round_trip", n as u64, at, rt);

        let t = Instant::now();
        std::hint::black_box(
            serde_json::to_string(&req).expect("Request serialisation cannot fail"),
        );
        trace.child("wire.encode_request", root, t.elapsed(), false);

        let framed = format!("{line}\n");
        let t = Instant::now();
        decoder.push(framed.as_bytes());
        std::hint::black_box(decoder.next_event());
        trace.child("serve.frame.decode", root, t.elapsed(), false);

        let t = Instant::now();
        std::hint::black_box(decode_request(&line).expect("own request decodes"));
        trace.child("wire.decode_request", root, t.elapsed(), false);

        let t = Instant::now();
        let resp: Response = engine.submit(req.clone());
        let submit_dur = t.elapsed();
        let submit = trace.child("serve.engine.submit", root, submit_dur, false);
        out.expect(
            resp.ok,
            format!("traced request {n}: engine refused the replay"),
        );

        // Derived: the model work inside `submit`, replayed on the same pairs.
        let user = UserId(req.user.expect("bench requests carry a user"));
        let mut towers = Duration::ZERO;
        match kind {
            Kind::Cold => {
                let items: Vec<ItemId> = (0..ds.n_items as u32).map(ItemId).collect();
                let t = Instant::now();
                let xs: Vec<_> = items
                    .iter()
                    .map(|&i| model.infer_user_tower(user, i))
                    .collect();
                let d = t.elapsed();
                towers += d;
                trace.child("core.user_tower", submit, d, true);
                let t = Instant::now();
                let ys: Vec<_> = items
                    .iter()
                    .map(|&i| model.infer_item_tower(user, i))
                    .collect();
                let d = t.elapsed();
                towers += d;
                trace.child("core.item_tower", submit, d, true);
                let t = Instant::now();
                let mut scored: Vec<(ItemId, Prediction)> = items
                    .iter()
                    .zip(xs.iter().zip(&ys))
                    .map(|(&i, (x, y))| (i, model.infer_heads(user, i, x, y)))
                    .collect();
                trace.child("core.heads", submit, t.elapsed(), true);
                let t = Instant::now();
                rank_candidates(&mut scored, K);
                std::hint::black_box(scored);
                trace.child("core.rank", submit, t.elapsed(), true);
            }
            Kind::Hot => {
                // Both towers come from the cache; only the heads run.
                let item = ItemId(req.item.expect("predict requests carry an item"));
                let (x, y) = (
                    model.infer_user_tower(user, item),
                    model.infer_item_tower(user, item),
                );
                let t = Instant::now();
                std::hint::black_box(model.infer_heads(user, item, &x, &y));
                trace.child("core.heads", submit, t.elapsed(), true);
            }
        }

        let t = Instant::now();
        std::hint::black_box(encode_response(&resp));
        trace.child("wire.encode_response", root, t.elapsed(), false);

        roots.push(rt.as_nanos() as f64);
        submits.push(submit_dur.as_nanos() as f64);
        residuals.push(trace.self_ns(root) as f64);
        tower_shares.push(towers.as_secs_f64() / rt.as_secs_f64());
    }
    if roots.is_empty() {
        return trace;
    }
    out.set("serve.engine.submit_us", median(&mut submits) / 1e3);
    out.set("serve.server.residual_us", median(&mut residuals) / 1e3);
    out.set("bench.tower_share", median(&mut tower_shares));
    println!(
        "traced replay: {} requests, round trip p50 {:.1} us; derived tower spans are {:.1} % of a request (median)",
        roots.len(),
        median(&mut roots) / 1e3,
        100.0 * median(&mut tower_shares)
    );
    trace
}
