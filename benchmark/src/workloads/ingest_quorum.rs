//! `ingest_quorum`: the durable write path.
//!
//! Review-based recommenders are attacked through their write path, so it
//! is measured beside the read path and not as a footnote. A 3-replica
//! fleet acknowledges each `IngestReview` only once a majority holds it
//! durably (`AckLevel::Quorum`, fsync per record). The work is WAL append +
//! fsync, replication shipping and the quorum wait; the model does nothing
//! (auto-refresh is off), so this is the write-side use of `serve.engine` /
//! `serve.server` next to the three read workloads.
//!
//! Both bounded numbers come from **one synchronous writer** (one
//! connection, one record in flight). With more in flight the two leader
//! workers each hold one unacknowledged record, and whether a shipper finds
//! one or two of them to ship depends on whether the second worker's fsync
//! ends before the shipper's wake-up: records per shipment moved between
//! 0.8 and 1.0, and throughput with it between 370 and 480 records/s, from
//! one quarter of an hour to the next on the same code. The closed loop
//! with 32 in flight still runs — it is what the oracles need, and its rate
//! and latency are printed and reported per-layer — but it carries no bound.

use super::{
    decode, encode, prepare, report_engine_counters, report_latency, Ctx, FLOOR_SHARE,
    REFERENCE_SHARE, SATURATION_SHARE, WINDOWS,
};
use crate::fleet::{self, Node};
use crate::inputs::{Inputs, Size};
use crate::loadgen::{Conns, PhaseResult};
use crate::metrics::{median, Outcome};
use crate::probes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrre_serve::{AckLevel, WalRecord};
use rrre_wire::Request;
use std::path::Path;
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;
const CONNS: usize = 2;
const WINDOW: usize = 16;
/// Records set aside per second of a closed-loop phase: several times what
/// fsync-per-record allows on any disk this is likely to run on.
const RECORDS_PER_S: f64 = 4_000.0;
/// Length of a time window of the one-writer phase, in seconds.
const WRITER_WINDOW_S: f64 = 0.4;
/// Already-acked records resent at the end; each must ack `duplicate`.
const RESENT: u64 = 64;

/// Seeded review records with unique, increasing sequence ids.
struct Reviews<'a> {
    inputs: &'a Inputs,
    rng: StdRng,
    next_seq: u64,
}

impl Reviews<'_> {
    fn take(&mut self, n: usize) -> Vec<Request> {
        let ds = &self.inputs.dataset;
        (0..n)
            .map(|_| {
                // Text and rating of a real review, re-addressed at random.
                let like = &ds.reviews[self.rng.gen_range(0..ds.len())];
                self.next_seq += 1;
                Request::ingest_review(
                    self.next_seq,
                    self.rng.gen_range(0..ds.n_users) as u32,
                    self.rng.gen_range(0..ds.n_items) as u32,
                    like.rating,
                    like.text.clone(),
                    like.timestamp,
                )
            })
            .collect()
    }

    fn for_phase(&mut self, dur: Duration) -> Vec<Request> {
        self.take((dur.as_secs_f64() * RECORDS_PER_S) as usize)
    }
}

/// Three private copies of the artifact, three replicated engines, the
/// connections to the leader, and a few records through the whole path.
fn setup(
    seed_dir: &Path,
    root: &Path,
    ack: AckLevel,
    replicas: usize,
    reviews: &mut Reviews,
) -> std::io::Result<(Vec<Node>, Conns)> {
    let _ = std::fs::remove_dir_all(root);
    let nodes = fleet::replicated(seed_dir, root, replicas, ack)?;
    let mut conns = Conns::connect(&nodes[0].addr, CONNS)?;
    let warm = encode(reviews.take(8));
    let r = conns.closed_loop(&warm, false, 1, Duration::from_secs(30), 1, &|_| false);
    if r.ok != warm.len() as u64 {
        return Err(std::io::Error::other(format!(
            "warm-up: {} of {} ingests acked",
            r.ok,
            warm.len()
        )));
    }
    Ok((nodes, conns))
}

/// Waits until every follower has applied as many records as the leader
/// holds; returns how long that took, or `None` after 10 s.
fn converge(nodes: &[Node]) -> Option<Duration> {
    let t = Instant::now();
    let target = nodes[0].engine.stats().replicated_seq;
    while t.elapsed() < Duration::from_secs(10) {
        if nodes[1..]
            .iter()
            .all(|n| n.engine.stats().replicated_seq >= target)
        {
            return Some(t.elapsed());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    None
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();
    let (inputs, dir) = prepare(ctx, Size::Ingest, 1);
    let mut reviews = Reviews {
        inputs: &inputs,
        rng: StdRng::seed_from_u64(ctx.seed),
        next_seq: 1_000_000,
    };
    if ctx.trace {
        traced(&mut out, ctx, &dir, &mut reviews);
        return out;
    }

    let mut setups = Vec::new();
    let mut fleet = None;
    for _ in 0..ctx.setups {
        drop(fleet.take());
        let t = Instant::now();
        fleet = Some(
            setup(
                &dir,
                &ctx.work.join("fleet"),
                AckLevel::Quorum,
                REPLICAS,
                &mut reviews,
            )
            .expect("set-up failed"),
        );
        setups.push(t.elapsed().as_secs_f64());
    }
    let (nodes, mut conns) = fleet.expect("at least one set-up");
    println!("setup: {setups:.3?} s");
    out.set("setup_s", median(&mut setups));
    let ingested_before = nodes[0].engine.stats().ingested;

    // One synchronous writer: what a lone record pays, and how many of them
    // a client that waits for each ack gets through per second. For a few
    // tenths of a second at a time a follower's catch-up thread polls in
    // step with the writer (leader requests per record rise from 1.06 to
    // 1.45); its `FetchWal` keeps the ingest company in the leader's batch
    // window, which then closes at once, and the ack takes 2.6 ms instead
    // of 4.8. Windows this short are all one or the other, so the median
    // window gives the lone writer's rate whatever share of the phase had
    // company (ten seeds: spread 2.7 % with 0.4-s windows, 8.6 % with 1.6-s).
    let floor_dur = ctx.share(FLOOR_SHARE + REFERENCE_SHARE);
    let floor_windows = (floor_dur.as_secs_f64() / WRITER_WINDOW_S).round().max(1.0) as usize;
    let floor = Conns::connect(&nodes[0].addr, 1)
        .expect("cannot connect for the one-writer phase")
        .closed_loop(
            &encode(reviews.for_phase(floor_dur)),
            false,
            1,
            floor_dur,
            floor_windows,
            &|_| false,
        );
    out.count(floor.sent, floor.failed);
    out.set("floor_p50_ms", floor.latency.quantile_ms(0.5));
    out.set("throughput_ops_s", floor.windows.rate());
    println!(
        "one writer (depth 1, quorum ack): n={} p50 {:.3} ms -> {:.1} records/s (median window)",
        floor.latency.count(),
        floor.latency.quantile_ms(0.5),
        floor.windows.rate()
    );

    // 32 in flight: unbounded (see the module comment), but the oracles
    // below need acks that overlap and followers that lag.
    let main_dur = ctx.share(SATURATION_SHARE);
    let sent = reviews.for_phase(main_dur);
    let main = conns.closed_loop(
        &encode(sent.iter().cloned()),
        false,
        WINDOW,
        main_dur,
        WINDOWS,
        &|_| false,
    );
    out.count(main.sent, main.failed);
    report_latency(
        &mut out,
        false,
        &format!("closed loop ({CONNS} conns x {WINDOW} in flight, quorum ack)"),
        &main.windows,
    );
    out.set("rss_mb", probes::rss_mb());
    println!(
        "closed loop: sent {} acked {} -> {:.1} records/s (median window, no bound)",
        main.sent,
        main.ok,
        main.windows.rate()
    );

    // Oracles: every ack is a record the leader ingested exactly once, the
    // followers end up holding all of them, and a resend is a duplicate.
    let ingested = nodes[0].engine.stats().ingested - ingested_before;
    out.expect(
        ingested == floor.ok + main.ok,
        format!(
            "{} acks but the leader ingested {ingested}",
            floor.ok + main.ok
        ),
    );
    match converge(&nodes) {
        Some(took) => println!(
            "followers converged to replicated_seq {} in {took:.1?}",
            nodes[0].engine.stats().replicated_seq
        ),
        None => out.miss("followers did not converge to the leader's replicated_seq within 10 s"),
    }
    let resend: Vec<Request> = sent
        .iter()
        .take(RESENT.min(main.ok) as usize)
        .cloned()
        .collect();
    let again = conns.closed_loop(
        &encode(resend.iter().cloned()),
        false,
        4,
        Duration::from_secs(30),
        1,
        &|_| true,
    );
    let duplicates = again
        .samples
        .values()
        .filter(|l| {
            decode(l)
                .and_then(|r| r.ingest)
                .is_some_and(|i| i.duplicate)
        })
        .count();
    out.expect(
        duplicates == resend.len(),
        format!(
            "{duplicates} of {} resent seqs acked duplicate:true",
            resend.len()
        ),
    );
    out.expect(
        nodes[0].engine.stats().ingested - ingested_before == ingested,
        "a resent seq was ingested twice",
    );
    println!("oracle: {ingested} acks = leader ingested; {duplicates} resent seqs all duplicate");
    out
}

fn phase_line(what: &str, r: &PhaseResult) {
    println!(
        "{what}: sent {} acked {} -> {:.1} records/s, p50 {:.3} ms",
        r.sent,
        r.ok,
        r.windows.rate(),
        r.latency.quantile_ms(0.5)
    );
}

fn traced(out: &mut Outcome, ctx: &Ctx, dir: &Path, reviews: &mut Reviews) {
    let depth1 = |nodes: &[Node], reviews: &mut Reviews, dur: Duration| {
        Conns::connect(&nodes[0].addr, 1)
            .expect("cannot connect")
            .closed_loop(&encode(reviews.for_phase(dur)), false, 1, dur, 1, &|_| {
                false
            })
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut tally = |r: &PhaseResult| {
        attempted += r.sent;
        failed += r.failed;
    };

    // Quorum fleet: lone-ack latency, and the engine's counters under load.
    let (nodes, mut conns) = setup(
        dir,
        &ctx.work.join("fleet"),
        AckLevel::Quorum,
        REPLICAS,
        reviews,
    )
    .expect("set-up failed");
    let quorum = depth1(&nodes, reviews, ctx.share(0.08));
    phase_line("quorum ack, depth 1", &quorum);
    tally(&quorum);
    let before = nodes[0].engine.stats();
    let dur = ctx.share(0.15);
    let loaded = conns.closed_loop(
        &encode(reviews.for_phase(dur)),
        false,
        WINDOW,
        dur,
        1,
        &|_| false,
    );
    phase_line("quorum ack, closed loop", &loaded);
    report_latency(
        out,
        true,
        &format!("closed loop ({CONNS} conns x {WINDOW} in flight, quorum ack)"),
        &loaded.windows,
    );
    tally(&loaded);
    out.set("serve.replication.quorum_ack_ops_s", loaded.windows.rate());
    let after = nodes[0].engine.stats();
    // The model is idle here: the cache and tower counters come out 0.
    report_engine_counters(out, &before, &after);
    drop((nodes, conns));

    // Leader-ack fleet: throughput without the quorum wait, how far the
    // followers fall behind meanwhile, and how long they take to catch up.
    let (nodes, mut conns) = setup(
        dir,
        &ctx.work.join("fleet"),
        AckLevel::Leader,
        REPLICAS,
        reviews,
    )
    .expect("set-up failed");
    let dur = ctx.share(0.15);
    // Without the quorum wait the leader takes several times `RECORDS_PER_S`.
    let lines = encode(reviews.take((dur.as_secs_f64() * 5.0 * RECORDS_PER_S) as usize));
    let (leader_ack, lag_max) = std::thread::scope(|scope| {
        let load = scope.spawn(|| conns.closed_loop(&lines, false, WINDOW, dur, 1, &|_| false));
        let mut lag_max = 0;
        while !load.is_finished() {
            lag_max = lag_max.max(nodes[0].engine.stats().replication_lag);
            std::thread::sleep(Duration::from_millis(5));
        }
        (load.join().expect("load thread panicked"), lag_max)
    });
    phase_line("leader ack, closed loop", &leader_ack);
    tally(&leader_ack);
    out.set(
        "serve.replication.leader_ack_ops_s",
        leader_ack.windows.rate(),
    );
    out.set("serve.replication.lag_max", lag_max as f64);
    match converge(&nodes) {
        Some(took) => out.set("serve.replication.converge_ms", took.as_secs_f64() * 1e3),
        None => out.miss("followers did not converge within 10 s"),
    }
    drop((nodes, conns));

    // Single node: the ack without any replication, a blocking submit with
    // no TCP, and a refresh folding 64 pending records into the towers.
    let (nodes, conns) =
        setup(dir, &ctx.work.join("fleet"), AckLevel::Leader, 1, reviews).expect("set-up failed");
    let single = depth1(&nodes, reviews, ctx.share(0.08));
    phase_line("single node, depth 1", &single);
    tally(&single);
    out.set(
        "serve.replication.quorum_wait_ms",
        quorum.latency.quantile_ms(0.5) - single.latency.quantile_ms(0.5),
    );
    let engine = &nodes[0].engine;
    // Fold what the phase above left pending, so that the timed refresh
    // below folds exactly the 64 probe records.
    out.expect(engine.refresh_now().is_ok(), "refresh_now failed");
    let probe = reviews.take(64);
    let mut submits: Vec<f64> = probe
        .iter()
        .map(|req| {
            let t = Instant::now();
            out.expect(engine.submit(req.clone()).ok, "engine refused an ingest");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.set("serve.engine.submit_us", median(&mut submits));
    let t = Instant::now();
    match engine.refresh_now() {
        Ok(n) => {
            out.set("serve.engine.refresh_ms", t.elapsed().as_secs_f64() * 1e3);
            println!(
                "refresh_now folded {n} pending records in {:.1?}",
                t.elapsed()
            );
        }
        Err(e) => out.miss(format!("refresh_now failed: {e}")),
    }
    let probe_req = reviews.take(1).pop().expect("one more review").with_id(1);
    let probe_resp = engine.submit(probe_req.clone());
    probes::wire(out, &probe_req, &probe_resp);
    drop((nodes, conns));

    let records: Vec<WalRecord> = probe
        .iter()
        .map(|r| WalRecord {
            seq: r.seq.expect("ingest requests carry a seq"),
            user: r.user.expect("and a user"),
            item: r.item.expect("and an item"),
            rating: r.rating.expect("and a rating"),
            ts: r.ts.unwrap_or(0),
            text: r.text.clone().unwrap_or_default(),
        })
        .collect();
    probes::wal(out, &ctx.work.join("wal-probe"), &records).expect("wal probe failed");
    probes::artifact(out, reviews.inputs, &ctx.work.join("artifact-probe"))
        .expect("artifact probe failed");
    out.set("bench.fail_share", failed as f64 / attempted.max(1) as f64);
    out.count(attempted, failed);
}
