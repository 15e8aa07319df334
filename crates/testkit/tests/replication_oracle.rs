//! The replication durability oracle.
//!
//! Three replicas at `--ack=quorum` run a seeded 10-round failure loop;
//! each round ingests a fresh batch while one of four drills takes
//! infrastructure away:
//!
//! * **leader killed mid-batch** — the most-caught-up follower is
//!   promoted under a bumped epoch and the *whole* batch is resent: every
//!   record acked before the kill must come back `duplicate: true` (zero
//!   acked loss), every unacked one must apply exactly once.
//! * **follower killed mid-batch, then killed again while rejoining** —
//!   quorum holds on the survivors; the follower restarts from its own
//!   WAL, the leader's shipper brings it level, and a second kill while
//!   that shipping is under way must not duplicate anything when it
//!   recovers again.
//! * **stale leader fenced** — a follower is promoted while the old
//!   leader is still alive (a healed partition): the old leader must end
//!   up deposed, redirecting writes at the new leader, and a `Replicate`
//!   carrying the old term must be refused with `StaleEpoch`.
//! * **durable-but-unacked** — with every follower down, a quorum ingest
//!   times out (`Unavailable`: durable on the leader, no ack). The leader
//!   then dies; after failover the resent seq must apply *fresh* — an
//!   unacked record is allowed to vanish, never to double-apply.
//!
//! After every round the fleet must reconverge; at the end, every seq
//! ever acked is resent (all must dedup), and compacting every survivor
//! must yield byte-identical artifacts.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rrre_serve::AckLevel;
use rrre_testkit::{trained_fixture_with, FixtureSpec, ReplicatedDeployment};
use rrre_wire::{ErrorKind, Request, Response};
use std::time::Duration;

const CONVERGE: Duration = Duration::from_secs(20);

fn ingest_req(seq: u64) -> Request {
    // Entity 0/0 exists in any fixture; text and ts vary by seq so every
    // record has distinct bytes.
    Request::ingest_review(seq, 0, 0, 3.5, format!("drill review {seq}"), seq as i64)
}

/// Sends `seq` to the current leader, asserting a committed ack, and
/// returns whether the server saw it as a duplicate.
fn ingest_ok(dep: &ReplicatedDeployment, seq: u64) -> bool {
    let resp = dep.submit(dep.leader(), ingest_req(seq));
    assert!(resp.ok, "seq {seq} refused by the leader: {:?}", resp.error);
    resp.ingest.expect("ingest ack carries the dto").duplicate
}

/// The follower (≠ `leader`, live) with the highest replicated watermark —
/// the failover rule that can never lose a quorum-acked record.
fn most_caught_up(dep: &ReplicatedDeployment, exclude: usize) -> usize {
    dep.live()
        .into_iter()
        .filter(|&i| i != exclude)
        .max_by_key(|&i| dep.replicated_seq(i))
        .expect("no live follower to promote")
}

#[test]
fn replication_oracle_ten_seeded_rounds_lose_nothing_and_duplicate_nothing() {
    let fx = trained_fixture_with(FixtureSpec::micro());
    let mut dep = ReplicatedDeployment::launch(&fx, 3, AckLevel::Quorum);
    let mut rng = StdRng::seed_from_u64(0xD15A57E5);
    let mut next_seq = 1u64;
    let mut acked: Vec<u64> = Vec::new();

    for round in 0..10 {
        match round % 4 {
            0 => drill_leader_killed_mid_batch(&mut dep, &mut rng, &mut next_seq, &mut acked),
            1 => drill_follower_killed_mid_batch_and_while_rejoining(
                &mut dep, &mut rng, &mut next_seq, &mut acked,
            ),
            2 => drill_stale_leader_fenced(&mut dep, &mut rng, &mut next_seq, &mut acked),
            _ => drill_durable_but_unacked(&mut dep, &mut next_seq, &mut acked),
        }
        assert!(
            dep.await_convergence(CONVERGE),
            "round {round}: fleet failed to reconverge (leader={}, epoch={})",
            dep.leader(),
            dep.epoch()
        );
    }

    // Zero acked loss, fleet-wide: every seq ever acked must still be
    // known to the current leader's dedup state.
    for &seq in &acked {
        assert!(ingest_ok(&dep, seq), "acked seq {seq} was lost across the drills");
    }
    assert!(dep.await_convergence(CONVERGE));

    // Zero duplicate application, byte-for-byte: compacting every
    // survivor folds its applied records into the artifact; any replica
    // that double-applied (or dropped) a record diverges here.
    let prints = dep.compact_fingerprints();
    assert!(prints.len() >= 2, "need at least two survivors to compare");
    let (reference, reference_print) = &prints[0];
    for (i, print) in &prints[1..] {
        assert_eq!(
            print, reference_print,
            "replica {i}'s compacted artifact diverges from replica {reference}'s"
        );
    }
}

/// Drill: the leader dies partway through a quorum batch.
fn drill_leader_killed_mid_batch(
    dep: &mut ReplicatedDeployment,
    rng: &mut StdRng,
    next_seq: &mut u64,
    acked: &mut Vec<u64>,
) {
    let batch: Vec<u64> = (0..8).map(|k| *next_seq + k).collect();
    *next_seq += batch.len() as u64;
    let kill_at = rng.gen_range(2..7usize);
    let old_leader = dep.leader();
    let mut acked_this_batch: Vec<u64> = Vec::new();
    for (k, &seq) in batch.iter().enumerate() {
        if k == kill_at {
            dep.kill(old_leader);
            break;
        }
        assert!(!ingest_ok(dep, seq), "seq {seq} is brand new, must not dedup");
        acked_this_batch.push(seq);
    }
    dep.promote(most_caught_up(dep, old_leader));

    // Resend the whole batch to the new term: acked records must dedup
    // (they survived the failover), unacked ones apply exactly once.
    for &seq in &batch {
        let was_acked = acked_this_batch.contains(&seq);
        let dup = ingest_ok(dep, seq);
        assert_eq!(
            dup, was_acked,
            "seq {seq}: acked-before-kill={was_acked} but duplicate={dup} after failover"
        );
    }
    acked.extend(&batch);

    // The dead leader may hold records the new term never acked; it
    // rejoins through a full resync, not its stale log.
    dep.resync_follower(old_leader);
}

/// Drill: a follower dies mid-batch, restarts, and dies again while the
/// leader may still be shipping it the records it missed.
fn drill_follower_killed_mid_batch_and_while_rejoining(
    dep: &mut ReplicatedDeployment,
    rng: &mut StdRng,
    next_seq: &mut u64,
    acked: &mut Vec<u64>,
) {
    let follower = most_caught_up(dep, dep.leader());
    for _ in 0..3 {
        let seq = *next_seq;
        *next_seq += 1;
        assert!(!ingest_ok(dep, seq));
        acked.push(seq);
    }
    dep.kill(follower);
    // Quorum is 2 of 3: the leader and the remaining follower carry it.
    for _ in 0..3 {
        let seq = *next_seq;
        *next_seq += 1;
        assert!(!ingest_ok(dep, seq));
        acked.push(seq);
    }
    dep.restart_follower(follower);
    // Kill it again somewhere while it rejoins (the exact point is seeded
    // jitter — every interleaving must be safe).
    std::thread::sleep(Duration::from_millis(rng.gen_range(0..40u64)));
    dep.kill(follower);
    dep.restart_follower(follower);
}

/// Drill: a healed partition leaves two replicas claiming leadership;
/// the older term must lose.
fn drill_stale_leader_fenced(
    dep: &mut ReplicatedDeployment,
    rng: &mut StdRng,
    next_seq: &mut u64,
    acked: &mut Vec<u64>,
) {
    let old_leader = dep.leader();
    let old_epoch = dep.epoch();
    let new_leader = most_caught_up(dep, old_leader);
    // Promote WITHOUT killing the old leader — the moment the partition
    // "heals", the new term's first probe must depose it.
    dep.promote(new_leader);
    let deadline = std::time::Instant::now() + CONVERGE;
    while dep.engine(old_leader).unwrap().stats().epoch < dep.epoch() {
        assert!(std::time::Instant::now() < deadline, "old leader was never fenced");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The deposed leader refuses writes and points at the new term.
    let seq = *next_seq;
    let resp: Response = dep.submit(old_leader, ingest_req(seq));
    assert!(!resp.ok, "a deposed leader must never ack a write");
    assert_eq!(resp.kind, Some(ErrorKind::NotLeader));
    assert_eq!(resp.leader.as_deref(), Some(dep.addr(new_leader)));

    // A replication frame still carrying the old term is fenced with a
    // structured StaleEpoch naming the current term.
    let stale = dep.submit(new_leader, Request::replicate(old_epoch, 0, Vec::new()));
    assert!(!stale.ok);
    assert_eq!(stale.kind, Some(ErrorKind::StaleEpoch));
    assert_eq!(stale.epoch, Some(dep.epoch()));

    // Normal traffic continues under the new term.
    let count = rng.gen_range(3..6u64);
    for _ in 0..count {
        let seq = *next_seq;
        *next_seq += 1;
        assert!(!ingest_ok(dep, seq));
        acked.push(seq);
    }
}

/// Drill: a record durable on the leader but never acked (quorum timed
/// out with every follower down) is allowed to vanish in failover — and
/// must never double-apply when the client resends it.
fn drill_durable_but_unacked(
    dep: &mut ReplicatedDeployment,
    next_seq: &mut u64,
    acked: &mut Vec<u64>,
) {
    let leader = dep.leader();
    let followers: Vec<usize> = dep.live().into_iter().filter(|&i| i != leader).collect();
    for &f in &followers {
        dep.kill(f);
    }
    let lonely_seq = *next_seq;
    *next_seq += 1;
    let resp = dep.submit(leader, ingest_req(lonely_seq));
    assert!(!resp.ok, "a quorum ack without a quorum would be a durability lie");
    assert_eq!(resp.kind, Some(ErrorKind::Unavailable), "quorum loss surfaces as Unavailable");

    // The leader dies holding the unacked record; the followers come
    // back without it and one takes over.
    dep.kill(leader);
    for &f in &followers {
        dep.restart_follower(f);
    }
    dep.promote(followers[0]);

    // The client's retry of the unacked seq applies fresh, exactly once.
    assert!(!ingest_ok(dep, lonely_seq), "an unacked seq must not dedup after failover");
    acked.push(lonely_seq);
    dep.resync_follower(leader);
}
