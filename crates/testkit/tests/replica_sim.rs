//! A deterministic, single-threaded simulator of the replicated write path,
//! driving 2–3 `rrre_serve::ReplicaState`s — the sans-IO core the serving
//! shell runs — over an in-memory disk and network.
//!
//! * **Disk.** Each replica's WAL (the seqs at log positions 0, 1, …) and
//!   epoch file. An append is written and fsynced in one step, as the
//!   shell's writer lock does; a crash in the middle of one may keep the
//!   un-fsynced record or tear it off, and an epoch write may fail.
//! * **Network.** Replicate frames and their answers between replicas. Any
//!   message may be delivered next (reorder), dropped or duplicated, and a
//!   partition isolates one replica until it heals. A shipper whose frame
//!   or answer is lost times out and ships again.
//! * **Workers.** A request in a replica takes one core call per step —
//!   judge the term, install it, plan and apply the append, wait for the
//!   quorum — and other events interleave between any two, as other
//!   worker threads can in the shell.
//! * **Operator.** Writes seqs `1..=records` at any replica and retries
//!   them; crashes replicas and restarts them with their original role; and
//!   promotes a replica at the next term. The operator follows the drill
//!   the README gives: promote the replica with the highest (epoch, count)
//!   on a majority side that has no leader, and bring a crashed leader
//!   back from its own disk only once it would not lead a term that a
//!   replica still sits at (otherwise resync it first).
//!
//! After every step the simulator checks: one leader per term; epochs never
//! decrease and memory is never ahead of disk; no seq applied twice; a
//! leader's log and every follower's log agree below the position a frame
//! proved; a quorum ack only when a majority holds the record durably; no
//! `NotLeader` redirect naming the replica itself. When the schedule ends,
//! faults stop: partitions heal, crashed replicas restart, the operator
//! resyncs any replica whose log diverged from the leader's, and the fleet
//! runs until quiet. Then every live replica must hold the leader's log
//! (convergence) and every acked seq (no acked loss).
//!
//! `exhaustive_two_replicas` searches every interleaving up to its step
//! bound; `seeded_three_replicas` runs 1 000 seeded schedules; the failing
//! schedule of either is shrunk and printed with its seed, and every
//! schedule a search ever found is replayed by `recorded_schedules_pass`.

use rrre_serve::replica::{Fenced, Refusal, ReplicaState, Ship, Stop, Traffic};
use rrre_serve::ReplRole;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::hash::{Hash, Hasher};
use std::io;

/// Most records one frame carries.
const BATCH: usize = 2;

/// What a search may do.
#[derive(Debug, Clone, Copy)]
struct Bounds {
    replicas: usize,
    records: u64,
    promotes: u32,
    crashes: u32,
    partitions: u32,
    /// Drops plus duplicates.
    net_faults: u32,
    persist_failures: u32,
    /// Leader compactions, which fold the whole log below a new base.
    compactions: u32,
    /// Client sends per seq.
    sends: u32,
    steps: usize,
}

/// One simulator event. Indices name a message in the network or a task
/// in a replica's worker list, as they stand when the event runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Write { seq: u64, to: usize },
    Work { at: usize, task: usize },
    Ship { at: usize, to: usize },
    Deliver { msg: usize },
    Drop { msg: usize },
    Duplicate { msg: usize },
    Timeout { at: usize, to: usize },
    GiveUp { at: usize, task: usize },
    Crash { at: usize, unsynced: bool },
    Restart { at: usize },
    Promote { at: usize },
    Partition { cut: usize },
    Heal,
    FailPersist { at: usize },
    Compact { at: usize },
}

#[derive(Debug, Clone, Hash)]
enum Body {
    Frame { ticket: u64, epoch: u64, from: u64, seqs: Vec<u64>, hint: String },
    Reply { ticket: u64, answer: Answer },
}

#[derive(Debug, Clone, Copy, Hash)]
enum Answer {
    Count(u64),
    Stale(u64),
    Refused,
}

#[derive(Debug, Clone, Hash)]
struct Msg {
    from: usize,
    to: usize,
    body: Body,
}

#[derive(Debug, Clone, Hash)]
enum Phase {
    Fence,
    Install(u64),
    Append,
    Wait(u64),
}

#[derive(Debug, Clone, Hash)]
enum Task {
    Ingest {
        seq: u64,
        phase: Phase,
    },
    Frame {
        src: usize,
        ticket: u64,
        epoch: u64,
        from: u64,
        seqs: Vec<u64>,
        hint: String,
        phase: Phase,
    },
    Promote {
        epoch: u64,
        peers: Vec<String>,
        phase: Phase,
    },
}

#[derive(Debug, Clone, Hash)]
struct Shipper {
    to: usize,
    epoch: u64,
    gen: u64,
    /// The ticket of the frame in flight.
    flight: Option<u64>,
}

#[derive(Debug, Clone)]
struct Live {
    state: ReplicaState,
    tasks: Vec<Task>,
    shippers: Vec<Shipper>,
}

#[derive(Debug, Clone)]
struct Replica {
    role: ReplRole,
    /// The durable log: the seq at each position.
    wal: Vec<u64>,
    epoch: u64,
    fail_persist: bool,
    /// Records folded into the artifact: positions below it cannot ship.
    base: u64,
    live: Option<Live>,
}

fn addr(i: usize) -> String {
    format!("r{i}")
}

fn persist<'a>(disk: &'a mut u64, fail: &'a mut bool) -> impl FnOnce(u64) -> io::Result<()> + 'a {
    move |epoch| {
        if std::mem::take(fail) {
            return Err(io::Error::other("injected epoch write failure"));
        }
        *disk = epoch;
        Ok(())
    }
}

impl Replica {
    /// Opens from disk with the original role, as the shell's open does.
    fn open(&mut self, i: usize) -> bool {
        let persisted = self.epoch;
        let p = persist(&mut self.epoch, &mut self.fail_persist);
        let Ok((state, _)) = ReplicaState::open(persisted, &self.role, Some(addr(i)), p) else {
            return false;
        };
        let mut live = Live { state, tasks: Vec::new(), shippers: Vec::new() };
        spawn_shippers(&mut live);
        self.live = Some(live);
        true
    }
}

fn spawn_shippers(live: &mut Live) {
    let epoch = live.state.epoch();
    let (followers, gen) = live.state.shipping();
    let peers: Vec<usize> = followers.iter().map(|f| f[1..].parse().unwrap()).collect();
    live.shippers.retain(|s| s.gen == gen);
    for to in peers {
        live.shippers.push(Shipper { to, epoch, gen, flight: None });
    }
}

#[derive(Debug, Clone)]
struct World {
    bounds: Bounds,
    replicas: Vec<Replica>,
    net: Vec<Msg>,
    cut: Option<usize>,
    acked: BTreeSet<u64>,
    sends: BTreeMap<u64, u32>,
    /// The replica that appended each seq first: the client re-sends a seq
    /// only there (see the module docs).
    home: BTreeMap<u64, usize>,
    promotes: u32,
    crashes: u32,
    partitions: u32,
    net_faults: u32,
    persist_failures: u32,
    compactions: u32,
    /// Which replica led each term.
    led: BTreeMap<u64, usize>,
    /// Each replica's highest durable epoch so far.
    floor: Vec<u64>,
    next_ticket: u64,
}

/// A broken invariant.
type Violation = String;

impl World {
    fn new(bounds: Bounds) -> Self {
        let n = bounds.replicas;
        let mut replicas: Vec<Replica> = (0..n)
            .map(|i| Replica {
                role: if i == 0 {
                    ReplRole::Leader { followers: (1..n).map(addr).collect(), epoch: 1 }
                } else {
                    ReplRole::Follower { leader: Some(addr(0)) }
                },
                wal: Vec::new(),
                epoch: 0,
                fail_persist: false,
                base: 0,
                live: None,
            })
            .collect();
        for (i, r) in replicas.iter_mut().enumerate() {
            assert!(r.open(i));
        }
        let mut w = World {
            bounds,
            replicas,
            net: Vec::new(),
            cut: None,
            acked: BTreeSet::new(),
            sends: BTreeMap::new(),
            home: BTreeMap::new(),
            promotes: 0,
            crashes: 0,
            partitions: 0,
            net_faults: 0,
            persist_failures: 0,
            compactions: 0,
            led: BTreeMap::new(),
            floor: vec![0; n],
            next_ticket: 0,
        };
        w.check().expect("the initial fleet is sound");
        w
    }

    fn live(&self, i: usize) -> Option<&Live> {
        self.replicas[i].live.as_ref()
    }

    fn linked(&self, a: usize, b: usize) -> bool {
        self.cut.is_none_or(|c| c != a && c != b || a == b)
    }

    /// A stable digest of everything that decides the future.
    fn digest(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for r in &self.replicas {
            (&r.wal, r.epoch, r.fail_persist, r.base).hash(&mut h);
            if let Some(l) = &r.live {
                format!("{:?}", l.state).hash(&mut h);
                (&l.tasks, &l.shippers).hash(&mut h);
            } else {
                0u8.hash(&mut h);
            }
        }
        (&self.net, self.cut, &self.acked, &self.sends, &self.home, &self.led).hash(&mut h);
        let used = (
            self.promotes,
            self.crashes,
            self.partitions,
            self.net_faults,
            self.persist_failures,
            self.compactions,
        );
        used.hash(&mut h);
        h.finish()
    }

    /// Every event that may happen next, faults included when `faults`.
    fn enabled(&self, faults: bool) -> Vec<Action> {
        let n = self.replicas.len();
        let b = self.bounds;
        let mut out = Vec::new();
        for i in 0..n {
            let Some(l) = self.live(i) else { continue };
            for (t, task) in l.tasks.iter().enumerate() {
                out.push(Action::Work { at: i, task: t });
                if faults && matches!(task, Task::Ingest { phase: Phase::Wait(_), .. }) {
                    out.push(Action::GiveUp { at: i, task: t });
                }
            }
            for s in &l.shippers {
                match s.flight {
                    None if self.ship_choice(i, s).is_some() => {
                        out.push(Action::Ship { at: i, to: s.to })
                    }
                    Some(ticket) if self.lost(ticket, s.to) => {
                        out.push(Action::Timeout { at: i, to: s.to })
                    }
                    _ => {}
                }
            }
        }
        for (m, msg) in self.net.iter().enumerate() {
            if self.linked(msg.from, msg.to) {
                out.push(Action::Deliver { msg: m });
            }
            if faults && self.net_faults < b.net_faults {
                out.push(Action::Drop { msg: m });
                out.push(Action::Duplicate { msg: m });
            }
        }
        if !faults {
            return out;
        }
        for seq in 1..=b.records {
            let busy = self.replicas.iter().filter_map(|r| r.live.as_ref()).any(|l| {
                l.tasks.iter().any(|t| matches!(t, Task::Ingest { seq: s, .. } if *s == seq))
            });
            if self.acked.contains(&seq)
                || busy
                || self.sends.get(&seq).copied().unwrap_or(0) >= b.sends
            {
                continue;
            }
            let home = self.home.get(&seq).copied();
            for to in (0..n).filter(|&i| self.live(i).is_some() && home.is_none_or(|h| h == i)) {
                out.push(Action::Write { seq, to });
            }
        }
        for i in 0..n {
            match self.live(i) {
                Some(l) => {
                    if self.crashes < b.crashes {
                        out.push(Action::Crash { at: i, unsynced: false });
                        if l.tasks.iter().any(|t| self.pending_append(i, t).is_some()) {
                            out.push(Action::Crash { at: i, unsynced: true });
                        }
                    }
                    if self.promotes < b.promotes && self.may_promote(i) {
                        out.push(Action::Promote { at: i });
                    }
                    if self.persist_failures < b.persist_failures && !self.replicas[i].fail_persist
                    {
                        out.push(Action::FailPersist { at: i });
                    }
                    if self.compactions < b.compactions && l.state.is_leader() {
                        out.push(Action::Compact { at: i });
                    }
                }
                None => {
                    if self.may_restart(i) {
                        out.push(Action::Restart { at: i });
                    }
                }
            }
        }
        match self.cut {
            None if self.partitions < b.partitions => {
                out.extend((0..n).map(|cut| Action::Partition { cut }));
            }
            Some(_) => out.push(Action::Heal),
            None => {}
        }
        out
    }

    /// Whether a shipper's frame and its answer are gone: dropped, sent to
    /// or from a replica that crashed, or stuck behind the partition.
    fn lost(&self, ticket: u64, to: usize) -> bool {
        let in_net = self.net.iter().any(|m| match &m.body {
            Body::Frame { ticket: t, .. } | Body::Reply { ticket: t, .. } => {
                *t == ticket && self.linked(m.from, m.to)
            }
        });
        let in_work = self.live(to).is_some_and(|l| {
            l.tasks.iter().any(|t| matches!(t, Task::Frame { ticket: k, .. } if *k == ticket))
        });
        !in_net && !in_work
    }

    fn ship_choice(&self, i: usize, s: &Shipper) -> Option<(u64, u64)> {
        let l = self.live(i)?;
        let count = self.replicas[i].wal.len() as u64;
        match l.state.ship(&addr(s.to), s.epoch, s.gen, count, self.replicas[i].base) {
            Ship::Send(from) => Some((s.epoch, from)),
            _ => None,
        }
    }

    /// The records an append step would take, if the task is at one.
    fn pending_append(&self, i: usize, task: &Task) -> Option<Vec<u64>> {
        let wal = &self.replicas[i].wal;
        let (from, seqs) = match task {
            Task::Ingest { seq, phase: Phase::Append } => (wal.len() as u64, vec![*seq]),
            Task::Frame { from, seqs, phase: Phase::Append, .. } => (*from, seqs.clone()),
            _ => return None,
        };
        let plan = plan(wal, from, &seqs);
        let taken: Vec<u64> = seqs[plan.skip..plan.skip + plan.take].to_vec();
        (!taken.is_empty()).then_some(taken)
    }

    /// The operator promotes only when no replica leads — the old leader
    /// crashed, or was deposed — one promotion at a time, with a majority
    /// up, and only the up replica with the highest (epoch, count).
    fn may_promote(&self, i: usize) -> bool {
        let up: Vec<&Live> = self.replicas.iter().filter_map(|r| r.live.as_ref()).collect();
        let key = |j: usize| (self.replicas[j].epoch, self.replicas[j].wal.len());
        2 * up.len() > self.replicas.len()
            && up.iter().all(|l| !l.state.is_leader())
            && up.iter().all(|l| !l.tasks.iter().any(|t| matches!(t, Task::Promote { .. })))
            && (0..self.replicas.len()).all(|j| self.live(j).is_none() || key(j) <= key(i))
    }

    /// A replica started as leader comes back from its own disk only when
    /// it would not lead, or when every other replica persisted a higher
    /// term than the one it would lead: a term some replica still sits at
    /// could otherwise gather a quorum beside the new leader's.
    fn may_restart(&self, i: usize) -> bool {
        let ReplRole::Leader { epoch: req, .. } = self.replicas[i].role else { return true };
        let own = self.replicas[i].epoch;
        own > req.max(1)
            || (0..self.replicas.len()).all(|j| j == i || self.replicas[j].epoch > own.max(req))
    }

    fn apply(&mut self, a: Action) -> Result<(), Violation> {
        match a {
            Action::Write { seq, to } => {
                *self.sends.entry(seq).or_default() += 1;
                let l = self.replicas[to].live.as_mut().unwrap();
                l.tasks.push(Task::Ingest { seq, phase: Phase::Fence });
            }
            Action::Work { at, task } => self.work(at, task)?,
            Action::Ship { at, to } => {
                let s =
                    self.live(at).unwrap().shippers.iter().find(|s| s.to == to).unwrap().clone();
                let (epoch, from) = self.ship_choice(at, &s).unwrap();
                let wal = &self.replicas[at].wal;
                let seqs: Vec<u64> = wal.iter().skip(from as usize).take(BATCH).copied().collect();
                let ticket = self.next_ticket;
                self.next_ticket += 1;
                let len = seqs.len() as u64;
                let body = Body::Frame { ticket, epoch, from, seqs, hint: addr(at) };
                self.net.push(Msg { from: at, to, body });
                let l = self.replicas[at].live.as_mut().unwrap();
                l.state.sent(&addr(to), (s.epoch, s.gen), from, len);
                l.shippers.iter_mut().find(|s| s.to == to).unwrap().flight = Some(ticket);
            }
            Action::Deliver { msg } => self.deliver(msg)?,
            Action::Drop { msg } => {
                self.net_faults += 1;
                self.net.remove(msg);
            }
            Action::Duplicate { msg } => {
                self.net_faults += 1;
                let copy = self.net[msg].clone();
                self.net.push(copy);
            }
            Action::Timeout { at, to } => {
                let l = self.replicas[at].live.as_mut().unwrap();
                l.shippers.iter_mut().find(|s| s.to == to).unwrap().flight = None;
            }
            Action::GiveUp { at, task } => {
                self.replicas[at].live.as_mut().unwrap().tasks.remove(task);
            }
            Action::Crash { at, unsynced } => {
                self.crashes += 1;
                if unsynced {
                    // The first record of a pending append reached the disk
                    // but was never fsynced or acked; it survived the crash.
                    let l = self.live(at).unwrap();
                    let first = l.tasks.iter().find_map(|t| self.pending_append(at, t)).unwrap()[0];
                    self.replicas[at].wal.push(first);
                    self.home.entry(first).or_insert(at);
                }
                self.replicas[at].live = None;
            }
            Action::Restart { at } => {
                self.replicas[at].open(at);
            }
            Action::Promote { at } => {
                self.promotes += 1;
                let epoch = self.replicas.iter().map(|r| r.epoch).max().unwrap() + 1;
                let peers = (0..self.replicas.len()).filter(|&j| j != at).map(addr).collect();
                let l = self.replicas[at].live.as_mut().unwrap();
                l.tasks.push(Task::Promote { epoch, peers, phase: Phase::Fence });
            }
            Action::Partition { cut } => {
                self.partitions += 1;
                self.cut = Some(cut);
            }
            Action::Heal => self.cut = None,
            Action::Compact { at } => {
                self.compactions += 1;
                self.replicas[at].base = self.replicas[at].wal.len() as u64;
            }
            Action::FailPersist { at } => {
                self.persist_failures += 1;
                self.replicas[at].fail_persist = true;
            }
        }
        self.tidy();
        self.check()
    }

    /// Drops shippers whose term or promotion is gone.
    fn tidy(&mut self) {
        for r in &mut self.replicas {
            let (count, base) = (r.wal.len() as u64, r.base);
            if let Some(l) = r.live.as_mut() {
                let state = &l.state;
                l.shippers
                    .retain(|s| state.ship(&addr(s.to), s.epoch, s.gen, count, base) != Ship::Exit);
            }
        }
    }

    fn reply(&mut self, at: usize, to: usize, ticket: u64, answer: Answer) {
        self.net.push(Msg { from: at, to, body: Body::Reply { ticket, answer } });
    }

    /// Advances one task by one core call.
    fn work(&mut self, at: usize, t: usize) -> Result<(), Violation> {
        let me = addr(at);
        let r = &mut self.replicas[at];
        let l = r.live.as_mut().unwrap();
        let task = l.tasks[t].clone();
        let traffic = match &task {
            Task::Ingest { .. } => Traffic::Ingest,
            Task::Frame { hint, .. } => Traffic::Peer(Some(hint.clone())),
            Task::Promote { peers, .. } => Traffic::Promote(peers.clone()),
        };
        let (phase, got) = match &task {
            Task::Ingest { phase, .. } => (phase.clone(), None),
            Task::Frame { phase, epoch, .. } | Task::Promote { phase, epoch, .. } => {
                (phase.clone(), Some(*epoch))
            }
        };
        let judged = match phase {
            Phase::Fence => l.state.fence(got, &traffic),
            Phase::Install(term) => {
                let p = persist(&mut r.epoch, &mut r.fail_persist);
                l.state.install(term, &traffic, p).map(Fenced::Current)
            }
            Phase::Append => return self.append(at, t),
            Phase::Wait(target) => {
                let Task::Ingest { seq, .. } = task else { unreachable!() };
                return match l.state.quorum(target) {
                    Ok(false) => Ok(()),
                    Err(hint) => {
                        l.tasks.remove(t);
                        no_self_redirect(&me, hint.as_deref())
                    }
                    Ok(true) => {
                        l.tasks.remove(t);
                        self.ack(at, seq, target)
                    }
                };
            }
        };
        match judged {
            Ok(Fenced::Adopt(term)) => set_phase(&mut l.tasks[t], Phase::Install(term)),
            Ok(Fenced::Current(_)) => match task {
                Task::Promote { .. } => {
                    l.tasks.remove(t);
                    spawn_shippers(l);
                }
                _ => set_phase(&mut l.tasks[t], Phase::Append),
            },
            Err(refusal) => {
                l.tasks.remove(t);
                if let Refusal::NotLeader(hint) = &refusal {
                    no_self_redirect(&me, hint.as_deref())?;
                }
                if let Task::Frame { src, ticket, .. } = task {
                    let answer = match refusal {
                        Refusal::Stale { current, .. } => Answer::Stale(current),
                        _ => Answer::Refused,
                    };
                    self.reply(at, src, ticket, answer);
                }
            }
        }
        Ok(())
    }

    /// The writer-locked append: plan, then write and fsync what it takes.
    fn append(&mut self, at: usize, t: usize) -> Result<(), Violation> {
        let r = &mut self.replicas[at];
        let l = r.live.as_mut().unwrap();
        let task = l.tasks.remove(t);
        let (from, seqs) = match &task {
            Task::Ingest { seq, .. } => (r.wal.len() as u64, vec![*seq]),
            Task::Frame { from, seqs, .. } => (*from, seqs.clone()),
            Task::Promote { .. } => unreachable!(),
        };
        let p = plan(&r.wal, from, &seqs);
        r.wal.extend_from_slice(&seqs[p.skip..p.skip + p.take]);
        if let Task::Ingest { seq, .. } = task {
            self.home.entry(seq).or_insert(at);
        }
        let count = r.wal.len() as u64;
        match task {
            Task::Ingest { seq, .. } => {
                let target = match p.stop {
                    // A duplicate waits for the quorum of everything up to
                    // the count, as the shell does.
                    Some(Stop::Duplicate(_)) | None => count,
                    Some(Stop::Mismatch { .. }) => {
                        return Err("client ingest hit a log mismatch".into())
                    }
                };
                l.tasks.push(Task::Ingest { seq, phase: Phase::Wait(target) });
            }
            Task::Frame { src, ticket, .. } => {
                let answer = if p.stop.is_some() { Answer::Refused } else { Answer::Count(count) };
                self.reply(at, src, ticket, answer);
            }
            Task::Promote { .. } => unreachable!(),
        }
        Ok(())
    }

    /// A quorum ack: the record must be durable on a majority, each holding
    /// the leader's log up to `target`.
    fn ack(&mut self, at: usize, seq: u64, target: u64) -> Result<(), Violation> {
        let lead = &self.replicas[at].wal[..target as usize];
        let holders = self
            .replicas
            .iter()
            .filter(|r| r.wal.len() >= lead.len() && r.wal[..lead.len()] == *lead)
            .count();
        if 2 * holders <= self.replicas.len() {
            return Err(format!("seq {seq} acked at quorum, but only {holders} replica(s) hold the leader's first {target} records"));
        }
        if !lead.contains(&seq) {
            return Err(format!(
                "seq {seq} acked, yet the leader's first {target} records lack it"
            ));
        }
        self.acked.insert(seq);
        Ok(())
    }

    fn deliver(&mut self, m: usize) -> Result<(), Violation> {
        let msg = self.net.remove(m);
        let Some(l) = self.replicas[msg.to].live.as_mut() else { return Ok(()) };
        match msg.body {
            Body::Frame { ticket, epoch, from, seqs, hint } => {
                l.tasks.push(Task::Frame {
                    src: msg.from,
                    ticket,
                    epoch,
                    from,
                    seqs,
                    hint,
                    phase: Phase::Fence,
                });
            }
            Body::Reply { ticket, answer } => {
                let Some(s) = l.shippers.iter_mut().find(|s| s.to == msg.from) else {
                    return Ok(());
                };
                if s.flight != Some(ticket) {
                    return Ok(());
                }
                s.flight = None;
                let (epoch, gen) = (s.epoch, s.gen);
                let r = &mut self.replicas[msg.to];
                let l = r.live.as_mut().unwrap();
                match answer {
                    Answer::Count(count) => {
                        let own = r.wal.len() as u64;
                        let _ = l.state.absorb(&addr(msg.from), (epoch, gen), count, own);
                    }
                    Answer::Stale(term) => {
                        let traffic = Traffic::Peer(None);
                        if let Ok(Fenced::Adopt(term)) = l.state.fence(Some(term), &traffic) {
                            let p = persist(&mut r.epoch, &mut r.fail_persist);
                            let _ = l.state.install(term, &traffic, p);
                        }
                    }
                    Answer::Refused => {}
                }
            }
        }
        Ok(())
    }

    /// The invariants that hold after every step.
    fn check(&mut self) -> Result<(), Violation> {
        for (i, r) in self.replicas.iter().enumerate() {
            if r.epoch < self.floor[i] {
                return Err(format!(
                    "r{i}'s durable epoch went back from {} to {}",
                    self.floor[i], r.epoch
                ));
            }
            self.floor[i] = r.epoch;
            let unique: HashSet<u64> = r.wal.iter().copied().collect();
            if unique.len() != r.wal.len() {
                return Err(format!("r{i} applied a seq twice: {:?}", r.wal));
            }
            let Some(l) = &r.live else { continue };
            if l.state.epoch() > r.epoch {
                return Err(format!(
                    "r{i} runs term {} ahead of its disk's {}",
                    l.state.epoch(),
                    r.epoch
                ));
            }
            if !l.state.is_leader() {
                continue;
            }
            let term = l.state.epoch();
            match self.led.insert(term, i) {
                Some(j) if j != i => return Err(format!("r{j} and r{i} both led term {term}")),
                _ => {}
            }
            for (j, f) in self.replicas.iter().enumerate().filter(|&(j, _)| j != i) {
                let proved = l.state.confirmed(&addr(j)) as usize;
                if proved > r.wal.len().min(f.wal.len()) || f.wal[..proved] != r.wal[..proved] {
                    return Err(format!(
                        "leader r{i} counts r{j} as holding its first {proved} records {:?}, but r{j} holds {:?}",
                        &r.wal[..proved.min(r.wal.len())],
                        f.wal
                    ));
                }
            }
        }
        Ok(())
    }

    /// Faults stop: heal, restart (resyncing a leader that may not come
    /// back from its own disk), promote if no leader is left, run until
    /// quiet, resync any replica whose log diverged from the leader's, run
    /// again, then check convergence and that no acked seq was lost.
    fn drain(&mut self) -> Result<(), Violation> {
        self.cut = None;
        for _ in 0..3 {
            let leader = self.settle()?;
            let Some(leader) = leader else {
                return Err("no replica leads once faults stop".into());
            };
            let lead = self.replicas[leader].wal.clone();
            let diverged: Vec<usize> = (0..self.replicas.len())
                .filter(|&j| j != leader && !lead.starts_with(&self.replicas[j].wal))
                .collect();
            if diverged.is_empty() {
                for (j, r) in self.replicas.iter().enumerate() {
                    if r.wal != lead {
                        return Err(format!(
                            "r{j} never caught up: {:?} against the leader's {lead:?}",
                            r.wal
                        ));
                    }
                }
                if let Some(lost) = self.acked.iter().find(|s| !lead.contains(s)) {
                    return Err(format!("acked seq {lost} is not in the leader's log {lead:?}"));
                }
                return Ok(());
            }
            // The operator's resync: the diverged replica takes a copy of
            // the leader's durable state and restarts from it.
            for j in diverged {
                self.replicas[j].live = None;
                self.replicas[j].wal = lead.clone();
                self.replicas[j].base = self.replicas[leader].base;
                self.replicas[j].epoch = self.replicas[leader].epoch;
                self.floor[j] = self.floor[j].min(self.replicas[j].epoch);
            }
        }
        Err("replicas kept diverging after resyncs".into())
    }

    /// Restarts every replica, promotes if needed, and runs every enabled
    /// fault-free event until none is left. Returns the leader.
    fn settle(&mut self) -> Result<Option<usize>, Violation> {
        let n = self.replicas.len();
        for i in 0..n {
            self.replicas[i].fail_persist = false;
            if self.live(i).is_none() {
                if !self.may_restart(i) {
                    let best = (0..n)
                        .max_by_key(|&j| (self.replicas[j].epoch, self.replicas[j].wal.len()))
                        .unwrap();
                    self.replicas[i].wal = self.replicas[best].wal.clone();
                    self.replicas[i].base = self.replicas[best].base;
                    self.replicas[i].epoch = self.replicas[best].epoch;
                }
                self.replicas[i].open(i);
            }
        }
        for _ in 0..2 {
            let top = self.replicas.iter().map(|r| r.epoch).max().unwrap();
            let leads = (0..n).any(|i| {
                self.live(i).is_some_and(|l| l.state.is_leader() && l.state.epoch() == top)
            });
            if !leads {
                let best = (0..n).rev().find(|&i| self.may_promote(i));
                if let Some(at) = best {
                    self.apply(Action::Promote { at })?;
                }
            }
            for _ in 0..10_000 {
                // Waiting quorums stay pending; everything else runs.
                let next = self.enabled(false).into_iter().find(|a| match *a {
                    Action::Work { at, task } => {
                        !matches!(
                            self.live(at).unwrap().tasks[task],
                            Task::Ingest { phase: Phase::Wait(_), .. }
                        ) || self.wait_done(at, task)
                    }
                    _ => true,
                });
                let Some(a) = next else { break };
                self.apply(a)?;
            }
        }
        let top = self.replicas.iter().map(|r| r.epoch).max().unwrap();
        Ok((0..n)
            .find(|&i| self.live(i).is_some_and(|l| l.state.is_leader() && l.state.epoch() == top)))
    }

    fn wait_done(&self, at: usize, task: usize) -> bool {
        let l = self.live(at).unwrap();
        let Task::Ingest { phase: Phase::Wait(target), .. } = l.tasks[task] else { return true };
        l.state.quorum(target) != Ok(false)
    }
}

fn set_phase(task: &mut Task, next: Phase) {
    match task {
        Task::Ingest { phase, .. } | Task::Frame { phase, .. } | Task::Promote { phase, .. } => {
            *phase = next
        }
    }
}

fn plan(wal: &[u64], from: u64, seqs: &[u64]) -> rrre_serve::replica::Plan {
    ReplicaState::plan_append(
        wal.len() as u64,
        from,
        seqs,
        |p| wal.get(p as usize).copied(),
        |s| wal.contains(&s),
    )
}

fn no_self_redirect(me: &str, hint: Option<&str>) -> Result<(), Violation> {
    if hint == Some(me) {
        return Err(format!("{me}, no longer leading, redirects clients to itself"));
    }
    Ok(())
}

/// A failing schedule and what broke.
#[derive(Debug)]
struct Failure {
    schedule: Vec<Action>,
    violation: Violation,
}

/// Runs `schedule` (skipping events not enabled when their turn comes),
/// then drains. Returns the events that ran.
fn replay(bounds: Bounds, schedule: &[Action]) -> Result<Vec<Action>, Failure> {
    let mut w = World::new(bounds);
    let mut ran = Vec::new();
    for &a in schedule {
        if !w.enabled(true).contains(&a) {
            continue;
        }
        ran.push(a);
        if let Err(violation) = w.apply(a) {
            return Err(Failure { schedule: ran, violation });
        }
    }
    w.drain().map_err(|violation| Failure { schedule: ran.clone(), violation })?;
    Ok(ran)
}

/// Deletes runs of 4, then 2, then 1 events from a failing schedule while
/// it still fails.
fn shrink(bounds: Bounds, mut failure: Failure) -> Failure {
    for width in [4, 2, 1] {
        let mut i = 0;
        while i + width <= failure.schedule.len() {
            let mut shorter = failure.schedule.clone();
            shorter.drain(i..i + width);
            match replay(bounds, &shorter) {
                Err(f) if f.schedule.len() < failure.schedule.len() => failure = f,
                _ => i += 1,
            }
        }
    }
    failure
}

/// Every interleaving up to `bounds.steps` events, each distinct state
/// once. Returns the number of states explored.
fn exhaustive(bounds: Bounds) -> Result<usize, Failure> {
    let mut seen = HashSet::new();
    let mut stack = vec![(World::new(bounds), Vec::new())];
    while let Some((w, path)) = stack.pop() {
        if !seen.insert(w.digest()) {
            continue;
        }
        let actions = if path.len() < bounds.steps { w.enabled(true) } else { Vec::new() };
        if actions.is_empty() {
            let mut end = w.clone();
            if let Err(violation) = end.drain() {
                return Err(Failure { schedule: path, violation });
            }
            continue;
        }
        for a in actions {
            let mut next = w.clone();
            let mut p: Vec<Action> = path.clone();
            p.push(a);
            if let Err(violation) = next.apply(a) {
                return Err(Failure { schedule: p, violation });
            }
            stack.push((next, p));
        }
    }
    Ok(seen.len())
}

/// One seeded schedule of up to `bounds.steps` events.
fn seeded(bounds: Bounds, seed: u64) -> Result<(), Failure> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut w = World::new(bounds);
    let mut path = Vec::new();
    for _ in 0..bounds.steps {
        let actions = w.enabled(true);
        if actions.is_empty() {
            break;
        }
        let a = actions[rng.gen_range(0..actions.len())];
        path.push(a);
        if let Err(violation) = w.apply(a) {
            return Err(Failure { schedule: path, violation });
        }
    }
    w.drain().map_err(|violation| Failure { schedule: path, violation })
}

fn report(bounds: Bounds, seed: Option<u64>, failure: Failure) -> ! {
    let failure = shrink(bounds, failure);
    panic!(
        "replication invariant broken (seed {seed:?}): {}\nshrunk schedule ({} events):\n{:#?}",
        failure.violation,
        failure.schedule.len(),
        failure.schedule
    );
}

const TWO: Bounds = Bounds {
    replicas: 2,
    records: 2,
    promotes: 1,
    crashes: 1,
    partitions: 1,
    net_faults: 1,
    persist_failures: 1,
    compactions: 0,
    sends: 1,
    steps: 14,
};

const THREE: Bounds = Bounds {
    replicas: 3,
    records: 3,
    promotes: 2,
    crashes: 2,
    partitions: 2,
    net_faults: 3,
    persist_failures: 1,
    compactions: 0,
    sends: 2,
    steps: 120,
};

#[test]
fn exhaustive_two_replicas() {
    match exhaustive(TWO) {
        Ok(states) => eprintln!("explored {states} distinct states at bounds {TWO:?}"),
        Err(failure) => report(TWO, None, failure),
    }
}

#[test]
fn seeded_three_replicas() {
    for seed in 0..1_000 {
        if let Err(failure) = seeded(THREE, seed) {
            report(THREE, Some(seed), failure);
        }
    }
}

/// Schedules a search found, each once a bug: replayed, they must pass.
const RECORDED: &[(Bounds, &[Action])] = &[
    // A leader counted a restarted ex-leader toward its quorum on the
    // strength of a count it reported to an empty probe, although the two
    // logs differed at position 0.
    (
        THREE,
        &[
            Action::Write { seq: 2, to: 0 },
            Action::Work { at: 0, task: 0 },
            Action::Crash { at: 0, unsynced: true },
            Action::Promote { at: 1 },
            Action::Write { seq: 1, to: 1 },
            Action::Work { at: 1, task: 0 },
            Action::Write { seq: 3, to: 1 },
            Action::Work { at: 1, task: 0 },
            Action::Ship { at: 1, to: 2 },
            Action::Deliver { msg: 0 },
            Action::Work { at: 2, task: 0 },
            Action::Work { at: 2, task: 0 },
        ],
    ),
    // The same bug, found from cold against the parent's shipping rules.
    (
        THREE,
        &[
            Action::Write { seq: 2, to: 0 },
            Action::Work { at: 0, task: 0 },
            Action::Crash { at: 0, unsynced: true },
            Action::Promote { at: 2 },
            Action::Work { at: 2, task: 0 },
            Action::Work { at: 2, task: 0 },
            Action::Ship { at: 2, to: 1 },
            Action::Deliver { msg: 0 },
            Action::Work { at: 1, task: 0 },
            Action::Work { at: 1, task: 0 },
        ],
    ),
    // A leader restarted with its flags led a term another replica led:
    // open must not lead above the requested term.
    (
        THREE,
        &[
            Action::Write { seq: 2, to: 0 },
            Action::Work { at: 0, task: 0 },
            Action::Crash { at: 0, unsynced: true },
            Action::Promote { at: 2 },
        ],
    ),
    // A term installed before its epoch write failed: memory ahead of disk.
    (
        TWO,
        &[
            Action::FailPersist { at: 1 },
            Action::Ship { at: 0, to: 1 },
            Action::Duplicate { msg: 0 },
            Action::Deliver { msg: 1 },
            Action::Work { at: 1, task: 0 },
            Action::Work { at: 1, task: 0 },
        ],
    ),
    // A term judged new, then installed after a higher one: the epoch
    // went back unless the install compares again.
    (
        THREE,
        &[
            Action::Ship { at: 0, to: 2 },
            Action::Crash { at: 0, unsynced: false },
            Action::Promote { at: 2 },
            Action::Write { seq: 3, to: 2 },
            Action::Deliver { msg: 0 },
            Action::Work { at: 2, task: 2 },
        ],
    ),
    // A leader fenced by a follower's StaleEpoch kept its own address as
    // the redirect hint.
    (
        THREE,
        &[
            Action::FailPersist { at: 1 },
            Action::Crash { at: 0, unsynced: false },
            Action::Write { seq: 2, to: 1 },
            Action::Promote { at: 1 },
            Action::Work { at: 1, task: 1 },
            Action::Work { at: 1, task: 1 },
            Action::Promote { at: 2 },
            Action::Work { at: 2, task: 0 },
            Action::Work { at: 2, task: 0 },
            Action::Ship { at: 2, to: 1 },
            Action::Ship { at: 2, to: 0 },
            Action::Partition { cut: 1 },
            Action::Timeout { at: 2, to: 1 },
            Action::Work { at: 1, task: 0 },
            Action::Ship { at: 2, to: 1 },
            Action::Heal,
            Action::Deliver { msg: 2 },
            Action::Work { at: 1, task: 0 },
            Action::Work { at: 1, task: 0 },
            Action::Restart { at: 0 },
            Action::Write { seq: 3, to: 0 },
        ],
    ),
    // A follower's position recorded when its frame was sent: the leader
    // counted a record the follower did not hold yet.
    (TWO, &[Action::Write { seq: 1, to: 0 }]),
];

#[test]
fn recorded_schedules_pass() {
    for (bounds, schedule) in RECORDED {
        if let Err(failure) = replay(*bounds, schedule) {
            report(*bounds, None, failure);
        }
    }
}

/// Snapshot install is not built: a follower below the leader's compacted
/// base parks forever, and the simulator shows it never converges.
#[test]
fn a_follower_below_the_compacted_base_never_converges() {
    let bounds = Bounds { compactions: 1, ..TWO };
    let schedule = [
        Action::Partition { cut: 1 },
        Action::Write { seq: 1, to: 0 },
        Action::Work { at: 0, task: 0 },
        Action::Work { at: 0, task: 0 },
        Action::Compact { at: 0 },
    ];
    let failure = replay(bounds, &schedule).expect_err("a stranded follower converged");
    assert_eq!(failure.schedule, schedule, "every event ran");
    assert!(failure.violation.contains("r1 never caught up"), "{}", failure.violation);
}
