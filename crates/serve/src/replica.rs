//! Every decision the replicated write path makes, with no I/O.
//!
//! [`ReplicaState`] owns no lock, thread, socket, file or clock. It judges
//! wire terms, decides leadership at open and on `Promote`, plans what an
//! append does with a batch, picks each follower's next shipment, absorbs
//! its answer and gives the quorum verdict. Its callers — the serving
//! shell ([`crate::replication`], [`crate::ingest`]) and the simulator in
//! `rrre-testkit`'s tests — do the I/O its answers name. A term change is
//! two calls: [`ReplicaState::fence`] judges it, and
//! [`ReplicaState::install`] persists it through the caller's callback and
//! installs it, comparing it again with the term then current. The shell
//! makes both under one lock; the simulator interleaves other events
//! between them.
//!
//! Logs are positional: position `p` is the `p`-th record a replica
//! accepted, folded or not. A leader counts a follower toward a quorum
//! only up to what a frame proved: an empty probe, or a count below the
//! frame's start, only says where the follower's log ends, so the next
//! frame starts one record below that end, which the follower must hold
//! and match. A follower holding another record at a shipped position
//! refuses the frame, and one holding more records than the leader is
//! refused: either log diverged. Records at the log base are trusted —
//! nothing below them can be compared.

use crate::replication::ReplRole;
use std::collections::BTreeMap;
use std::io;

/// What a term read off the wire arrived on, which decides what
/// [`ReplicaState::fence`] does with it.
#[derive(Debug, Clone)]
pub enum Traffic {
    /// A client's `IngestReview`: only the acting leader passes, and a
    /// higher term is not adopted — clients follow leaders, they do not
    /// name them.
    Ingest,
    /// A leader's `Replicate`, or a follower's `StaleEpoch` answer to one,
    /// naming the leader to redirect clients at when it knows one. A higher
    /// term is adopted; the same term at its own acting leader is refused.
    Peer(Option<String>),
    /// `Promote`: lead the term, shipping to these peers. The same term is
    /// accepted only as the acting leader's peer-set refresh.
    Promote(Vec<String>),
}

/// Why a term was refused. Nothing changed.
#[derive(Debug)]
pub enum Refusal {
    /// The term on the wire is below this replica's (for `Promote`, not
    /// above it).
    Stale {
        /// The term on the wire.
        got: u64,
        /// This replica's term.
        current: u64,
    },
    /// Client ingest at a replica that is not the acting leader; carries
    /// the last known leader.
    NotLeader(Option<String>),
    /// A `Replicate` at this term reached the acting leader of that term:
    /// two leaders in one term.
    SameTermLeader(u64),
    /// The term could not be persisted.
    Persist(u64, io::Error),
}

/// A term [`ReplicaState::fence`] let through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fenced {
    /// The term in force; nothing to persist.
    Current(u64),
    /// A new term: persist it, then [`ReplicaState::install`] it.
    Adopt(u64),
}

/// What an append does with a batch of records shipped from log position
/// `from` (client ingest: one record at the replica's own count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Leading records at positions this replica already holds.
    pub skip: usize,
    /// Records to append after those, in order.
    pub take: usize,
    /// Why the batch stops before its end, if it does.
    pub stop: Option<Stop>,
}

/// Why a [`Plan`] stops short: every record before it still applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// This seq was accepted before: an ack on the client path, a
    /// divergence on the replicated one.
    Duplicate(u64),
    /// This replica holds another seq at this log position than the frame
    /// carries: the two logs disagree.
    Mismatch(u64),
}

/// What a leader does next for one follower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ship {
    /// The term, the promotion or the leadership this shipper served is
    /// gone.
    Exit,
    /// Nothing to ship: wait for an append — forever for a follower below
    /// the log base, which no frame can reach (it needs an artifact resync).
    Wait,
    /// Ship the records from this log position on.
    Send(u64),
}

/// A follower's position as its leader knows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Position {
    /// The follower reported this count, but no frame proved its records.
    Behind(u64),
    /// A frame proved the follower holds the leader's first `n` records.
    Confirmed(u64),
}

/// One replica's replication state: its term, its role and, while it
/// leads, what each follower is known to hold.
#[derive(Debug, Clone)]
pub struct ReplicaState {
    /// Persisted leader term this replica is fenced at.
    epoch: u64,
    /// Whether this replica is the acting ingest leader.
    leader: bool,
    /// Last known leader address (the `NotLeader` redirect hint).
    hint: Option<String>,
    /// This replica's advertised address: its hint once it leads.
    self_addr: Option<String>,
    /// Follower addresses the current term ships to (leader only).
    followers: Vec<String>,
    /// What each follower is known to hold; absent until it answers.
    positions: BTreeMap<String, Position>,
    /// Each follower's frame in flight: its first position and length.
    sent: BTreeMap<String, (u64, u64)>,
    /// Bumped by every promotion, same-term peer refreshes included, so
    /// the shipper of a superseded promotion exits.
    ship_gen: u64,
}

impl ReplicaState {
    /// The state a replica opens with, over the term its disk holds. A
    /// `Leader` role leads only when its requested term is at least the
    /// persisted one, at the requested term, which `persist` writes first
    /// when it is higher. Below the persisted term it opens as a follower
    /// with no hint — the persisted term may be another replica's — and
    /// the second value says why.
    pub fn open(
        persisted: u64,
        role: &ReplRole,
        self_addr: Option<String>,
        persist: impl FnOnce(u64) -> io::Result<()>,
    ) -> io::Result<(Self, Option<String>)> {
        let mut state = Self {
            epoch: persisted,
            leader: false,
            hint: None,
            self_addr,
            followers: Vec::new(),
            positions: BTreeMap::new(),
            sent: BTreeMap::new(),
            ship_gen: 0,
        };
        match role {
            ReplRole::Follower { leader } => state.hint.clone_from(leader),
            ReplRole::Leader { epoch, .. } if (*epoch).max(1) < persisted => {
                let why = format!(
                    "requested leader term {epoch} is below the persisted term {persisted}: \
                     opening as a follower; promote this replica to lead again"
                );
                return Ok((state, Some(why)));
            }
            ReplRole::Leader { followers, epoch } => {
                state.epoch = (*epoch).max(1);
                if state.epoch > persisted {
                    persist(state.epoch)?;
                }
                state.lead(followers);
            }
        }
        Ok((state, None))
    }

    /// Judges a term read off the wire (`got`; absent, the current term).
    /// Refuses a term below this replica's, client ingest anywhere but at
    /// the acting leader, a `Replicate` of its own term at the acting
    /// leader and a same-term `Promote` at a non-leader. Makes the
    /// same-term changes itself (a peer's hint, a leader's peer-set
    /// refresh) and returns [`Fenced::Adopt`] for a new term.
    pub fn fence(&mut self, got: Option<u64>, traffic: &Traffic) -> Result<Fenced, Refusal> {
        let current = self.epoch;
        let got = got.unwrap_or(current);
        if got < current {
            return Err(Refusal::Stale { got, current });
        }
        match traffic {
            Traffic::Ingest if !self.leader => Err(Refusal::NotLeader(self.hint.clone())),
            Traffic::Ingest => Ok(Fenced::Current(current)),
            Traffic::Peer(_) | Traffic::Promote(_) if got > current => Ok(Fenced::Adopt(got)),
            Traffic::Peer(_) if self.leader => Err(Refusal::SameTermLeader(got)),
            Traffic::Peer(hint) => {
                if hint.is_some() {
                    self.hint.clone_from(hint);
                }
                Ok(Fenced::Current(current))
            }
            Traffic::Promote(_) if !self.leader => Err(Refusal::Stale { got, current }),
            Traffic::Promote(peers) => {
                self.lead(peers);
                Ok(Fenced::Current(current))
            }
        }
    }

    /// Installs `epoch`, which [`ReplicaState::fence`] judged new, unless a
    /// term at or above it was installed since. `persist` writes it first;
    /// a failed write installs nothing. A peer's term ends any leadership
    /// and replaces the hint with the one the traffic names, even none; a
    /// promotion makes this replica the leader.
    pub fn install(
        &mut self,
        epoch: u64,
        traffic: &Traffic,
        persist: impl FnOnce(u64) -> io::Result<()>,
    ) -> Result<u64, Refusal> {
        if epoch <= self.epoch {
            // A term at or above it came in since the judgment: judge again.
            return self
                .fence(Some(epoch), traffic)
                .map(|(Fenced::Current(t) | Fenced::Adopt(t))| t);
        }
        persist(epoch).map_err(|e| Refusal::Persist(epoch, e))?;
        self.epoch = epoch;
        match traffic {
            Traffic::Promote(peers) => self.lead(peers),
            Traffic::Peer(hint) => (self.leader, self.hint) = (false, hint.clone()),
            Traffic::Ingest => {}
        }
        Ok(epoch)
    }

    fn lead(&mut self, peers: &[String]) {
        self.leader = true;
        self.hint.clone_from(&self.self_addr);
        self.followers = peers.to_vec();
        self.positions.clear();
        self.sent.clear();
        self.ship_gen += 1;
    }

    /// What an append does with `seqs` shipped from log position `from`,
    /// at a replica holding `count` records. `held(p)` is the seq at
    /// position `p` (`None` once folded) and `accepted(s)` whether `s` was
    /// ever accepted. Positions below `count` are skipped once each held
    /// seq matches the shipped one; a gap (`from > count`) applies nothing;
    /// the first new record whose seq was accepted before stops the batch.
    pub fn plan_append(
        count: u64,
        from: u64,
        seqs: &[u64],
        held: impl Fn(u64) -> Option<u64>,
        accepted: impl Fn(u64) -> bool,
    ) -> Plan {
        let Some(skip) = count.checked_sub(from) else {
            return Plan { skip: seqs.len(), take: 0, stop: None };
        };
        let skip = usize::try_from(skip).unwrap_or(usize::MAX).min(seqs.len());
        for (position, &shipped) in (from..).zip(&seqs[..skip]) {
            if held(position).is_some_and(|held| held != shipped) {
                return Plan { skip, take: 0, stop: Some(Stop::Mismatch(position)) };
            }
        }
        let new = &seqs[skip..];
        let take = (0..new.len())
            .find(|&i| accepted(new[i]) || new[..i].contains(&new[i]))
            .unwrap_or(new.len());
        Plan { skip, take, stop: new.get(take).map(|&seq| Stop::Duplicate(seq)) }
    }

    /// What to ship `addr` next, for the shipper of term `epoch` and
    /// promotion `gen`, over a log of `count` records above `base`.
    pub fn ship(&self, addr: &str, epoch: u64, gen: u64, count: u64, base: u64) -> Ship {
        if !self.leader || self.epoch != epoch || self.ship_gen != gen {
            return Ship::Exit;
        }
        // An unknown follower gets an empty probe, which only reports its
        // count; one whose records no frame proved is shipped from the
        // record below its count, which it must hold and match.
        let (next, proved) = match self.positions.get(addr) {
            None => return Ship::Send(count),
            Some(Position::Behind(n)) => (*n, false),
            Some(Position::Confirmed(n)) if *n >= count => return Ship::Wait,
            Some(Position::Confirmed(n)) => (*n, true),
        };
        let from = if proved { next } else { next.saturating_sub(1).max(base) };
        // Below the base, or level with a log that holds nothing to
        // compare: a record's frame will prove the position.
        if next < base || from == count {
            return Ship::Wait;
        }
        Ship::Send(from)
    }

    /// Notes that the shipper of term `epoch` and promotion `gen` sent
    /// `addr` a frame of `len` records from `from`; a superseded shipper's
    /// frame is not noted, so its answer proves nothing.
    pub fn sent(&mut self, addr: &str, (epoch, gen): (u64, u64), from: u64, len: u64) {
        if self.leader && self.epoch == epoch && self.ship_gen == gen {
            self.sent.insert(addr.to_string(), (from, len));
        }
    }

    /// Absorbs `count`, the follower `addr`'s answer to the frame it was
    /// last [sent](ReplicaState::sent) by the shipper of term `epoch` and
    /// promotion `gen`, at a leader holding `own` records. `Ok(true)` when
    /// the frame proved more of the follower's log; `Err(count)` when the
    /// follower holds more records than this leader — its log diverged. An
    /// answer to a superseded shipper changes nothing.
    pub fn absorb(
        &mut self,
        addr: &str,
        (epoch, gen): (u64, u64),
        count: u64,
        own: u64,
    ) -> Result<bool, u64> {
        let current = self.leader && self.epoch == epoch && self.ship_gen == gen;
        let Some((from, len)) = self.sent.remove(addr).filter(|_| current) else {
            return Ok(false);
        };
        if count > own {
            self.positions.remove(addr);
            return Err(count);
        }
        // Records the follower held past the frame are unproved.
        let (position, proved) = if count < from || len == 0 {
            (Position::Behind(count), false)
        } else {
            (Position::Confirmed(count.min(from + len)), true)
        };
        self.positions.insert(addr.to_string(), position);
        Ok(proved)
    }

    /// Whether a majority of the replica set — this leader plus every
    /// follower a frame proved — holds the first `target` records; off a
    /// leader, the error carries the hint of who leads.
    pub fn quorum(&self, target: u64) -> Result<bool, Option<String>> {
        if !self.leader {
            return Err(self.hint.clone());
        }
        let have = self.followers.iter().filter(|f| self.confirmed(f) >= target).count();
        Ok(have >= self.followers.len().div_ceil(2))
    }

    /// How many of this leader's records a frame proved `addr` holds.
    pub fn confirmed(&self, addr: &str) -> u64 {
        match self.positions.get(addr) {
            Some(Position::Confirmed(n)) => *n,
            _ => 0,
        }
    }

    /// How far the slowest follower trails a log of `count` records (`0`
    /// off a leader or without followers).
    pub fn lag(&self, count: u64) -> u64 {
        let known = |f: &String| match self.positions.get(f) {
            Some(Position::Behind(n) | Position::Confirmed(n)) => *n,
            None => 0,
        };
        let slowest = self.followers.iter().map(known).min();
        if self.leader {
            count.saturating_sub(slowest.unwrap_or(count))
        } else {
            0
        }
    }

    /// The term this replica is fenced at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether this replica acts as the ingest leader.
    pub fn is_leader(&self) -> bool {
        self.leader
    }

    /// The `NotLeader` redirect hint.
    pub fn hint(&self) -> Option<&str> {
        self.hint.as_deref()
    }

    /// The followers this leader ships to and the promotion generation
    /// their shippers serve.
    pub fn shipping(&self) -> (&[String], u64) {
        (&self.followers, self.ship_gen)
    }
}
