//! A hashed timer wheel for connection deadlines.
//!
//! The event loop needs thousands of idle-timeout deadlines that are
//! almost always *cancelled* (any byte of activity pushes a connection's
//! deadline out). A heap would pay `O(log n)` per reschedule; the wheel
//! pays nothing — deadlines are **lazy**. A connection is inserted once
//! per armed deadline; when its slot comes up, the caller checks the
//! connection's *current* deadline and either expires it or hands the
//! entry back to be re-filed under the new time. Stale entries therefore
//! cost one wasted slot visit instead of a cancellation data structure.
//!
//! Time is measured in ticks (the `tick` passed to [`TimerWheel::new`]) from
//! wheel creation.
//! Deadlines farther out than one wheel revolution are simply re-filed
//! when their slot comes around early — correctness never depends on the
//! horizon, only efficiency does.

use std::time::{Duration, Instant};

/// One scheduled entry: an opaque token (the event loop's connection id)
/// and the absolute deadline it was filed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled {
    /// The caller's token.
    pub token: u64,
    /// The deadline this entry was filed under. The caller compares it
    /// with the connection's current deadline to detect staleness.
    pub deadline: Instant,
}

/// The wheel. Not thread-safe by design — it lives on the event loop.
pub struct TimerWheel {
    slots: Vec<Vec<Scheduled>>,
    tick: Duration,
    epoch: Instant,
    /// Index of the next tick to drain (monotonic, not wrapped).
    cursor: u64,
}

impl TimerWheel {
    /// A wheel of `slots` buckets, `tick` apart (horizon = `slots × tick`).
    pub fn new(slots: usize, tick: Duration) -> Self {
        assert!(slots >= 2, "TimerWheel: need at least 2 slots");
        assert!(!tick.is_zero(), "TimerWheel: tick must be non-zero");
        Self {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            tick,
            epoch: Instant::now(),
            cursor: 0,
        }
    }

    fn tick_of(&self, t: Instant) -> u64 {
        let since = t.saturating_duration_since(self.epoch);
        (since.as_nanos() / self.tick.as_nanos().max(1)) as u64
    }

    /// Files `token` under `deadline`. Deadlines already in the past land
    /// in the next drained slot.
    pub fn schedule(&mut self, token: u64, deadline: Instant) {
        // Never file under an already-drained tick, or the entry would
        // wait a full revolution before being seen.
        let tick = self.tick_of(deadline).max(self.cursor);
        let slot = (tick % self.slots.len() as u64) as usize;
        self.slots[slot].push(Scheduled { token, deadline });
    }

    /// Drains every slot whose tick has passed by `now`, returning the
    /// entries filed there. The caller decides per entry: expired, stale
    /// (reschedule under the current deadline), or dead (drop). Entries
    /// filed for a future revolution of the same slot are handed back too
    /// — reschedule them; the wheel does not track revolutions.
    pub fn due(&mut self, now: Instant) -> Vec<Scheduled> {
        let target = self.tick_of(now);
        let mut out = Vec::new();
        // Bound one call to a single revolution: visiting a slot twice in
        // one drain would only re-collect entries just handed back.
        let steps = (target.saturating_sub(self.cursor) + 1).min(self.slots.len() as u64);
        for _ in 0..steps {
            let slot = (self.cursor % self.slots.len() as u64) as usize;
            out.append(&mut self.slots[slot]);
            if self.cursor >= target {
                break;
            }
            self.cursor += 1;
        }
        self.cursor = self.cursor.max(target);
        out
    }

    /// How long until the next occupied slot comes due — the event loop's
    /// poll timeout. `None` when the wheel is empty.
    pub fn next_due(&self, now: Instant) -> Option<Duration> {
        let mut soonest: Option<Instant> = None;
        for slot in &self.slots {
            for entry in slot {
                soonest = Some(match soonest {
                    Some(s) => s.min(entry.deadline),
                    None => entry.deadline,
                });
            }
        }
        soonest.map(|s| s.saturating_duration_since(now))
    }

    /// Entries currently filed (stale ones included).
    pub fn len(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// Whether no entries are filed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_entries_surface_once_their_tick_passes() {
        let mut wheel = TimerWheel::new(8, Duration::from_millis(10));
        let now = Instant::now();
        wheel.schedule(1, now + Duration::from_millis(25));
        wheel.schedule(2, now + Duration::from_millis(250));
        assert!(wheel.due(now).is_empty(), "nothing is due yet");
        let due = wheel.due(now + Duration::from_millis(40));
        assert!(due.iter().any(|s| s.token == 1), "token 1 is past due: {due:?}");
        // Token 2 may surface early (same slot, later revolution) — the
        // caller reschedules; it must not be *lost*.
        let survivors: Vec<_> = due.iter().filter(|s| s.token == 2).collect();
        for s in survivors {
            wheel.schedule(s.token, s.deadline);
        }
        let due = wheel.due(now + Duration::from_millis(400));
        assert!(due.iter().any(|s| s.token == 2));
    }

    #[test]
    fn past_deadlines_land_in_the_next_drain() {
        let mut wheel = TimerWheel::new(4, Duration::from_millis(5));
        let now = Instant::now();
        wheel.due(now + Duration::from_millis(50)); // advance the cursor
        wheel.schedule(7, now); // long past
        let due = wheel.due(now + Duration::from_millis(56));
        assert!(due.iter().any(|s| s.token == 7), "past deadline must still fire: {due:?}");
    }

    #[test]
    fn next_due_reports_the_soonest_deadline() {
        let mut wheel = TimerWheel::new(8, Duration::from_millis(10));
        let now = Instant::now();
        assert_eq!(wheel.next_due(now), None);
        wheel.schedule(1, now + Duration::from_millis(80));
        wheel.schedule(2, now + Duration::from_millis(30));
        let next = wheel.next_due(now).unwrap();
        assert!(next <= Duration::from_millis(30), "{next:?}");
    }

    #[test]
    fn drain_is_bounded_to_one_revolution() {
        let mut wheel = TimerWheel::new(4, Duration::from_millis(1));
        let now = Instant::now();
        wheel.schedule(1, now + Duration::from_millis(2));
        // A huge time jump must terminate and still surface the entry.
        let due = wheel.due(now + Duration::from_secs(3600));
        assert_eq!(due.len(), 1);
        assert!(wheel.is_empty());
    }
}
