//! Per-replica state: address, connection pool, breaker and counters.

use crate::breaker::Breaker;
use crate::LineConn;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One replica endpoint and everything the client knows about it.
pub struct Replica {
    /// The `host:port` this replica is reached at.
    pub addr: String,
    /// Outcome-driven circuit breaker.
    pub breaker: Mutex<Breaker>,
    pool: Mutex<Vec<LineConn>>,
    pool_cap: usize,
    /// Last health-probe verdict; `true` until a probe says otherwise so a
    /// probe-less client (or the window before the first probe lands)
    /// routes normally.
    probe_ready: AtomicBool,
    /// Attempts routed here (probes are *not* counted).
    pub attempts: AtomicU64,
    /// Attempts that failed (transport error, timeout, or a retryable
    /// server refusal).
    pub failures: AtomicU64,
}

impl Replica {
    /// A replica with an empty pool and a closed breaker.
    pub fn new(addr: String, breaker: Breaker, pool_cap: usize) -> Self {
        Self {
            addr,
            breaker: Mutex::new(breaker),
            pool: Mutex::new(Vec::new()),
            pool_cap,
            probe_ready: AtomicBool::new(true),
            attempts: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }

    /// A connection to this replica: pooled if one is idle (returned with
    /// `pooled = true` so the caller can apply its stale-connection grace
    /// retry), freshly dialed otherwise.
    pub fn checkout(&self, connect_timeout: Duration) -> std::io::Result<(LineConn, bool)> {
        if let Some(conn) = self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop() {
            return Ok((conn, true));
        }
        LineConn::dial(&self.addr, connect_timeout).map(|c| (c, false))
    }

    /// Returns a healthy connection to the pool (dropped if the pool is at
    /// capacity). Never check in a connection with an unread response in
    /// flight — the next checkout would read a stale reply.
    pub fn checkin(&self, conn: LineConn) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < self.pool_cap {
            pool.push(conn);
        }
    }

    /// Drops every idle pooled connection (used when a probe declares the
    /// replica dead — pooled sockets to it are dead too).
    pub fn clear_pool(&self) {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    /// The last health-probe verdict.
    pub fn probe_ready(&self) -> bool {
        self.probe_ready.load(Ordering::SeqCst)
    }

    /// Records a health-probe verdict.
    pub fn set_probe_ready(&self, ready: bool) {
        self.probe_ready.store(ready, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica(pool_cap: usize) -> Replica {
        Replica::new(
            "127.0.0.1:1".into(),
            Breaker::new(4, 2, Duration::from_millis(50)),
            pool_cap,
        )
    }

    #[test]
    fn pool_is_bounded() {
        let r = replica(1);
        // Dial conns to a real loopback listener.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let make = || LineConn::dial(&addr, Duration::from_millis(500)).unwrap();
        r.checkin(make());
        r.checkin(make());
        assert_eq!(r.pool.lock().unwrap().len(), 1, "pool must cap at pool_cap");
        let (_, pooled) = r.checkout(Duration::from_millis(100)).unwrap();
        assert!(pooled);
        r.clear_pool();
        assert!(r.pool.lock().unwrap().is_empty());
    }

    #[test]
    fn checkout_dials_when_pool_is_empty() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let r = Replica::new(
            listener.local_addr().unwrap().to_string(),
            Breaker::new(4, 2, Duration::from_millis(50)),
            1,
        );
        let (_, pooled) = r.checkout(Duration::from_millis(500)).unwrap();
        assert!(!pooled);
    }

    #[test]
    fn dial_failure_surfaces_as_io_error() {
        // A listener bound then dropped: the port refuses connections.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let r = Replica::new(addr, Breaker::new(4, 2, Duration::from_millis(50)), 1);
        assert!(r.checkout(Duration::from_millis(200)).is_err());
    }
}
