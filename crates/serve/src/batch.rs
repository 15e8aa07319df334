//! The micro-batching queue between the front end and the worker pool.
//!
//! Workers contend on a single striped point: whoever takes the receiver
//! lock blocks for the next job, greedily drains everything already queued
//! (up to `max_batch`), and only if still alone waits up to `max_wait` for
//! a second job before giving up and serving the singleton. Coalescing is
//! therefore free under load — queued jobs batch without any added wait —
//! while an idle engine delays a lone request by at most one `max_wait`
//! window. The lock is held only while *collecting*: the worker releases
//! it before processing, so the next worker collects the next batch while
//! the first one computes.

use rrre_wire::{Request, Response};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A slot in the bounded submission queue, held for the job's lifetime.
/// Dropping it — on reply, on shed, or mid-unwind if a worker panics with
/// the job in hand — releases the slot, so the depth counter can never
/// leak and wedge the queue shut.
pub struct QueuePermit {
    depth: Arc<AtomicUsize>,
}

impl QueuePermit {
    /// Claims a slot, or returns `None` when `cap` jobs are already queued
    /// (the caller sheds the request).
    pub fn acquire(depth: &Arc<AtomicUsize>, cap: usize) -> Option<Self> {
        if depth.fetch_add(1, Ordering::AcqRel) >= cap {
            depth.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(Self { depth: Arc::clone(depth) })
    }
}

impl Drop for QueuePermit {
    fn drop(&mut self) {
        self.depth.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Where a job's response goes: a callback invoked on whichever thread
/// completes the job (a worker, or the submitting thread for refusals).
/// The event loop's callback queues the response on its connection — it
/// must never park a thread per request — and blocking
/// [`crate::Engine::submit`] passes one that sends on its channel.
///
/// A `Completion` is **guaranteed to fire exactly once**: dropping one
/// unfired (a queue torn down mid-shutdown with jobs still aboard)
/// synthesizes a structured `internal` response, so neither a blocked
/// caller nor an event-loop connection can be left waiting forever.
pub struct Completion {
    callback: Option<Box<dyn FnOnce(Response) + Send>>,
    /// The request's correlation id, for the synthesized never-fired
    /// response.
    id: Option<u64>,
}

impl Completion {
    /// A completion that invokes `callback` with the response.
    pub fn new(callback: Box<dyn FnOnce(Response) + Send>, id: Option<u64>) -> Self {
        Self { callback: Some(callback), id }
    }

    /// Delivers the response.
    pub fn complete(mut self, response: Response) {
        if let Some(callback) = self.callback.take() {
            callback(response);
        }
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if let Some(callback) = self.callback.take() {
            callback(Response::internal(self.id, "engine dropped the request"));
        }
    }
}

/// One queued request plus the means to answer it.
pub struct Job {
    /// The decoded request.
    pub request: Request,
    /// When the job entered the queue (deadline + latency base).
    pub enqueued: Instant,
    /// Where the response goes.
    pub reply: Completion,
    /// The queue slot this job occupies.
    pub permit: QueuePermit,
}

impl Job {
    /// Wraps a request that holds a bounded-queue slot, stamping the
    /// enqueue time now.
    pub fn with_permit(request: Request, reply: Completion, permit: QueuePermit) -> Self {
        Self { request, enqueued: Instant::now(), reply, permit }
    }
}

/// Batch collection parameters.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Maximum jobs per drained batch.
    pub max_batch: usize,
    /// Maximum time to wait for follow-up jobs after the first.
    pub max_wait: Duration,
}

/// The consumer half of the engine queue. Shared by every worker.
pub struct BatchQueue {
    rx: Mutex<Receiver<Job>>,
    cfg: BatchConfig,
}

impl BatchQueue {
    /// Creates the queue, returning the producer handle and the queue.
    pub fn new(cfg: BatchConfig) -> (Sender<Job>, Self) {
        assert!(cfg.max_batch >= 1, "BatchQueue: max_batch must be ≥ 1");
        let (tx, rx) = mpsc::channel();
        (tx, Self { rx: Mutex::new(rx), cfg })
    }

    /// Blocks for the next batch: one job, everything already queued behind
    /// it (up to `max_batch`), and — only if that leaves a singleton — up
    /// to `max_wait` for one straggler plus whatever arrives with it.
    /// Returns `None` when every producer handle has been dropped — the
    /// shutdown signal.
    pub fn next_batch(&self) -> Option<Vec<Job>> {
        // A poisoned receiver lock only means another worker panicked while
        // collecting; the receiver itself is still valid.
        let rx = self.rx.lock().unwrap_or_else(|e| e.into_inner());
        let first = rx.recv().ok()?;
        let mut batch = vec![first];
        // Free coalescing: drain the backlog without waiting.
        while batch.len() < self.cfg.max_batch {
            match rx.try_recv() {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
        }
        // Nothing was queued behind the first job: give followers one
        // bounded window, then serve whatever exists. Never stall a batch
        // that already has company — that trades latency for nothing.
        if batch.len() == 1 && self.cfg.max_batch > 1 && !self.cfg.max_wait.is_zero() {
            match rx.recv_timeout(self.cfg.max_wait) {
                Ok(job) => {
                    batch.push(job);
                    while batch.len() < self.cfg.max_batch {
                        match rx.try_recv() {
                            Ok(job) => batch.push(job),
                            Err(_) => break,
                        }
                    }
                }
                // Timeout: serve the singleton. Disconnected: serve it too;
                // the *next* call returns None and stops the worker.
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {}
            }
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel_completion(id: Option<u64>) -> (Completion, Receiver<Response>) {
        let (tx, rx) = mpsc::channel();
        let send = move |response| {
            let _ = tx.send(response);
        };
        (Completion::new(Box::new(send), id), rx)
    }

    fn job(req: Request) -> (Job, Receiver<Response>) {
        let (reply, rx) = channel_completion(req.id);
        let permit = QueuePermit::acquire(&Arc::default(), 1).unwrap();
        (Job::with_permit(req, reply, permit), rx)
    }

    #[test]
    fn drains_up_to_max_batch() {
        let (tx, queue) = BatchQueue::new(BatchConfig {
            max_batch: 3,
            max_wait: Duration::from_millis(200),
        });
        let mut replies = Vec::new();
        for i in 0..5 {
            let (j, r) = job(Request::predict(i, 0));
            tx.send(j).unwrap();
            replies.push(r);
        }
        let first = queue.next_batch().unwrap();
        assert_eq!(first.len(), 3);
        let second = queue.next_batch().unwrap();
        assert_eq!(second.len(), 2);
        assert_eq!(first[0].request.user, Some(0));
        assert_eq!(second[1].request.user, Some(4));
    }

    #[test]
    fn lone_job_released_after_window() {
        let (tx, queue) = BatchQueue::new(BatchConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(5),
        });
        let (j, _r) = job(Request::stats());
        tx.send(j).unwrap();
        let start = Instant::now();
        let batch = queue.next_batch().unwrap();
        assert_eq!(batch.len(), 1);
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn disconnect_ends_the_queue() {
        let (tx, queue) = BatchQueue::new(BatchConfig {
            max_batch: 2,
            max_wait: Duration::from_millis(1),
        });
        drop(tx);
        assert!(queue.next_batch().is_none());
    }

    #[test]
    fn dropped_completion_synthesizes_a_response() {
        let (completion, rx) = channel_completion(Some(9));
        drop(completion);
        let resp = rx.recv().unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.id, Some(9));
    }

    #[test]
    fn zero_wait_still_delivers() {
        let (tx, queue) = BatchQueue::new(BatchConfig {
            max_batch: 4,
            max_wait: Duration::ZERO,
        });
        let (j, _r) = job(Request::stats());
        tx.send(j).unwrap();
        assert_eq!(queue.next_batch().unwrap().len(), 1);
    }
}
