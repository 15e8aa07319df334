//! # rrre-wire
//!
//! The serving wire protocol: newline-delimited JSON, one request per line,
//! one response per line. Extracted from `rrre-serve` so that the server
//! and the resilient client (`rrre-client`) share one set of types
//! without the client linking the whole serving stack.
//!
//! Requests are flat maps — an `op` discriminator plus optional operand
//! fields — rather than tagged unions, so any language's JSON library can
//! speak the protocol with one object literal:
//!
//! ```text
//! {"op":"Predict","user":3,"item":7}
//! {"op":"Recommend","user":3,"k":5,"deadline_ms":50,"id":42}
//! {"op":"Explain","item":7,"k":3}
//! {"op":"Health"}
//! {"op":"Stats"}
//! ```
//!
//! Responses echo the optional client-chosen `id`, carry `ok`/`error`, and
//! populate exactly one payload field per op. `serde_json` in this
//! workspace never emits raw newlines inside a document (control characters
//! are always escaped), so one encoded response is always one line.

#![warn(missing_docs)]

use rrre_core::{Explanation, Recommendation};
use serde::{Deserialize, Serialize};

/// The two-stage top-`k` ordering and the score pair it orders by,
/// re-exported so the gather side ranks [`RecommendationDto`] rows with the
/// function the engine ranks with.
pub use rrre_core::{rank_by_key, Prediction};

pub mod frame;

pub use frame::{FrameDecoder, FrameError, FrameEvent};

/// Hard cap on one request line's byte length. Lines past this bound are
/// answered with a structured error and discarded instead of being
/// buffered without limit — a single client cannot balloon server memory.
pub const MAX_LINE_BYTES: usize = 16 * 1024;

/// Hard cap on one response line's byte length, exclusive of the newline
/// and inclusive at the bound, as [`MAX_LINE_BYTES`] is. [`encode_response`]
/// never emits a longer line, and a client reading responses through a
/// [`FrameDecoder`] of this bound buffers no more than this per connection.
pub const MAX_RESPONSE_BYTES: usize = 1 << 20;

/// The exhaustive set of accepted request fields. `decode_request` rejects
/// anything else: a typo like `"deadine_ms"` must fail loudly instead of
/// being silently dropped and serving with no deadline at all.
const REQUEST_FIELDS: [&str; 14] = [
    "id", "op", "user", "item", "k", "deadline_ms", "seq", "rating", "text", "ts", "epoch",
    "from", "records", "peers",
];

/// Request discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Rating + reliability for one `(user, item)` pair.
    Predict,
    /// Top-`k` items for `user` (§III-B two-stage ranking).
    Recommend,
    /// Up to `k` reliable explanation reviews for `item`.
    Explain,
    /// Engine counters.
    Stats,
    /// Liveness/readiness probe. Answered synchronously from counters —
    /// never queued, never shed — so health stays observable under
    /// overload and while the circuit breaker is open.
    Health,
    /// Re-load the artifact from its source directory and, if it validates,
    /// atomically swap it in as the next generation. A failed load leaves
    /// the current generation serving untouched.
    Reload,
    /// Deliberately panic inside the worker (supervision/breaker drills).
    /// Refused unless the engine was built with fault injection enabled.
    Crash,
    /// Append one review to the durable ingest WAL. Idempotent via the
    /// client-supplied `seq`: a sequence id that was already accepted is
    /// acknowledged as a duplicate without being applied again, so a client
    /// may blindly resend after an ambiguous failure (the crash-between-
    /// fsync-and-ack window) without double-applying.
    IngestReview,
    /// Fold the applied WAL records into the dataset and commit a new
    /// artifact generation (then truncate the folded segments). Not
    /// idempotent: each invocation may produce a new generation.
    Compact,
    /// Leader→follower WAL shipping: a batch of ingest records at
    /// contiguous leader-log positions starting at `from`, fenced by
    /// `epoch`. Each record carries its own CRC. The follower applies the
    /// non-overlapping suffix through its seq dedup and replies with its
    /// post-apply log count in `replicated`, so a blind redelivery is
    /// position-skipped and a gap makes the leader rewind — idempotent.
    Replicate,
    /// Fence-and-promote: make the receiving replica the shard's ingest
    /// leader under the (strictly higher) `epoch`, shipping to the `peers`
    /// follower addresses. Not idempotent: a resend with the same epoch is
    /// refused as stale.
    Promote,
}

impl Op {
    /// Whether retrying this op after an ambiguous transport failure is
    /// safe — i.e. a duplicate execution has no observable side effect.
    /// Reads (`Predict`/`Recommend`/`Explain`/`Stats`/`Health`) are
    /// idempotent, and so is `IngestReview` — its `seq` id dedups replays
    /// server-side. `Replicate` is position- and seq-deduped by the
    /// follower, so it resends safely. `Reload` bumps the generation,
    /// `Crash` burns a worker, `Compact` commits a new generation and
    /// `Promote` fences a new leader term, so none of those may be blindly
    /// resent.
    pub fn is_idempotent(self) -> bool {
        !matches!(self, Op::Reload | Op::Crash | Op::Compact | Op::Promote)
    }
}

/// One request line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Option<u64>,
    /// What to do.
    pub op: Op,
    /// Target user (`Predict`, `Recommend`, `IngestReview`).
    pub user: Option<u32>,
    /// Target item (`Predict`, `Explain`, `IngestReview`).
    pub item: Option<u32>,
    /// Result count (`Recommend`, `Explain`).
    pub k: Option<usize>,
    /// Per-request deadline, measured from enqueue. A request still queued
    /// when it expires is answered with an error instead of being served.
    pub deadline_ms: Option<u64>,
    /// Client-supplied ingest sequence id (`IngestReview`). Must be unique
    /// per review and reused verbatim on retries — the server dedups on it.
    pub seq: Option<u64>,
    /// Star rating of the ingested review (`IngestReview`, `1.0..=5.0`).
    pub rating: Option<f32>,
    /// Review text of the ingested review (`IngestReview`).
    pub text: Option<String>,
    /// Publication timestamp of the ingested review (`IngestReview`).
    pub ts: Option<i64>,
    /// Replication epoch (leader term) this request was issued under
    /// (`Replicate`, `Promote`; optional fence on `IngestReview`). A
    /// replica whose persisted epoch is higher refuses with `StaleEpoch`.
    pub epoch: Option<u64>,
    /// Leader-log position of the first record in the batch (`Replicate`).
    pub from: Option<u64>,
    /// The shipped record batch (`Replicate`), contiguous from `from`.
    pub records: Option<Vec<ReplRecordDto>>,
    /// Follower addresses the promoted leader ships to (`Promote`).
    pub peers: Option<Vec<String>>,
}

impl Request {
    fn bare(op: Op) -> Self {
        Self {
            id: None,
            op,
            user: None,
            item: None,
            k: None,
            deadline_ms: None,
            seq: None,
            rating: None,
            text: None,
            ts: None,
            epoch: None,
            from: None,
            records: None,
            peers: None,
        }
    }

    /// A `Predict` request.
    pub fn predict(user: u32, item: u32) -> Self {
        Self { user: Some(user), item: Some(item), ..Self::bare(Op::Predict) }
    }

    /// A `Recommend` request.
    pub fn recommend(user: u32, k: usize) -> Self {
        Self { user: Some(user), k: Some(k), ..Self::bare(Op::Recommend) }
    }

    /// An `Explain` request.
    pub fn explain(item: u32, k: usize) -> Self {
        Self { item: Some(item), k: Some(k), ..Self::bare(Op::Explain) }
    }

    /// A `Stats` request.
    pub fn stats() -> Self {
        Self::bare(Op::Stats)
    }

    /// A `Health` request.
    pub fn health() -> Self {
        Self::bare(Op::Health)
    }

    /// A `Reload` request.
    pub fn reload() -> Self {
        Self::bare(Op::Reload)
    }

    /// An `IngestReview` request. The `seq` is the client's durable
    /// sequence id for this review, and the server's exactly-once dedup
    /// keys on it, which leaves the client two rules:
    ///
    /// 1. never reuse a seq for another payload: the server would ack the
    ///    resend as a duplicate and silently drop the new review;
    /// 2. after an ambiguous outcome (a lost ack, a timeout, a crash
    ///    mid-request) resend the *same* request, seq and payload, so the
    ///    dedup collapses the retry into one record.
    ///
    /// Seqs need not be dense, and replaying an acked prefix is safe (it
    /// is acked `duplicate: true`).
    pub fn ingest_review(
        seq: u64,
        user: u32,
        item: u32,
        rating: f32,
        text: impl Into<String>,
        ts: i64,
    ) -> Self {
        Self {
            seq: Some(seq),
            user: Some(user),
            item: Some(item),
            rating: Some(rating),
            text: Some(text.into()),
            ts: Some(ts),
            ..Self::bare(Op::IngestReview)
        }
    }

    /// A `Compact` request.
    pub fn compact() -> Self {
        Self::bare(Op::Compact)
    }

    /// A `Replicate` request: ship `records` at contiguous leader-log
    /// positions starting at `from`, fenced by `epoch`. An empty batch is
    /// the position probe a freshly promoted leader uses to learn how far
    /// along each follower is.
    pub fn replicate(epoch: u64, from: u64, records: Vec<ReplRecordDto>) -> Self {
        Self {
            epoch: Some(epoch),
            from: Some(from),
            records: Some(records),
            ..Self::bare(Op::Replicate)
        }
    }

    /// A `Promote` request: fence a new leader term `epoch` on the
    /// receiving replica, shipping to `peers`.
    pub fn promote(epoch: u64, peers: Vec<String>) -> Self {
        Self { epoch: Some(epoch), peers: Some(peers), ..Self::bare(Op::Promote) }
    }

    /// Returns the request with a correlation id attached.
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = Some(id);
        self
    }

    /// Returns the request with a deadline attached.
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }
}

/// `Predict` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionDto {
    /// Predicted rating `r̂ ∈ [1, 5]`.
    pub rating: f32,
    /// Predicted reliability `l̂ ∈ [0, 1]`.
    pub reliability: f32,
}

impl From<Prediction> for PredictionDto {
    fn from(p: Prediction) -> Self {
        Self { rating: p.rating, reliability: p.reliability }
    }
}

/// One `Recommend` result row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendationDto {
    /// Recommended item id.
    pub item: u32,
    /// Item display name.
    pub item_name: String,
    /// Predicted rating.
    pub rating: f32,
    /// Predicted reliability.
    pub reliability: f32,
}

impl From<Recommendation> for RecommendationDto {
    fn from(r: Recommendation) -> Self {
        Self { item: r.item.0, item_name: r.item_name, rating: r.rating, reliability: r.reliability }
    }
}

/// One `Explain` result row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplanationDto {
    /// Index of the review in the dataset.
    pub review_idx: usize,
    /// Authoring user id.
    pub user: u32,
    /// Author display name.
    pub user_name: String,
    /// Review text.
    pub text: String,
    /// Predicted rating of the pair.
    pub rating: f32,
    /// Predicted reliability of the review.
    pub reliability: f32,
    /// Whether the §IV-F pipeline filters this review for low reliability.
    pub filtered: bool,
}

impl From<Explanation> for ExplanationDto {
    fn from(e: Explanation) -> Self {
        Self {
            review_idx: e.review_idx,
            user: e.user.0,
            user_name: e.user_name,
            text: e.text,
            rating: e.rating,
            reliability: e.reliability,
            filtered: e.filtered,
        }
    }
}

/// `Health` payload: the liveness/readiness split.
///
/// *Liveness* is implied by the response arriving at all — the process is
/// up, the socket accepts, the protocol parses. *Readiness* is the
/// operational claim: the engine is willing and able to serve traffic
/// right now. A replica that is draining for shutdown or sitting behind an
/// open circuit breaker is alive but **not** ready, and load balancers /
/// resilient clients should drain traffic away from it until it recovers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthDto {
    /// The process answered — always `true` in a response you received.
    pub live: bool,
    /// Accepting traffic: not draining, breaker closed, a validated
    /// generation loaded. A failed reload does *not* clear readiness —
    /// the previous generation keeps serving unimpaired.
    pub ready: bool,
    /// The server has begun draining for shutdown.
    pub draining: bool,
    /// The panic circuit breaker is currently open.
    pub breaker_open: bool,
    /// Artifact generation currently serving.
    pub generation: u64,
}

/// `IngestReview` payload: the durability acknowledgement.
///
/// `ok: true` on the enclosing response means the review is **on disk and
/// fsynced** (or was already — `duplicate`). The ack is sent only after the
/// WAL write is durable, so a client that never sees it may safely resend
/// the same `seq`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestDto {
    /// The sequence id this ack covers (echo of the request's `seq`).
    pub seq: u64,
    /// `true` when this seq was already durably accepted — the review was
    /// *not* applied a second time.
    pub duplicate: bool,
}

/// `Compact` payload: what one compaction run folded.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompactionDto {
    /// WAL records folded into the new artifact generation.
    pub folded: u64,
    /// The artifact generation now serving (post-reload).
    pub generation: u64,
}

/// One shipped WAL record (a `Replicate` batch holds several). The
/// same payload the leader's WAL frames on disk, plus a per-record CRC so
/// a relaying hop or a buggy batcher cannot silently hand a follower a
/// mangled review: the follower recomputes [`ReplRecordDto::checksum`]
/// over the payload fields and refuses the batch on mismatch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplRecordDto {
    /// Client-supplied idempotency sequence id.
    pub seq: u64,
    /// Dense user id.
    pub user: u32,
    /// Dense item id.
    pub item: u32,
    /// Star rating in `[1, 5]`.
    pub rating: f32,
    /// Review timestamp.
    pub ts: i64,
    /// Review text.
    pub text: String,
    /// CRC-32 over the payload fields (see [`ReplRecordDto::checksum`]).
    pub crc: u32,
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), bitwise —
/// dependency-free and plenty fast for review-sized payloads. Stamps every
/// [`ReplRecordDto`] and frames every record of the serving WAL.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

impl ReplRecordDto {
    /// The record's integrity checksum: CRC-32 over a fixed little-endian
    /// concatenation of the payload fields (`seq ‖ user ‖ item ‖
    /// rating-bits ‖ ts ‖ text`). Field order and widths are part of the
    /// wire contract — both ends must compute the identical value.
    pub fn checksum(&self) -> u32 {
        let mut buf = Vec::with_capacity(28 + self.text.len());
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.user.to_le_bytes());
        buf.extend_from_slice(&self.item.to_le_bytes());
        buf.extend_from_slice(&self.rating.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.ts.to_le_bytes());
        buf.extend_from_slice(self.text.as_bytes());
        crc32(&buf)
    }

    /// Builds a record with its `crc` stamped.
    pub fn sealed(seq: u64, user: u32, item: u32, rating: f32, ts: i64, text: String) -> Self {
        let mut rec = Self { seq, user, item, rating, ts, text, crc: 0 };
        rec.crc = rec.checksum();
        rec
    }

    /// Whether the stamped `crc` matches the payload.
    pub fn verify(&self) -> bool {
        self.crc == self.checksum()
    }
}

/// Machine-readable classification of a refused request, so clients can
/// implement retry policy without parsing error strings. The policy
/// `rrre-client` runs: `Overloaded` and `Unavailable` prove the request
/// never ran and are resent after backoff whatever the op; `NotLeader` is
/// resent to the advertised leader; `Internal` and `DeadlineExceeded` are
/// resent only for [`Op::is_idempotent`] ops; the rest are final.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The request itself is malformed or references unknown entities.
    BadRequest,
    /// Shed before processing: the submission queue was full.
    Overloaded,
    /// The circuit breaker is open (or the server is at its connection
    /// cap); the engine is protecting itself.
    Unavailable,
    /// The worker failed while processing this request (e.g. a caught
    /// panic); the request may or may not be safe to retry.
    Internal,
    /// The request's deadline passed while it was queued.
    DeadlineExceeded,
    /// The request reached a replica that does not own the target entity
    /// under the current shard map. The response's `shard` field names the
    /// owning shard and `map_version` the map the verdict was made under —
    /// a client seeing a version ahead of its own should refresh its
    /// topology. Retrying the *same* replica set cannot succeed, so this
    /// is not in the retryable set; re-routing is the client's job.
    WrongShard,
    /// The request carried a replication epoch older than the replica's
    /// persisted one: the sender is a fenced-off stale leader (or a relay
    /// of one). The response's `epoch` names the current term. Never
    /// blindly retryable — the sender must stop acting as leader.
    StaleEpoch,
    /// An ingest-path request reached a replica that is not the shard's
    /// current leader (a follower, or a leader that deposed itself after
    /// being fenced). The response's `leader` field carries the last known
    /// leader address when the replica has one; re-routing there is the
    /// client's job.
    NotLeader,
}

/// The parameters a consistent-hash shard map is derived from. This is the
/// *entire* map: shard assignment is a pure function of `(seed, vnodes,
/// shards)` (see `rrre-shard`), so carrying these four scalars in the
/// artifact manifest pins every entity's owner bit-for-bit across
/// processes, replicas and generations. `version` is bumped whenever the
/// topology changes so stale clients can be told apart from current ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Monotonic topology version, carried on `WrongShard` errors.
    pub version: u64,
    /// Number of shards the entity space is partitioned into.
    pub shards: u32,
    /// Virtual nodes per shard on the hash ring — more vnodes, smoother
    /// balance and smaller remap variance.
    pub vnodes: u32,
    /// Seed of the ring/placement hash.
    pub seed: u64,
}

// Manual serde: this workspace's JSON layer carries numbers as f64, which
// silently rounds integers above 2^53 — fatal for `seed`, whose every bit
// decides entity placement. The seed travels as a hex *string* instead,
// so the spec round-trips bit-for-bit. (`version` stays numeric: it is a
// small monotonic counter, not arbitrary bits.)
impl Serialize for ShardSpec {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("version".into(), self.version.to_content()),
            ("shards".into(), self.shards.to_content()),
            ("vnodes".into(), self.vnodes.to_content()),
            ("seed".into(), serde::Content::Str(format!("{:#018x}", self.seed))),
        ])
    }
}

impl Deserialize for ShardSpec {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        let seed_content = serde::content_field(content, "seed")?;
        let seed = match seed_content {
            serde::Content::Str(s) => {
                let digits = s.strip_prefix("0x").unwrap_or(s);
                u64::from_str_radix(digits, 16)
                    .map_err(|e| serde::DeError::msg(format!("bad shard seed `{s}`: {e}")))?
            }
            // Tolerate numeric seeds (hand-written specs) up to 2^53 − 1; a
            // larger one is refused, not rounded: write it as a hex string.
            other => u64::from_content(other)?,
        };
        Ok(Self {
            version: u64::from_content(serde::content_field(content, "version")?)?,
            shards: u32::from_content(serde::content_field(content, "shards")?)?,
            vnodes: u32::from_content(serde::content_field(content, "vnodes")?)?,
            seed,
        })
    }
}

impl ShardSpec {
    /// The degenerate single-shard map: every entity owned by shard 0 —
    /// the whole-model serving mode every pre-sharding artifact used.
    pub fn single() -> Self {
        Self { version: 1, shards: 1, vnodes: 64, seed: 0x5A4D_A9C7 }
    }

    /// A map over `shards` shards with the default vnode count and seed.
    pub fn with_shards(shards: u32) -> Self {
        Self { shards, ..Self::single() }
    }

    /// Structural validation (used on artifact load and topology parse).
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("shard spec declares zero shards".into());
        }
        if self.vnodes == 0 {
            return Err("shard spec declares zero vnodes per shard".into());
        }
        Ok(())
    }
}

/// One response line. Exactly one payload field is populated on success;
/// all are `null` on error.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Response {
    /// Correlation id echoed from the request (absent only when the line
    /// was too mangled to recover an `id` from).
    pub id: Option<u64>,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Error description when `ok` is false.
    pub error: Option<String>,
    /// Error classification when `ok` is false. Every error the server
    /// sends carries one.
    pub kind: Option<ErrorKind>,
    /// Artifact generation that served this request (success paths only).
    pub generation: Option<u64>,
    /// `Predict` payload.
    pub prediction: Option<PredictionDto>,
    /// `Recommend` payload.
    pub recommendations: Option<Vec<RecommendationDto>>,
    /// `Explain` payload.
    pub explanations: Option<Vec<ExplanationDto>>,
    /// `Stats` payload.
    pub stats: Option<StatsSnapshot>,
    /// `Health` payload.
    pub health: Option<HealthDto>,
    /// Shard that produced this response (set by sharded engines), or —
    /// on a `WrongShard` error — the shard that *owns* the entity.
    pub shard: Option<u32>,
    /// Shard-map version the `shard` verdict was made under.
    pub map_version: Option<u64>,
    /// `true` when this is a *partial* scatter-gather answer: one or more
    /// shards were unreachable, so the result covers only the surviving
    /// shards' slice of the entity space. Every row present is still
    /// exactly what the full computation would score it — degraded answers
    /// are incomplete, never wrong.
    pub degraded: Option<bool>,
    /// The shard ids a degraded answer is missing.
    pub missing_shards: Option<Vec<u32>>,
    /// `IngestReview` payload: the durability acknowledgement.
    pub ingest: Option<IngestDto>,
    /// `Compact` payload.
    pub compaction: Option<CompactionDto>,
    /// Replication epoch at the responding replica (`Promote` acks,
    /// `StaleEpoch` refusals, replication-aware `Stats`).
    pub epoch: Option<u64>,
    /// Last known leader address, on `NotLeader` refusals — the
    /// follow-the-leader redirect hint.
    pub leader: Option<String>,
    /// On a `Replicate` ack, how far the follower's durable log now
    /// extends: the leader rewinds its shipping cursor to this on a gap.
    pub replicated: Option<u64>,
}

impl Response {
    /// An empty success response (payload to be filled by the caller).
    pub fn ok(id: Option<u64>) -> Self {
        Self {
            id,
            ok: true,
            error: None,
            kind: None,
            generation: None,
            prediction: None,
            recommendations: None,
            explanations: None,
            stats: None,
            health: None,
            shard: None,
            map_version: None,
            degraded: None,
            missing_shards: None,
            ingest: None,
            compaction: None,
            epoch: None,
            leader: None,
            replicated: None,
        }
    }

    /// An error response of the given [`ErrorKind`].
    pub fn error_kind(id: Option<u64>, kind: ErrorKind, message: impl Into<String>) -> Self {
        Self { ok: false, error: Some(message.into()), kind: Some(kind), ..Self::ok(id) }
    }

    /// The structured shed response for a full submission queue.
    pub fn overloaded(id: Option<u64>) -> Self {
        Self::error_kind(id, ErrorKind::Overloaded, "overloaded: submission queue is full, retry with backoff")
    }

    /// The structured refusal for an open circuit breaker or a saturated
    /// connection cap.
    pub fn unavailable(id: Option<u64>, why: impl Into<String>) -> Self {
        Self::error_kind(id, ErrorKind::Unavailable, why)
    }

    /// The structured reply for a worker-side failure.
    pub fn internal(id: Option<u64>, why: impl Into<String>) -> Self {
        Self::error_kind(id, ErrorKind::Internal, why)
    }

    /// The structured refusal for a request routed to a replica that does
    /// not own its target entity: names the owning shard and the map
    /// version the verdict was made under.
    pub fn wrong_shard(id: Option<u64>, owner: u32, map_version: u64) -> Self {
        let mut resp = Self::error_kind(
            id,
            ErrorKind::WrongShard,
            format!("entity is owned by shard {owner} (shard map version {map_version})"),
        );
        resp.shard = Some(owner);
        resp.map_version = Some(map_version);
        resp
    }

    /// The structured refusal for replication traffic carrying a fenced
    /// (older) epoch: names the replica's current term so the stale sender
    /// can see exactly how far behind its view is.
    pub fn stale_epoch(id: Option<u64>, got: u64, current: u64) -> Self {
        let mut resp = Self::error_kind(
            id,
            ErrorKind::StaleEpoch,
            format!("epoch {got} is stale: this replica is fenced at epoch {current}"),
        );
        resp.epoch = Some(current);
        resp
    }

    /// The structured refusal for ingest-path traffic at a replica that is
    /// not the shard's current leader, carrying the redirect hint when the
    /// replica knows one.
    pub fn not_leader(id: Option<u64>, leader: Option<String>) -> Self {
        let mut resp = Self::error_kind(
            id,
            ErrorKind::NotLeader,
            match &leader {
                Some(addr) => format!("not the ingest leader; current leader is {addr}"),
                None => "not the ingest leader and no leader is known".to_string(),
            },
        );
        resp.leader = leader;
        resp
    }
}

/// Wire-serialisable snapshot of the engine's counters, returned by the
/// `Stats` request.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Requests processed so far.
    pub requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Micro-batches drained.
    pub batches: u64,
    /// Mean jobs per drained batch.
    pub mean_batch: f64,
    /// Largest batch drained.
    pub max_batch: u64,
    /// UserNet cache hits.
    pub user_cache_hits: u64,
    /// UserNet cache misses.
    pub user_cache_misses: u64,
    /// ItemNet cache hits.
    pub item_cache_hits: u64,
    /// ItemNet cache misses.
    pub item_cache_misses: u64,
    /// Hits over all lookups, both caches combined.
    pub cache_hit_rate: f64,
    /// Tower forward passes executed (== total cache misses).
    pub tower_evals: u64,
    /// Requests that missed their deadline while queued.
    pub deadline_misses: u64,
    /// Requests shed at submission (queue full or breaker open).
    pub shed: u64,
    /// Hot-reload attempts.
    pub reloads: u64,
    /// Hot-reload attempts that failed (old generation kept serving).
    pub reload_failures: u64,
    /// Worker panics caught and recovered by the supervisor.
    pub worker_panics: u64,
    /// Artifact generation currently serving (starts at 1, +1 per
    /// successful reload).
    pub generation: u64,
    /// Whether the panic circuit breaker is currently open.
    pub breaker_open: bool,
    /// Whether the server has begun draining for shutdown.
    pub draining: bool,
    /// Readiness: not draining and breaker closed (see [`HealthDto`]).
    pub ready: bool,
    /// Median enqueue-to-reply latency (µs, power-of-two resolution).
    pub p50_latency_us: u64,
    /// 99th-percentile enqueue-to-reply latency (µs).
    pub p99_latency_us: u64,
    /// Shard this engine serves (`None` = whole-model, owns everything).
    pub shard_id: Option<u32>,
    /// Requests refused with `WrongShard` — traffic a stale or misrouting
    /// client aimed at a replica that does not own the entity.
    pub cross_shard_rejects: u64,
    /// Shard-scoped `Recommend` requests served — this replica's side of a
    /// scatter-gather fan-out (always 0 on whole-model engines).
    pub scatter_fanout: u64,
    /// Partial answers produced. Engines themselves never degrade (they
    /// either own the entity or refuse), so this is 0 on a replica's own
    /// snapshot; the scatter-gather client fills it in merged snapshots.
    pub degraded_responses: u64,
    /// Connections currently open on the TCP front end (a gauge, not a
    /// monotonic counter; 0 on engines served without a front end).
    pub open_conns: u64,
    /// Requests currently submitted by the front end and not yet answered —
    /// the fleet-wide pipelining depth at snapshot time (a gauge).
    pub pipelined_inflight: u64,
    /// `writev` calls that flushed two or more response frames in one
    /// syscall — how often pipelining actually coalesced writes.
    pub writev_batches: u64,
    /// Read events that left an incomplete frame buffered — slow-loris
    /// and mid-frame chunk boundaries the incremental decoder absorbed.
    pub frames_partial: u64,
    /// Reviews durably accepted through `IngestReview` (first-time acks;
    /// duplicates are counted separately).
    pub ingested: u64,
    /// `IngestReview` requests acknowledged as duplicates of an already
    /// accepted sequence id (exactly-once dedup at work).
    pub ingest_duplicates: u64,
    /// Bytes currently held in un-truncated WAL segments.
    pub wal_bytes: u64,
    /// Incremental tower refreshes published (each drains a batch of WAL
    /// records into the serving generation without a reload).
    pub refreshes: u64,
    /// Compactions committed (WAL folded into a new artifact generation).
    pub compactions: u64,
    /// WAL recovery events: torn/corrupt tail records truncated at
    /// startup. Mid-log corruption is *not* counted here — it fails the
    /// engine closed instead of being silently skipped.
    pub wal_recoveries: u64,
    /// Replication epoch (leader term) this replica is fenced at (0 when
    /// replication is not configured). Fleet merges take the max.
    pub epoch: u64,
    /// Records durably accepted on this replica, folded ones included — its
    /// log position (leader appends plus follower-applied shipments).
    pub replicated_seq: u64,
    /// Leader only: log records not yet acked by the slowest live
    /// follower (0 on followers and unreplicated engines).
    pub replication_lag: u64,
    /// Requests refused with `StaleEpoch` — fenced stale-leader traffic
    /// this replica turned away.
    pub stale_epoch_rejections: u64,
}

/// Encodes a response as one protocol line (no trailing newline). An
/// answer longer than [`MAX_RESPONSE_BYTES`] (an `Explain` over long
/// reviews at a large `k`) is replaced by a `BadRequest` with the same
/// `id` that names the bound, so no client ever has to refuse a line.
pub fn encode_response(resp: &Response) -> String {
    let line = serde_json::to_string(resp).expect("Response serialisation cannot fail");
    if line.len() <= MAX_RESPONSE_BYTES {
        return line;
    }
    let refusal = Response::error_kind(
        resp.id,
        ErrorKind::BadRequest,
        format!(
            "response of {} bytes exceeds {MAX_RESPONSE_BYTES} bytes; ask for fewer results",
            line.len()
        ),
    );
    serde_json::to_string(&refusal).expect("Response serialisation cannot fail")
}

/// Best-effort correlation-id recovery from a request line that failed
/// full decoding. If the line parses as a JSON object with an integral
/// `id`, that id is returned so the error response can still be matched to
/// its request under pipelining; anything less intact yields `None`.
pub fn extract_id(line: &str) -> Option<u64> {
    let value: serde_json::Value = serde_json::from_str(line.trim()).ok()?;
    value.get("id")?.as_u64()
}

/// Decodes one request line.
///
/// Rejects, with a structured message: lines over [`MAX_LINE_BYTES`],
/// non-object documents, unknown fields, and anything `Request`'s own
/// deserializer refuses (missing/mistyped `op`, wrong value types).
pub fn decode_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    if line.len() > MAX_LINE_BYTES {
        return Err(format!("request line exceeds {MAX_LINE_BYTES} bytes ({} bytes)", line.len()));
    }
    let value: serde_json::Value = serde_json::from_str(line).map_err(|e| format!("bad request: {e}"))?;
    let serde_json::Value::Map(fields) = &value else {
        return Err("bad request: expected a JSON object".into());
    };
    for (key, _) in fields {
        if !REQUEST_FIELDS.contains(&key.as_str()) {
            return Err(format!("bad request: unknown field `{key}`"));
        }
    }
    serde_json::from_value(&value).map_err(|e| format!("bad request: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_lines_parse() {
        let r = decode_request(r#"{"op":"Predict","user":3,"item":7}"#).unwrap();
        assert_eq!(r.op, Op::Predict);
        assert_eq!((r.user, r.item), (Some(3), Some(7)));
        assert_eq!(r.id, None);
        assert_eq!(r.deadline_ms, None);

        let r = decode_request(r#"{"op":"Stats"}"#).unwrap();
        assert_eq!(r.op, Op::Stats);

        let r = decode_request(r#"{"op":"Health"}"#).unwrap();
        assert_eq!(r.op, Op::Health);
    }

    #[test]
    fn unknown_op_is_an_error() {
        let err = decode_request(r#"{"op":"Frobnicate"}"#).unwrap_err();
        assert!(err.contains("Frobnicate"), "unhelpful error: {err}");
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(decode_request("{not json").is_err());
        assert!(decode_request("").is_err());
    }

    #[test]
    fn unknown_fields_are_rejected_not_ignored() {
        let err = decode_request(r#"{"op":"Predict","user":3,"item":7,"deadine_ms":50}"#).unwrap_err();
        assert!(err.contains("deadine_ms"), "unhelpful error: {err}");
    }

    #[test]
    fn non_object_documents_are_rejected() {
        assert!(decode_request("[1,2,3]").unwrap_err().contains("object"));
        assert!(decode_request("42").unwrap_err().contains("object"));
        assert!(decode_request(r#""Predict""#).unwrap_err().contains("object"));
    }

    #[test]
    fn oversized_lines_are_rejected_with_the_limit_in_the_message() {
        let line = format!(r#"{{"op":"Stats{}"}}"#, " ".repeat(MAX_LINE_BYTES));
        let err = decode_request(&line).unwrap_err();
        assert!(err.contains(&MAX_LINE_BYTES.to_string()), "unhelpful error: {err}");
    }

    #[test]
    fn request_roundtrips() {
        let r = Request::recommend(5, 10).with_id(99);
        let line = serde_json::to_string(&r).unwrap();
        assert!(!line.contains('\n'), "protocol lines must be single-line");
        let back = decode_request(&line).unwrap();
        assert_eq!(back.op, Op::Recommend);
        assert_eq!((back.user, back.k, back.id), (Some(5), Some(10), Some(99)));
    }

    #[test]
    fn integers_past_2_53_are_refused_not_rounded() {
        let exact = serde::MAX_EXACT_INT;
        let line =
            serde_json::to_string(&Request::ingest_review(exact, 0, 1, 4.0, "ok", 0).with_id(exact)).unwrap();
        let back = decode_request(&line).unwrap();
        assert_eq!((back.seq, back.id), (Some(exact), Some(exact)));
        assert_eq!(extract_id(&line), Some(exact));
        // 2^53 + 1 parses to the same f64 as 2^53; 2^64 lies past u64::MAX.
        for big in ["9007199254740993", "18446744073709551616"] {
            let line = format!(
                r#"{{"op":"IngestReview","seq":{big},"user":0,"item":1,"rating":4.0,"text":"ok","ts":0}}"#
            );
            let err = decode_request(&line).unwrap_err();
            assert!(err.contains(&exact.to_string()), "error must name the bound: {err}");
            assert_eq!(extract_id(&format!(r#"{{"op":"Stats","id":{big}}}"#)), None);
        }
    }

    /// A response carrying one explanation whose text is `len` ASCII bytes.
    fn explained(id: u64, len: usize) -> Response {
        let mut resp = Response::ok(Some(id));
        resp.explanations = Some(vec![ExplanationDto {
            review_idx: 0,
            user: 0,
            user_name: String::new(),
            text: "x".repeat(len),
            rating: 4.0,
            reliability: 0.5,
            filtered: false,
        }]);
        resp
    }

    #[test]
    fn response_past_the_bound_becomes_a_bad_request_with_its_id() {
        let base = encode_response(&explained(7, 0)).len();
        let at_bound = explained(7, MAX_RESPONSE_BYTES - base);
        let line = encode_response(&at_bound);
        assert_eq!(line.len(), MAX_RESPONSE_BYTES, "an answer of exactly the bound is sent unchanged");
        let back: Response = serde_json::from_str(&line).unwrap();
        assert!(back.ok);
        assert_eq!(back.explanations, at_bound.explanations);

        let line = encode_response(&explained(7, MAX_RESPONSE_BYTES - base + 1));
        assert!(line.len() <= MAX_RESPONSE_BYTES);
        let back: Response = serde_json::from_str(&line).unwrap();
        assert!(!back.ok);
        assert_eq!(back.id, Some(7));
        assert_eq!(back.kind, Some(ErrorKind::BadRequest));
        assert_eq!(back.explanations, None);
        let error = back.error.unwrap();
        assert!(error.contains(&MAX_RESPONSE_BYTES.to_string()), "refusal must name the bound: {error}");
    }

    #[test]
    fn response_roundtrips_with_payload() {
        let mut resp = Response::ok(Some(7));
        resp.prediction = Some(PredictionDto { rating: 4.25, reliability: 0.5 });
        let line = encode_response(&resp);
        assert!(!line.contains('\n'));
        let back: Response = serde_json::from_str(&line).unwrap();
        assert!(back.ok);
        assert_eq!(back.id, Some(7));
        assert_eq!(back.prediction.unwrap(), PredictionDto { rating: 4.25, reliability: 0.5 });
    }

    #[test]
    fn error_responses_carry_the_message() {
        let resp = Response::error_kind(None, ErrorKind::DeadlineExceeded, "deadline exceeded");
        let back: Response = serde_json::from_str(&encode_response(&resp)).unwrap();
        assert!(!back.ok);
        assert_eq!(back.error.as_deref(), Some("deadline exceeded"));
        assert_eq!(back.kind, Some(ErrorKind::DeadlineExceeded));
        assert!(back.prediction.is_none());
    }

    #[test]
    fn extract_id_recovers_ids_from_undecodable_lines() {
        // Unknown field: decode fails, but the id is recoverable.
        assert!(decode_request(r#"{"op":"Predict","id":42,"speed":"max"}"#).is_err());
        assert_eq!(extract_id(r#"{"op":"Predict","id":42,"speed":"max"}"#), Some(42));
        // Unknown op: same.
        assert_eq!(extract_id(r#"{"op":"Frobnicate","id":7}"#), Some(7));
        // Too mangled, non-object, or non-integral id: nothing to echo.
        assert_eq!(extract_id("{not json"), None);
        assert_eq!(extract_id("[1,2,3]"), None);
        assert_eq!(extract_id(r#"{"id":"forty-two","op":"Stats"}"#), None);
        assert_eq!(extract_id(r#"{"id":1.5,"op":"Stats"}"#), None);
    }

    #[test]
    fn idempotency_classification_protects_side_effects() {
        for op in [
            Op::Predict,
            Op::Recommend,
            Op::Explain,
            Op::Stats,
            Op::Health,
            // Ingest is seq-deduped server-side, so a blind resend is safe —
            // that is the whole point of the client-supplied sequence id.
            Op::IngestReview,
            // Replication shipping is position- and seq-deduped by the
            // follower.
            Op::Replicate,
        ] {
            assert!(op.is_idempotent(), "{op:?} must be retryable");
        }
        for op in [Op::Reload, Op::Crash, Op::Compact, Op::Promote] {
            assert!(!op.is_idempotent(), "{op:?} must never be blindly retried");
        }
    }

    #[test]
    fn ingest_request_roundtrips_with_all_operands() {
        let r = Request::ingest_review(42, 3, 7, 4.0, "solid coffee", 1234).with_id(9);
        let line = serde_json::to_string(&r).unwrap();
        assert!(!line.contains('\n'));
        let back = decode_request(&line).unwrap();
        assert_eq!(back.op, Op::IngestReview);
        assert_eq!((back.seq, back.user, back.item), (Some(42), Some(3), Some(7)));
        assert_eq!(back.rating, Some(4.0));
        assert_eq!(back.text.as_deref(), Some("solid coffee"));
        assert_eq!(back.ts, Some(1234));
        assert_eq!(back.id, Some(9));
    }

    #[test]
    fn ingest_and_compaction_payloads_roundtrip() {
        let mut resp = Response::ok(Some(1));
        resp.ingest = Some(IngestDto { seq: 17, duplicate: true });
        let back: Response = serde_json::from_str(&encode_response(&resp)).unwrap();
        assert_eq!(back.ingest, Some(IngestDto { seq: 17, duplicate: true }));

        let mut resp = Response::ok(Some(2));
        resp.compaction = Some(CompactionDto { folded: 128, generation: 3 });
        let back: Response = serde_json::from_str(&encode_response(&resp)).unwrap();
        assert_eq!(back.compaction, Some(CompactionDto { folded: 128, generation: 3 }));
    }

    #[test]
    fn replicate_request_roundtrips_and_crc_catches_mutation() {
        let rec = ReplRecordDto::sealed(41, 3, 7, 4.5, 900, "fine grinder".into());
        assert!(rec.verify());
        let r = Request::replicate(2, 17, vec![rec.clone()]).with_id(5);
        let line = serde_json::to_string(&r).unwrap();
        assert!(!line.contains('\n'));
        let back = decode_request(&line).unwrap();
        assert_eq!(back.op, Op::Replicate);
        assert_eq!((back.epoch, back.from, back.id), (Some(2), Some(17), Some(5)));
        let shipped = &back.records.unwrap()[0];
        assert_eq!(shipped, &rec);
        assert!(shipped.verify());
        // Any payload mutation after sealing fails verification.
        let mut mangled = rec.clone();
        mangled.rating = 1.0;
        assert!(!mangled.verify());
        let mut mangled = rec;
        mangled.text.push('!');
        assert!(!mangled.verify());
    }

    #[test]
    fn promote_roundtrips() {
        let r = Request::promote(3, vec!["127.0.0.1:7001".into(), "127.0.0.1:7002".into()]);
        let back = decode_request(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back.op, Op::Promote);
        assert_eq!(back.epoch, Some(3));
        assert_eq!(back.peers.as_deref().map(|p| p.len()), Some(2));
    }

    #[test]
    fn stale_epoch_carries_the_current_term() {
        let resp = Response::stale_epoch(Some(4), 2, 5);
        let back: Response = serde_json::from_str(&encode_response(&resp)).unwrap();
        assert!(!back.ok);
        assert_eq!(back.kind, Some(ErrorKind::StaleEpoch));
        assert_eq!(back.epoch, Some(5));
    }

    #[test]
    fn not_leader_carries_the_redirect_hint() {
        let resp = Response::not_leader(Some(8), Some("127.0.0.1:9000".into()));
        let back: Response = serde_json::from_str(&encode_response(&resp)).unwrap();
        assert!(!back.ok);
        assert_eq!(back.kind, Some(ErrorKind::NotLeader));
        assert_eq!(back.leader.as_deref(), Some("127.0.0.1:9000"));

        let hintless = Response::not_leader(None, None);
        assert!(hintless.leader.is_none());
        assert!(hintless.error.unwrap().contains("no leader is known"));
    }

    #[test]
    fn replicate_ack_payload_roundtrips() {
        let mut resp = Response::ok(Some(2));
        resp.replicated = Some(640);
        resp.epoch = Some(3);
        let back: Response = serde_json::from_str(&encode_response(&resp)).unwrap();
        assert_eq!(back.replicated, Some(640));
        assert_eq!(back.epoch, Some(3));
        let plain: Response = serde_json::from_str(&encode_response(&Response::ok(None))).unwrap();
        assert_eq!(plain.replicated, None);
    }

    #[test]
    fn the_retired_pull_op_and_its_limit_field_are_refused() {
        // Followers converge by the leader's push alone; the pull op and
        // its page size are gone from the protocol, not silently ignored.
        // So is cache eviction: a tower cache lives exactly as long as its
        // generation, and every review reaches the towers through a new one.
        for (line, op) in [
            (r#"{"op":"FetchWal","epoch":1,"from":0}"#, "FetchWal"),
            (r#"{"op":"Invalidate","user":0}"#, "Invalidate"),
        ] {
            let err = decode_request(line).unwrap_err();
            assert!(err.contains(op), "unhelpful error: {err}");
        }
        let err = decode_request(r#"{"op":"Replicate","epoch":1,"from":0,"limit":16}"#).unwrap_err();
        assert!(err.contains("unknown field `limit`"), "unhelpful error: {err}");
    }

    #[test]
    fn wrong_shard_carries_owner_and_map_version() {
        let resp = Response::wrong_shard(Some(9), 2, 7);
        let back: Response = serde_json::from_str(&encode_response(&resp)).unwrap();
        assert!(!back.ok);
        assert_eq!(back.kind, Some(ErrorKind::WrongShard));
        assert_eq!(back.shard, Some(2));
        assert_eq!(back.map_version, Some(7));
        assert_eq!(back.id, Some(9));
    }

    #[test]
    fn degraded_flags_roundtrip() {
        let mut resp = Response::ok(Some(1));
        resp.degraded = Some(true);
        resp.missing_shards = Some(vec![1, 2]);
        let back: Response = serde_json::from_str(&encode_response(&resp)).unwrap();
        assert_eq!(back.degraded, Some(true));
        assert_eq!(back.missing_shards.as_deref(), Some(&[1u32, 2][..]));
        // Absent on ordinary responses.
        let plain: Response = serde_json::from_str(&encode_response(&Response::ok(None))).unwrap();
        assert_eq!(plain.degraded, None);
        assert_eq!(plain.missing_shards, None);
    }

    #[test]
    fn shard_spec_validates_and_roundtrips() {
        let spec = ShardSpec::with_shards(3);
        assert!(spec.validate().is_ok());
        assert_eq!(ShardSpec::single().shards, 1);
        assert!(ShardSpec { shards: 0, ..spec }.validate().is_err());
        assert!(ShardSpec { vnodes: 0, ..spec }.validate().is_err());
        let line = serde_json::to_string(&spec).unwrap();
        let back: ShardSpec = serde_json::from_str(&line).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn health_payload_roundtrips() {
        let mut resp = Response::ok(Some(3));
        resp.health = Some(HealthDto {
            live: true,
            ready: false,
            draining: true,
            breaker_open: false,
            generation: 4,
        });
        let back: Response = serde_json::from_str(&encode_response(&resp)).unwrap();
        let h = back.health.unwrap();
        assert!(h.live && !h.ready && h.draining && !h.breaker_open);
        assert_eq!(h.generation, 4);
    }
}
