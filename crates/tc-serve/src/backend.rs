//! The seam between the serving front end and what it serves.
//!
//! [`crate::server`] owns everything a client can touch — listeners,
//! admission, the worker pool, the ticked socket reader, the HTTP session
//! engine, the Prometheus writer — and knows nothing about where an
//! answer comes from. A [`Backend`] supplies that: the local
//! [`crate::local::LocalTree`] walks one hot-swappable segment, and
//! `tc-router`'s scatter backend fans the same [`QuerySpec`] out to shard
//! daemons and merges what comes back. The front end calls into the
//! backend once per request (per batch entry), never per byte or line.

use crate::metrics::Metrics;
use crate::protocol::QueryResponse;
use tc_util::LoadError;

/// One query, after parameter validation.
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySpec {
    /// Query-by-alpha: every theme community with cohesion > alpha.
    Qba(f64),
    /// Query-by-pattern: every theme community whose pattern covers
    /// the given items.
    Qbp(Vec<u32>),
    /// The combined form: pattern plus alpha threshold.
    Query(Vec<u32>, f64),
}

/// What a backend made of one [`QuerySpec`].
#[derive(Debug)]
pub enum Answer {
    /// The answer, plus the ids of the shards it is missing (empty when
    /// the answer is whole — always, for a local tree). A non-empty list
    /// is surfaced in the `X-TC-Partial-Shards` response header.
    Ok(QueryResponse, Vec<u32>),
    /// The query failed: the HTTP status to answer with, and why.
    Err(u16, String),
}

/// What the front end serves from. Implemented exactly twice: by the
/// local tree walk here and by `tc-router`'s scatter/merge.
pub trait Backend: Send + Sync + 'static {
    /// The daemon's name: prefixes worker-thread names and log lines.
    const NAME: &'static str;

    /// One consistent view of what is served. A request — and a whole
    /// `POST /query` batch — answers from exactly one snapshot, so a
    /// reload landing mid-request never mixes old and new in a response.
    type Snapshot;

    /// What a successful [`Backend::reload`] reports to its caller.
    type Reloaded;

    /// The view to answer the next request from.
    fn snapshot(&self) -> Self::Snapshot;

    /// Answers one query against `snapshot`.
    fn answer(&self, snapshot: &Self::Snapshot, spec: &QuerySpec) -> Answer;

    /// The `GET /healthz` body: one `\n`-terminated JSON object.
    fn healthz(&self, snapshot: &Self::Snapshot) -> String;

    /// The `GET /metrics` body: this daemon's metric table, rendered from
    /// the front end's counters plus whatever the backend itself tracks.
    fn render_metrics(&self, snapshot: &Self::Snapshot, front: &Metrics, inflight: u64) -> String;

    /// Re-reads what is served from its configured path and swaps it in.
    /// Validation precedes the swap: on `Err` the previous snapshot keeps
    /// serving untouched.
    fn reload(&self) -> Result<Self::Reloaded, LoadError>;
}
