//! The serving plane: FROTE-as-a-service.
//!
//! Every crate below this one is batch-first and allocation-free per row,
//! but nothing *served* it. This crate adds the deployment boundary the
//! MLSys framing calls the hard part of ML systems:
//!
//! - [`http`] — a minimal, vendored HTTP/1.1 line protocol on std-only
//!   TCP (the offline-deps rule bans real HTTP stacks);
//! - [`registry`] — a model registry holding fitted models plus their
//!   schema and boundary guard, with **atomic snapshot swaps**:
//!   publishing a retrained model swaps one `Arc` under a mutex, and
//!   in-flight readers keep the generation they resolved;
//! - [`boundary`] — request validation with the PR 6 rule engine: rows are
//!   parsed against the model's schema and swept through a compiled
//!   not-null/range guard clause (`CompiledClause`, the `try_*` path), so
//!   malformed input surfaces a structured error before any scan — never a
//!   worker panic;
//! - [`batch`] — request micro-batching: concurrent score requests are
//!   aggregated into one [`frote_ml::Classifier::predict_rows`] call over
//!   the `frote-par` pool, all rows of a batch scored against exactly one
//!   published snapshot;
//! - [`server`] — the accept loop, routing, and graceful shutdown;
//! - [`client`] — small blocking client helpers shared by `loadgen`,
//!   `perfbench`, and the integration tests;
//! - [`workload`] — named deterministic dataset+trainer combos so the
//!   server and the load generator can independently construct
//!   bit-identical models and assert response digests.
//!
//! # Observability
//!
//! The plane inherits `frote-obs` wholesale: request/row/reject counters
//! (thread-invariant — `tests/obs_invariance.rs` pins them), batch counters and
//! queue-depth gauges (thread-variant: micro-batch composition depends on
//! arrival timing), and latency histograms. `GET /metrics` returns the
//! JSON snapshot; the server bin's `--metrics-out` writes one at shutdown.

#![warn(missing_docs)]

pub mod batch;
pub mod boundary;
pub mod client;
pub mod http;
pub mod registry;
pub mod server;
pub mod workload;

use std::fmt;

pub use batch::{Batcher, ScoreResponse};
pub use boundary::{parse_rows, render_rows, RowGuard};
pub use client::{Backoff, Client};
pub use registry::{FroteRefitter, ModelEntry, ModelRegistry, Refitter, Snapshot};
pub use server::{ServeConfig, Server};
pub use workload::Workload;

/// Errors surfaced by the serving plane. Every variant renders as a
/// single-line, machine-greppable message — the HTTP layer sends it as the
/// body of a `400`/`404`/`503` instead of panicking the worker.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The request line / headers / framing were not understood.
    BadRequest {
        /// What was malformed.
        detail: String,
    },
    /// The named model is not registered.
    UnknownModel {
        /// The requested model name.
        name: String,
    },
    /// One request row failed schema-level parsing (wrong arity, unknown
    /// category, unparsable numeric cell).
    Row {
        /// 1-based row number within the request body.
        line: usize,
        /// What was malformed.
        detail: String,
    },
    /// Rows parsed but were rejected by the compiled boundary guard
    /// (NaN cells, out-of-range values).
    RowsRejected {
        /// 0-based indices of the offending rows within the request.
        rows: Vec<usize>,
        /// Display form of the guard constraint that rejected them.
        guard: String,
    },
    /// Rule validation/compilation failed (the `try_*` ingestion path).
    Rule(frote_rules::RuleError),
    /// The server is shutting down and no longer accepts work.
    Unavailable,
    /// Admission control shed this request: the batcher queue (or the
    /// connection backlog) was at capacity. Maps to `503` with a
    /// `Retry-After` header — the client backoff contract.
    Overloaded,
    /// A per-connection read/write deadline expired (slow-client
    /// protection). Maps to `408`.
    Timeout,
    /// The request's header section exceeded the framing cap before a
    /// blank line. Maps to `431`.
    HeadersTooLarge,
    /// An injected failpoint fired (`FROTE_FAULTS`); chaos testing only.
    /// Maps to `500` — a structured error, never a dead worker.
    Fault {
        /// The failpoint site that fired.
        site: String,
    },
    /// Transport-level failure talking to a peer.
    Io {
        /// The rendered `std::io::Error`.
        detail: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ServeError::UnknownModel { name } => write!(f, "unknown model: {name}"),
            ServeError::Row { line, detail } => write!(f, "row {line}: {detail}"),
            ServeError::RowsRejected { rows, guard } => {
                write!(f, "rows rejected by boundary guard [{guard}]: {rows:?}")
            }
            ServeError::Rule(e) => write!(f, "rule error: {e}"),
            ServeError::Unavailable => write!(f, "server shutting down"),
            ServeError::Overloaded => write!(f, "overloaded: request shed by admission control"),
            ServeError::Timeout => write!(f, "timeout: connection deadline expired"),
            ServeError::HeadersTooLarge => write!(f, "request header section too large"),
            ServeError::Fault { site } => write!(f, "injected fault at {site}"),
            ServeError::Io { detail } => write!(f, "io error: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<frote_rules::RuleError> for ServeError {
    fn from(e: frote_rules::RuleError) -> Self {
        ServeError::Rule(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        // A socket deadline (`set_read_timeout`/`set_write_timeout`)
        // surfaces as `WouldBlock` (unix) or `TimedOut` (windows); either
        // way it is the structured-408 case, not a generic transport error.
        if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) {
            return ServeError::Timeout;
        }
        ServeError::Io { detail: e.to_string() }
    }
}

impl From<frote_faults::InjectedFault> for ServeError {
    fn from(f: frote_faults::InjectedFault) -> Self {
        ServeError::Fault { site: f.site }
    }
}
