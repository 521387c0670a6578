//! cfx-serve: a fault-tolerant amortized counterfactual serving daemon.
//!
//! The amortized promise of the paper's framework — train once, answer
//! `explain` queries in milliseconds — only pays off if something can
//! actually hold the model resident and answer queries. This crate is
//! that something: a zero-dependency HTTP/1.1 daemon built on
//! `std::net`, with the robustness contract stated up front:
//!
//! * **Bounded everything.** Fixed-capacity request queues sit between
//!   connection threads and the explain worker pool; when a shard
//!   fills, requests are shed with `429` + a backlog-scaled
//!   `Retry-After` instead of buffered. Memory use is independent of
//!   offered load.
//! * **Horizontal scaling within a node.** `CFX_SERVE_WORKERS=N`
//!   (or `cfx serve --workers N`) runs N explain workers; jobs are
//!   routed worker-sticky by a deterministic content hash
//!   ([`shard`]), so scaling never changes response bytes. A sharded
//!   LRU response cache ([`cache`]) answers repeated rows without
//!   touching a queue.
//! * **Deadlines end-to-end.** Every request carries a deadline
//!   (client-supplied or defaulted) that is enforced in the queue, in
//!   the micro-batcher, and inside `explain_batch` itself via
//!   [`cfx_core::FeasibleCfModel::explain_batch_deadline`]; misses are
//!   typed [`cfx_tensor::CfxError::Timeout`] → `504`/`408`.
//! * **Graceful drain.** SIGTERM stops admissions, completes every
//!   accepted request, writes a final Prometheus snapshot, and exits 0.
//! * **Deterministic responses.** Each worker fuses the queued backlog
//!   into one explain call (continuous batching), yet every rung of the
//!   explain ladder is row-wise, so a response's bytes depend only on
//!   its own rows and the model version — under load, under drain,
//!   under chaos, and whatever its batch-mates.
//! * **Deterministic chaos.** `CFX_SERVE_FAULT=slow-client|malformed|`
//!   `kill@<n>` arms reproducible network faults for drills.
//!
//! Routes: `POST /explain`, `GET /healthz`, `GET /metrics`.

#![forbid(clippy::unwrap_used)]
#![warn(missing_docs)]

pub mod batcher;
pub mod cache;
pub mod drift;
pub mod fault;
pub mod http;
pub mod queue;
pub mod registry;
pub mod server;
pub mod shard;

pub use batcher::{
    BatcherConfig, ExplainJob, JobReply, WorkerCtx, WorkerTimings,
};
pub use cache::{CacheKey, CacheStats, ResponseCache};
pub use drift::{DriftMonitor, DriftScores, ReferenceStats};
pub use fault::{FaultClock, ServeFault};
pub use http::{Limits, ParseError};
pub use queue::{BoundedQueue, PushError};
pub use registry::{ModelRegistry, Servable};
pub use server::{
    install_signal_handlers, report_serve, spawn, DrainReport, LatencySummary,
    ServeConfig, ServerHandle,
};
pub use shard::{fnv1a64, row_fingerprint, shard};
