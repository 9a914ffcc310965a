//! `bbs-server` — a concurrent query/ingest daemon over a BBS deployment.
//!
//! The paper's deployment scenario (§5) is an index that keeps serving
//! `CountItemSet` and mining queries while the transaction stream grows.
//! This crate is that scenario as a running system:
//!
//! * [`engine`] — the request engine: snapshot-isolated reads over
//!   `bbs_storage::snapshot`, and a **group-commit** write path where a
//!   bounded MPSC queue feeds one committer thread that coalesces every
//!   waiting producer into a single append + fsync + commit record.
//! * [`proto`] — the length-prefixed binary wire protocol (one `u32 LE`
//!   length, one opcode byte, little-endian bodies) with typed
//!   `Ok / Overloaded / Err / DiskFull / BadFrame / NotPrimary /
//!   ShardUnavailable` responses; every frame's layout comes from one
//!   table (`frames.rs`).
//! * [`net`] — TCP and Unix-socket listeners with per-connection handler
//!   threads, interruptible frame reads, request deadlines, and graceful
//!   drain (in-flight requests answered, queued ingest committed).
//! * [`metrics`] — lock-free per-endpoint counters and log2 latency
//!   histograms, and the stats registry: every key of the JSON document
//!   the `stats` endpoint serves, declared once with the rule that merges
//!   it across a router's nodes.
//! * [`router`] — the one request dispatcher and the scatter-gather
//!   [`Router`] over any N ≥ 1 [`Node`]s (inserts route by TID, reads
//!   scatter-gather and sum), and [`sharded`] — the engine as a node, and
//!   [`ShardedEngine`], the router `bbs serve --base` serves over a
//!   deployment's partitions (one for a plain base), each engine with its
//!   own committer.
//! * [`client`] — the matching client library ([`Client`]), one typed
//!   method per endpoint, plus [`RetryClient`]: reconnect + exponential
//!   backoff with jitter, and exactly-once inserts via stable request
//!   IDs reused across retries.
//!
//! A query never observes a half-appended batch: reads run against
//! epoch-stamped snapshots that are published only after their commit
//! record is durable (see `bbs_storage::snapshot` for the protocol).
//! Every insert may carry a request ID; the engine's durable dedup
//! window turns retries of already-committed batches into their original
//! receipts, so a reply lost to a crash, timeout, or dropped connection
//! never becomes a duplicate append.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod engine;
mod frames;
pub mod metrics;
pub mod net;
pub mod proto;
pub mod router;
pub mod sharded;

pub use client::{
    Client, ClientError, ClientResult, CountManyReply, CountReply, CountsAtReply, DeleteReply,
    InsertReply, MaintainReply, MineReply, PromoteReply, ReplicateReply, RetryClient,
    RetryPolicy, RetryStats, RowsReply, ServerAddr,
};
pub use engine::{resolve_threads, Engine, InsertOutcome, Role, ServerConfig};
pub use metrics::{
    json_string, Endpoint, Histogram, MineCursorMetrics, NodeStats, ScatterMetrics, ServerMetrics,
    ShardFaults,
};
pub use net::{serve, Bind, RequestHandler, ServerHandle};
pub use proto::{maintain_action, LogEntry, Reply, Request, Response};
pub use router::{merge_receipts, Gauge, Node, Router};
pub use sharded::ShardedEngine;
