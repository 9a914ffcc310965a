//! Distributed BBS deployments.
//!
//! A local sharded deployment routes transactions across N shard
//! directories inside one process.  This crate stretches the same shape
//! across processes and machines:
//!
//! * [`topology`] — the versioned TOPOLOGY manifest naming each shard's
//!   primary (and optional follower) address, plus the pinned shard
//!   count, slice width, and hasher identity every member must agree on.
//! * [`handle`] — [`RemoteShardHandle`], a router `Node` whose shard
//!   lives behind a socket: exact counts at the latest snapshot that pin
//!   nothing, snapshot pins, batched counts against a pinned epoch,
//!   chunked row pulls, and per-shard replica failover when the primary
//!   goes silent.
//! * [`coordinator`] — [`CoordinatorEngine`], `bbs_server`'s
//!   scatter-gather `Router` over those handles: inserts route by TID
//!   residue reusing the client's request ID (exactly-once composes
//!   end-to-end), counts and mining scatter through the remote handles,
//!   and a shard that stays unreachable after retries and failover
//!   answers as a typed `SHARD_UNAVAILABLE` — never a silently-wrong
//!   total.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod handle;
pub mod topology;

pub use coordinator::{CoordinatorEngine, CoordinatorOptions};
pub use handle::{RemoteOptions, RemoteShardHandle};
pub use topology::{NodeSpec, Topology, TOPOLOGY_VERSION};
