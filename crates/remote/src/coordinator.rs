//! [`CoordinatorEngine`]: the request engine of a distributed deployment.
//!
//! A coordinator is the shard router with its shards in other processes:
//! a `bbs_server::Router` over [`RemoteShardHandle`]s.  It speaks the
//! same wire protocol as every other server (the same listeners, framing
//! and drain logic serve it) and everything it does per request is the
//! router's — inserts and deletes partitioned by TID residue and
//! forwarded **reusing the client's request ID** so exactly-once composes
//! end-to-end, a count as one `COUNT_MANY` frame per shard that pins
//! nothing, mining over the pinned rows
//! pulled from every shard — so the answers are bit-for-bit what the
//! local router (and therefore one unsharded engine) returns.
//!
//! What is particular to a coordinator lives here and in
//! [`crate::handle`]: shards are found through a [`Topology`] and refused
//! at connect unless they serve the width and hasher it pins; a scatter
//! that cannot reach a shard — after retries, and after failover to the
//! shard's follower if the topology names one — answers with a typed
//! `SHARD_UNAVAILABLE` response naming the shard, never a silently-wrong
//! partial total; and draining a coordinator stops *it* from admitting
//! requests while the shard servers keep running (other coordinators or
//! operators may still be using them).
//!
//! Widened compactions and folds fanned out through a coordinator change
//! a shard's width while the topology's stays what it was at connect.
//! Counting and mining remain correct — per-shard estimates are served by
//! each shard's own live files and mining re-indexes raw rows — but a
//! *new* coordinator connecting against the stale topology width is
//! refused until the topology file is updated.

use crate::handle::{RemoteOptions, RemoteShardHandle};
use crate::topology::Topology;
use bbs_core::scatter;
use bbs_server::{Request, RequestHandler, Response, Router, ServerMetrics, ShardFaults};
use std::io;
use std::ops::Deref;
use std::sync::Arc;

/// Coordinator construction knobs.
#[derive(Debug, Clone, Default)]
pub struct CoordinatorOptions {
    /// Per-shard connection settings (timeout, retry policy).
    pub remote: RemoteOptions,
    /// Worker threads for distributed mining (0 = all cores).
    pub mine_threads: usize,
}

/// The scatter-gather engine over a topology of remote shards.
pub struct CoordinatorEngine {
    router: Router<RemoteShardHandle>,
    topology: Topology,
}

impl std::fmt::Debug for CoordinatorEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoordinatorEngine")
            .field("shards", &self.topology.shards)
            .field("width", &self.topology.width)
            .field("hasher", &self.topology.hasher)
            .finish_non_exhaustive()
    }
}

impl Deref for CoordinatorEngine {
    type Target = Router<RemoteShardHandle>;

    fn deref(&self) -> &Self::Target {
        &self.router
    }
}

impl CoordinatorEngine {
    /// Connects to every shard in the topology, pins a snapshot on each,
    /// and validates the pinned width/hasher identity against the
    /// topology — a shard whose deployment disagrees is refused with an
    /// error naming both values.
    pub fn connect(topology: Topology, opts: CoordinatorOptions) -> io::Result<Arc<Self>> {
        let faults: Vec<Arc<ShardFaults>> = topology
            .nodes
            .iter()
            .map(|_| Arc::new(ShardFaults::default()))
            .collect();
        let handles = scatter(&topology.nodes, |i, node| {
            let mut handle = RemoteShardHandle::connect(
                node.id,
                &node.primary,
                node.follower.as_deref(),
                opts.remote.clone(),
                Arc::clone(&faults[i]),
            )?;
            let pin = handle.pin().expect("connect always pins");
            let refuse = |what: &str,
                          serves: &dyn std::fmt::Display,
                          pins: &dyn std::fmt::Display| {
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "shard {} at {}: serves {what} {serves} but the topology pins {what} {pins}",
                        node.id, node.primary
                    ),
                ))
            };
            if pin.width as usize != topology.width {
                return refuse("width", &pin.width, &topology.width);
            }
            if pin.hasher != topology.hasher {
                return refuse("hasher", &pin.hasher, &topology.hasher);
            }
            handle.topology_version = topology.version;
            Ok(handle)
        })?;
        Ok(Arc::new(CoordinatorEngine {
            router: Router::new(handles, faults, opts.mine_threads),
            topology,
        }))
    }

    /// The topology this coordinator serves.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The per-shard handles, in shard order.
    pub fn handles(&self) -> &[RemoteShardHandle] {
        self.router.nodes()
    }
}

impl RequestHandler for CoordinatorEngine {
    fn dispatch(&self, req: &Request) -> Response {
        self.router.dispatch(req)
    }

    fn is_draining(&self) -> bool {
        self.router.is_draining()
    }

    fn begin_drain(&self) {
        self.router.begin_drain()
    }

    fn join(&self) {
        self.router.join()
    }

    fn metrics(&self) -> &Arc<ServerMetrics> {
        self.router.metrics()
    }
}
