//! The local node: an [`Engine`] as one partition of a [`Router`], and
//! [`ShardedEngine`], the router `bbs serve --base` serves over a
//! deployment's partitions, one for a plain base.  Every partition owns
//! its full stack — pager, commit record, dedup window, replication log
//! and committer thread — so the write path is N independent group-commit
//! pipelines.  A pin is the engine's published [`Snapshot`]
//! ([`LocalPin`]), mined in place; a write leg is the engine's typed call.

use crate::engine::{wire_txn, Engine, InsertOutcome, ServerConfig};
use crate::metrics::{MineCursorMetrics, NodeStats, ServerMetrics, ShardFaults};
use crate::net::RequestHandler;
use crate::proto::{Reply, Request, Response};
use crate::router::{Gauge, Node, Router};
use bbs_core::{scatter, MineView};
use bbs_storage::snapshot::Snapshot;
use bbs_storage::{shard_base, DiskCounter, Manifest};
use bbs_tdb::{ItemId, Itemset, Transaction};
use std::collections::HashMap;
use std::io;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An engine's published snapshot pinned for one request, and its mining
/// view; failed reads are tallied into the shard's fault counters.
#[derive(Clone)]
pub struct LocalPin<'a> {
    snap: Arc<Snapshot>,
    cursor: &'a MineCursorMetrics,
    faults: &'a ShardFaults,
}

impl MineView for LocalPin<'_> {
    type Counter<'a>
        = DiskCounter
    where
        Self: 'a;

    fn live_rows(&self) -> u64 {
        self.snap.live_rows()
    }

    fn item_counts(&self) -> &HashMap<ItemId, u64> {
        self.snap.item_counts()
    }

    fn counter(&self) -> io::Result<DiskCounter> {
        self.faults.noting(self.snap.counter())
    }

    fn tally(&self, cands: &[Itemset]) -> io::Result<Vec<u64>> {
        self.faults.noting(self.snap.tally(cands))
    }

    /// What the reader did goes into the engine's `mine_cursor` metrics.
    fn retire(&self, counter: &DiskCounter) {
        self.cursor.record(counter);
    }
}

/// An engine as a node: the router's `Arc<Engine>`, or the `&Engine` a
/// lone engine dispatches over.
impl<E: Deref<Target = Engine> + Send + Sync> Node for E {
    type Pin<'a>
        = LocalPin<'a>
    where
        Self: 'a;
    type View<'a>
        = LocalPin<'a>
    where
        Self: 'a;

    fn pin<'a>(&'a self, faults: &'a ShardFaults) -> io::Result<LocalPin<'a>> {
        Ok(LocalPin {
            snap: self.snapshot(),
            cursor: &self.mine_cursor,
            faults,
        })
    }

    fn epoch(pin: &LocalPin<'_>) -> u64 {
        pin.snap.epoch()
    }

    fn rows(pin: &LocalPin<'_>) -> u64 {
        pin.snap.rows()
    }

    /// [`Engine::count_many`]; a failed read counts as a scatter error.
    fn count_latest(
        &self,
        faults: &ShardFaults,
        itemsets: &[Vec<u32>],
    ) -> io::Result<(Vec<u64>, u64, u64)> {
        let (supports, snap) = faults.noting(self.count_many(itemsets))?;
        Ok((supports, snap.epoch(), snap.rows()))
    }

    fn mine_view<'a>(pin: &LocalPin<'a>) -> io::Result<LocalPin<'a>>
    where
        Self: 'a,
    {
        Ok(pin.clone())
    }

    fn row(pin: &LocalPin<'_>, row: u64) -> io::Result<Option<(u64, Vec<u32>)>> {
        Ok(pin.snap.probe(row)?.as_ref().map(wire_txn))
    }

    /// The engine's own typed write call (see [`Engine::insert_with_id`]).
    fn leg(&self, req: &Request) -> Response {
        match req {
            Request::Insert { req_id, txns } => self.insert_with_id(*req_id, txns),
            Request::Delete { req_id, tids } => self.delete_tids(*req_id, tids),
            Request::Maintain { action, arg } => self.serve_maintain(*action, *arg),
            _ => Response::Err("not a write leg".into()),
        }
    }

    fn scoped(&self, req: &Request) -> Response {
        match req {
            Request::Replicate {
                from_row,
                from_dseq,
                max_entries,
            } => self.serve_replicate(*from_row, *from_dseq, *max_entries),
            Request::Promote => {
                let (epoch, rows) = self.promote();
                Response::Ok(Reply::Promoted { epoch, rows })
            }
            Request::CountManyAt { epoch, itemsets } => self.counts_at(*epoch, itemsets),
            Request::Rows { epoch, from, limit } => self.rows_at(*epoch, *from, *limit),
            _ => Response::Err("not a node-scoped request".into()),
        }
    }

    fn own_metrics(&self) -> Option<&Arc<ServerMetrics>> {
        Some(Engine::metrics(self))
    }

    fn gauge(&self) -> Gauge {
        let snap = self.snapshot();
        Gauge {
            rows: snap.rows(),
            epoch: snap.epoch(),
            width: self.width(),
        }
    }

    fn stats(&self) -> NodeStats<'_> {
        NodeStats::local(self)
    }

    fn begin_drain(&self) {
        RequestHandler::begin_drain(&**self)
    }

    fn join(&self) {
        RequestHandler::join(&**self)
    }
}

/// One logical server over the partitions of a deployment, each a
/// complete [`Engine`] with its own committer pipeline.
pub type ShardedEngine = Router<Arc<Engine>>;

impl ShardedEngine {
    /// The served open: every partition at `path`, recovered in parallel —
    /// a plain base (created if missing) or each shard of a directory at
    /// its `MANIFEST` width.  Only one partition may follow a primary.
    pub fn open(path: &Path, mut cfg: ServerConfig) -> io::Result<Arc<ShardedEngine>> {
        let manifest = Manifest::exists(path)
            .then(|| Manifest::read(path))
            .transpose()?;
        let bases: Vec<PathBuf> = match &manifest {
            Some(m) => {
                cfg.width = m.width;
                (0..m.shards).map(|i| shard_base(path, i)).collect()
            }
            None => vec![path.to_path_buf()],
        };
        if cfg.follow.is_some() && bases.len() > 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a sharded deployment cannot follow a primary; replicate shards individually",
            ));
        }
        let engines = scatter(&bases, |_, base| Engine::open(base, cfg.clone()))?;
        let faults = engines.iter().map(|_| Arc::default()).collect();
        let mut router = Router::new(engines, faults, cfg.mine_threads);
        router.front.manifest = manifest.map(|_| path.to_path_buf());
        Ok(Arc::new(router))
    }

    /// The per-partition engines, in shard order.
    pub fn engines(&self) -> &[Arc<Engine>] {
        self.nodes()
    }

    /// [`Router::insert`] for in-process callers that hold transactions
    /// and want the engine-level outcome rather than a wire response.
    pub fn insert_with_id(&self, req_id: u64, txns: Vec<Transaction>) -> InsertOutcome {
        let txns: Vec<_> = txns.iter().map(wire_txn).collect();
        match self.insert(req_id, &txns) {
            Response::Ok(Reply::Insert {
                first_row,
                appended,
                epoch,
                deduped,
            }) => InsertOutcome::Committed {
                first_row,
                appended,
                epoch,
                deduped,
            },
            Response::Overloaded => InsertOutcome::Overloaded,
            Response::DiskFull => InsertOutcome::DiskFull,
            Response::NotPrimary(primary) => InsertOutcome::NotPrimary(primary),
            Response::Err(msg) => InsertOutcome::Failed(msg),
            other => InsertOutcome::Failed(format!("unexpected insert response {other:?}")),
        }
    }
}
