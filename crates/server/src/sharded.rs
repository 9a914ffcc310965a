//! The local shard router: [`ShardedEngine`], a [`Router`] whose nodes
//! are N complete [`Engine`]s over a `bbs_shard` directory.
//!
//! Every shard owns its full stack — pager, commit record, dedup window,
//! replication log, **and its own committer thread** — so the router's
//! write path is N independent group-commit pipelines, and that
//! concurrency is the ingest win.  Everything the router does with those
//! shards is [`crate::router`]; this module is what is particular to
//! shards that live in this process: a pin is the engine's published
//! [`Snapshot`] and is mined in place (its own cursors and heap scan —
//! nothing is loaded), a write leg is a call, a drain reaches the engines,
//! and the directory's `MANIFEST` follows the shards' width.

use crate::engine::{wire_txn, Engine, InsertOutcome, ServerConfig};
use crate::metrics::ServerMetrics;
use crate::net::RequestHandler;
use crate::proto::{maintain_action, Reply, Request, Response};
use crate::router::{json_column, Gauge, MineView, Node, Router, ShardFaults};
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_shard::{scatter, shard_base, Manifest};
use bbs_storage::snapshot::Snapshot;
use bbs_storage::DiskCounter;
use bbs_tdb::{ItemId, Itemset, Transaction};
use std::collections::HashMap;
use std::io;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A local shard's pin: the snapshot its engine had published.  It is
/// its own mining view — the snapshot's cursors and its heap scan.
#[derive(Clone)]
pub struct LocalPin<'a> {
    snap: Arc<Snapshot>,
    engine: &'a Engine,
    faults: &'a ShardFaults,
}

impl LocalPin<'_> {
    /// Counts a failed read through this pin as a scatter error.
    fn noting<T>(&self, result: io::Result<T>) -> io::Result<T> {
        result.inspect_err(|_| {
            self.faults.scatter_errors.fetch_add(1, Ordering::Relaxed);
        })
    }
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
        self.noting(self.snap.counter())
    }

    fn tally(&self, cands: &[Itemset]) -> io::Result<Vec<u64>> {
        self.noting(self.snap.tally(cands))
    }

    fn retire(&self, counter: &DiskCounter) {
        self.engine.metrics().mine_cursor.record(counter);
    }
}

impl Node for Arc<Engine> {
    type Pin<'a> = LocalPin<'a>;
    type View<'a> = LocalPin<'a>;

    fn pin<'a>(&'a self, faults: &'a ShardFaults) -> io::Result<LocalPin<'a>> {
        Ok(LocalPin {
            snap: self.snapshot(),
            engine: self,
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
        let (supports, snap) = self.count_many(itemsets).inspect_err(|_| {
            faults.scatter_errors.fetch_add(1, Ordering::Relaxed);
        })?;
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

    fn leg(&self, req: &Request) -> Response {
        self.handle(req)
    }

    fn gauge(&self) -> Gauge {
        let snap = self.snapshot();
        Gauge {
            rows: snap.rows(),
            epoch: snap.epoch(),
            width: self.width(),
        }
    }

    fn stats_columns(nodes: &[Self]) -> Vec<String> {
        let snaps: Vec<Arc<Snapshot>> = nodes.iter().map(|e| e.snapshot()).collect();
        let gauge = |pick: fn(&ServerMetrics) -> &AtomicU64| {
            nodes
                .iter()
                .map(move |e| pick(e.metrics()).load(Ordering::Relaxed))
        };
        let deleted = || snaps.iter().map(|s| s.deleted_rows());
        let live: u64 = snaps.iter().map(|s| s.live_rows()).sum();
        let fpr = gauge(|m| &m.last_measured_fpr_bits).map(|b| format!("{:.6}", f64::from_bits(b)));
        vec![
            json_column("shard_lag", gauge(|m| &m.replication_lag_rows)),
            json_column("shard_queue_depth", gauge(|m| &m.queue_depth)),
            json_column("shard_deleted_rows", deleted()),
            json_column("shard_fpr", fpr),
            json_column(
                "shard_mine_cursor",
                nodes.iter().map(|e| e.metrics().mine_cursor.to_json()),
            ),
            format!("\"deleted_rows\":{}", deleted().sum::<u64>()),
            format!("\"live_rows\":{live}"),
        ]
    }

    fn begin_drain(&self) {
        Engine::begin_drain(self)
    }

    fn join(&self) {
        Engine::join(self)
    }
}

/// One logical server over the N TID-range shards of a shard directory,
/// each a complete [`Engine`] with its own committer pipeline.
pub struct ShardedEngine {
    router: Router<Arc<Engine>>,
    dir: PathBuf,
}

impl Deref for ShardedEngine {
    type Target = Router<Arc<Engine>>;

    fn deref(&self) -> &Self::Target {
        &self.router
    }
}

impl ShardedEngine {
    /// Opens (crash-recovering, in parallel) every shard of the sharded
    /// deployment at `dir` with the default MD5 Bloom hasher.
    pub fn open(dir: &Path, cfg: ServerConfig) -> io::Result<Arc<ShardedEngine>> {
        let hasher: Arc<dyn ItemHasher> = Arc::new(Md5BloomHasher::new(4));
        ShardedEngine::open_with(dir, cfg, hasher)
    }

    /// [`ShardedEngine::open`] with an explicit hash family.
    pub fn open_with(
        dir: &Path,
        cfg: ServerConfig,
        hasher: Arc<dyn ItemHasher>,
    ) -> io::Result<Arc<ShardedEngine>> {
        if cfg.follow.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a sharded deployment cannot follow a primary; replicate shards individually",
            ));
        }
        let manifest = Manifest::read(dir)?;
        let cfg = ServerConfig {
            width: manifest.width,
            ..cfg
        };
        let indices: Vec<usize> = (0..manifest.shards).collect();
        let engines = scatter(&indices, |_, &i| {
            Engine::open_with(&shard_base(dir, i), cfg.clone(), Arc::clone(&hasher))
        })?;
        let faults = (0..manifest.shards)
            .map(|_| Arc::new(ShardFaults::default()))
            .collect();
        Ok(Arc::new(ShardedEngine {
            router: Router::new(engines, faults, cfg.mine_threads, Vec::new()),
            dir: dir.to_path_buf(),
        }))
    }

    /// The per-shard engines, in shard order.
    pub fn engines(&self) -> &[Arc<Engine>] {
        self.router.nodes()
    }

    /// [`Router::insert`] for in-process callers that hold transactions
    /// and want the engine-level outcome rather than a wire response.
    pub fn insert_with_id(&self, req_id: u64, txns: Vec<Transaction>) -> InsertOutcome {
        let txns: Vec<(u64, Vec<u32>)> = txns.iter().map(wire_txn).collect();
        match self.router.insert(req_id, &txns) {
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

    /// Re-pins the on-disk `MANIFEST` width to the shards' live slice
    /// width after a fan-out compaction or fold re-sized the files, so
    /// offline tools (`bbs ingest`/`mine-deployment`) and fresh opens
    /// agree with what is actually on disk.  A no-op while the shards
    /// disagree (a fan-out that failed partway leaves the old pin).
    fn sync_manifest_width(&self) -> io::Result<()> {
        let engines = self.engines();
        let width = engines[0].width();
        if engines.iter().any(|e| e.width() != width) {
            return Ok(());
        }
        let mut manifest = Manifest::read(&self.dir)?;
        if manifest.width != width {
            manifest.width = width;
            manifest.write(&self.dir)?;
        }
        Ok(())
    }
}

impl RequestHandler for ShardedEngine {
    fn dispatch(&self, req: &Request) -> Response {
        let resp = self.router.dispatch(req);
        if let Response::Ok(Reply::Maintain { action_taken, .. }) = &resp {
            if *action_taken != maintain_action::PROBE_FPR {
                if let Err(e) = self.sync_manifest_width() {
                    return Response::Err(format!(
                        "maintenance applied but manifest update failed: {e}"
                    ));
                }
            }
        }
        resp
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
