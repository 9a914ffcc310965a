//! The one request dispatcher, and the scatter-gather [`Router`] over N ≥ 1
//! partitions that owns it.
//!
//! The paper's `CountItemSet` is an AND + popcount over bit slices, so
//! supports add over any TID partition, wherever it lives and however many
//! there are.  A [`Node`] is one partition: `Router<Arc<Engine>>`
//! ([`crate::ShardedEngine`]) is what `bbs serve --base` serves, one node
//! for a plain base, and `Router<RemoteShardHandle>` the coordinator.  A
//! lone [`crate::Engine`] answers through the same dispatcher, over a slice
//! of one node.
//!
//! * **Writes** are partitioned by TID residue ([`bbs_storage::route`]);
//!   each part goes to its node as the request a client would send it,
//!   **reusing the client's request ID**, so every shard deduplicates a
//!   retry on its own.  Maintenance fans out to every node; the answers
//!   fold in [`merge_receipts`].  A lone node answers as it would alone.
//! * **Reads**: a count sums every node's latest snapshot
//!   ([`Node::count_latest`]); `mine` and `probe` read one pinned cut —
//!   `mine` through [`bbs_core::mine_views`], every tier's MINE, `probe`
//!   over the concatenated row space.
//! * **Node-scoped opcodes** (REPLICATE, PROMOTE, COUNT_MANY_AT, ROWS) are
//!   [`Node::scoped`]'s when there is one node, else refused.
//!
//! Where local and remote nodes differ is a [`Node`] method; the router
//! never asks which kind it is.

use crate::engine::{admit_count_many, mine_reply, resolve_threads};
use crate::metrics::{
    micros_since, Histogram, NodeStats, ScatterMetrics, ServerMetrics, ShardFaults,
};
use crate::net::RequestHandler;
use crate::proto::{maintain_action, Reply, Request, Response};
use bbs_core::{mine_views, scatter, MineView, Scheme};
use bbs_storage::{route, Manifest};
use bbs_tdb::{MineResult, SupportThreshold};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A node's committed state as the stats document reports it, read
/// without blocking on the node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    /// Committed rows.
    pub rows: u64,
    /// Commit epoch.
    pub epoch: u64,
    /// Live slice width in bits.
    pub width: usize,
}

/// The answer to a node-scoped request that no single node can take.
const REFUSED: &str = "replication and snapshot-pin endpoints are served by each shard's own \
                       server, not by a router; address the shards individually";

/// One shard of a deployment as the [`Router`] drives it: a local engine
/// or a server across the wire.
pub trait Node: Send + Sync + Sized {
    /// One pinned snapshot of this shard, read back through the associated
    /// functions below.
    type Pin<'a>: Send + Sync
    where
        Self: 'a;

    /// What a pin is mined through.
    type View<'a>: MineView + Send
    where
        Self: 'a;

    /// Pins the shard's latest snapshot.  Errors met while reading through
    /// the pin are tallied into `faults`.
    fn pin<'a>(&'a self, faults: &'a ShardFaults) -> io::Result<Self::Pin<'a>>;

    /// Pins every node so one request reads one cut, in shard order (in
    /// parallel where a pin is a round trip).
    fn pin_all<'a>(
        nodes: &'a [Self],
        faults: &'a [Arc<ShardFaults>],
    ) -> io::Result<Vec<Self::Pin<'a>>> {
        nodes.iter().zip(faults).map(|(n, f)| n.pin(f)).collect()
    }

    /// The epoch a pin was taken at.
    fn epoch(pin: &Self::Pin<'_>) -> u64;

    /// The rows a pin sees, tombstoned ones included.
    fn rows(pin: &Self::Pin<'_>) -> u64;

    /// Exact supports of `itemsets` at the node's latest snapshot, with
    /// that snapshot's epoch and rows: a `COUNT_MANY`, which pins nothing.
    /// A failed read is tallied into `faults`.
    fn count_latest(
        &self,
        faults: &ShardFaults,
        itemsets: &[Vec<u32>],
    ) -> io::Result<(Vec<u64>, u64, u64)>;

    /// The mining view of a pin.
    fn mine_view<'a>(pin: &Self::Pin<'a>) -> io::Result<Self::View<'a>>
    where
        Self: 'a;

    /// One row of a pin as `(tid, items)`, `None` past the end.
    fn row(pin: &Self::Pin<'_>, row: u64) -> io::Result<Option<(u64, Vec<u32>)>>;

    /// Runs one INSERT / DELETE / MAINTAIN leg: `req` is what a client
    /// would send this shard alone, and the answer is what it would get.
    fn leg(&self, req: &Request) -> Response;

    /// Answers REPLICATE, PROMOTE, COUNT_MANY_AT or ROWS as a router's
    /// only node; refused by default (a coordinator's shards serve them).
    fn scoped(&self, _req: &Request) -> Response {
        Response::Err(REFUSED.into())
    }

    /// The message recorded when this shard became unreachable, if any:
    /// a failed read then answers `SHARD_UNAVAILABLE` naming it.
    fn unavailable(&self) -> Option<String> {
        None
    }

    /// The node's own metrics, if it keeps any: a router sums their
    /// write-side counters.
    fn own_metrics(&self) -> Option<&Arc<ServerMetrics>> {
        None
    }

    /// The node's committed state for the stats document.
    fn gauge(&self) -> Gauge;

    /// What this kind of node adds to the stats document.
    fn stats(&self) -> NodeStats<'_>;

    /// Propagates a router drain: a draining node refuses writes.
    fn begin_drain(&self) {}

    /// Waits for the node's background work to exit, if the router owns it.
    fn join(&self) {}
}

/// What a router keeps beside its nodes (see [`Router::new`]), and the
/// partition directory whose `MANIFEST` width follows theirs.  A lone
/// engine keeps one too, and answers through [`Front::dispatch`] over a
/// slice of one node.
#[derive(Default)]
pub(crate) struct Front {
    pub(crate) faults: Vec<Arc<ShardFaults>>,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) scatter: ScatterMetrics,
    pub(crate) draining: Arc<AtomicBool>,
    pub(crate) mine_threads: usize,
    pub(crate) manifest: Option<PathBuf>,
}

impl Front {
    /// Executes one decoded request over `nodes`: the one `match` over
    /// [`Request`] that every server runs.
    pub(crate) fn dispatch<N: Node>(&self, nodes: &[N], req: &Request) -> Response {
        match req {
            Request::CountMany { itemsets } | Request::CountManyAt { itemsets, .. }
                if !admit_count_many(&self.metrics, itemsets) =>
            {
                Response::Overloaded
            }
            Request::Ping => Response::Ok(Reply::Pong),
            Request::CountMany { itemsets } => match self.count_many(nodes, itemsets) {
                Ok((supports, epoch, rows)) => Response::Ok(Reply::CountMany {
                    supports,
                    epoch,
                    rows,
                }),
                Err(e) => self.fail(nodes, "count_many", e),
            },
            Request::Insert { req_id, txns } => self.write(
                nodes,
                req,
                &self.scatter.insert,
                txns,
                |(tid, _)| *tid,
                |txns| Request::Insert {
                    req_id: *req_id,
                    txns,
                },
                |epoch, rows| Reply::Insert {
                    first_row: rows,
                    appended: 0,
                    epoch,
                    deduped: false,
                },
            ),
            Request::Delete { req_id, tids } => self.write(
                nodes,
                req,
                &self.scatter.delete,
                tids,
                |tid| *tid,
                |tids| Request::Delete {
                    req_id: *req_id,
                    tids,
                },
                |epoch, _| Reply::Delete {
                    deleted: 0,
                    epoch,
                    deduped: false,
                },
            ),
            Request::Maintain { .. } => self.maintain(nodes, req),
            Request::Mine {
                scheme,
                threshold,
                threads,
            } => match self.mine(nodes, *scheme, *threshold, usize::from(*threads)) {
                Ok((result, epoch, rows)) => Response::Ok(mine_reply(&result, epoch, rows)),
                Err(e) => self.fail(nodes, "mine", e),
            },
            Request::Probe { row } => match self.probe(nodes, *row) {
                Ok(txn) => Response::Ok(Reply::Probe { txn }),
                Err(e) => self.fail(nodes, "probe", e),
            },
            Request::Stats => Response::Ok(Reply::Stats {
                json: crate::metrics::document(self, nodes),
            }),
            Request::Shutdown => {
                self.begin_drain(nodes);
                Response::Ok(Reply::ShuttingDown)
            }
            Request::Replicate { .. }
            | Request::Promote
            | Request::CountManyAt { .. }
            | Request::Rows { .. } => match nodes {
                [node] => node.scoped(req),
                _ => Response::Err(REFUSED.into()),
            },
        }
    }

    /// A failed read: the typed `SHARD_UNAVAILABLE` naming the first
    /// shard that is marked unreachable, else a plain server error.
    fn fail<N: Node>(&self, nodes: &[N], what: &str, e: io::Error) -> Response {
        for (shard, node) in nodes.iter().enumerate() {
            if let Some(msg) = node.unavailable() {
                return Response::ShardUnavailable(shard as u32, msg);
            }
        }
        Response::Err(format!("{what} failed: {e}"))
    }

    /// Pins every node and returns the pins with the epoch and row count
    /// of the cut: the epoch is the sum of per-shard epochs (monotonic —
    /// any shard commit bumps it), the rows the total across shards.
    fn cut<'a, N: Node>(&'a self, nodes: &'a [N]) -> io::Result<(Vec<N::Pin<'a>>, u64, u64)> {
        let pins = N::pin_all(nodes, &self.faults)?;
        let epoch = pins.iter().map(N::epoch).sum();
        let rows = pins.iter().map(N::rows).sum();
        Ok((pins, epoch, rows))
    }

    /// Exact batched counting: every node's latest snapshot answers the
    /// whole batch ([`Node::count_latest`]) on the calling thread, summed
    /// into the first node's answer, which one node's passes through as
    /// is.  Returns `(supports, epoch, rows)`.
    fn count_many<N: Node>(
        &self,
        nodes: &[N],
        itemsets: &[Vec<u32>],
    ) -> io::Result<(Vec<u64>, u64, u64)> {
        let start = Instant::now();
        let mut counted: Option<(Vec<u64>, u64, u64)> = None;
        for (node, faults) in nodes.iter().zip(&self.faults) {
            let (supports, epoch, rows) = node.count_latest(faults, itemsets)?;
            counted = Some(match counted {
                None => (supports, epoch, rows),
                Some((mut sum, e, r)) => {
                    sum.iter_mut().zip(supports).for_each(|(s, x)| *s += x);
                    (sum, e + epoch, r + rows)
                }
            });
        }
        let hist = if itemsets.len() == 1 {
            &self.scatter.count
        } else {
            &self.scatter.count_many
        };
        hist.record(micros_since(start));
        Ok(counted.unwrap_or_default())
    }

    /// Probes one row of the concatenated row space: rows `0..r0` live on
    /// shard 0, `r0..r0+r1` on shard 1, and so on, against one cut.
    fn probe<N: Node>(&self, nodes: &[N], row: u64) -> io::Result<Option<(u64, Vec<u32>)>> {
        let start = Instant::now();
        let (pins, ..) = self.cut(nodes)?;
        let mut local = row;
        let mut found = Ok(None);
        for pin in &pins {
            if local < N::rows(pin) {
                found = N::row(pin, local);
                break;
            }
            local -= N::rows(pin);
        }
        self.scatter.probe.record(micros_since(start));
        found
    }

    /// Runs one write: a lone node answers `req` as it would alone; else
    /// the legs of `jobs` run concurrently and their receipts merge.  A leg
    /// that failed at its shard counts as a scatter error (one that never
    /// arrived is tallied by the node itself).
    fn fan_out<N: Node>(
        &self,
        nodes: &[N],
        req: &Request,
        jobs: impl FnOnce() -> Vec<(usize, Request)>,
    ) -> Response {
        let leg = |shard: usize, req: &Request| {
            let resp = nodes[shard].leg(req);
            if matches!(resp, Response::Err(_)) {
                self.faults[shard]
                    .scatter_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
            resp
        };
        if nodes.len() == 1 {
            return leg(0, req);
        }
        let legs = scatter(&jobs(), |_, (shard, req)| Ok((*shard, leg(*shard, req))))
            .expect("write legs answer with a response, never an io error");
        merge_receipts(legs)
    }

    /// The one partitioned write path: splits `items` by the TID residue
    /// `tid` reads off each and forwards every non-empty part as the
    /// request `leg` builds around it.  An empty write to N > 1 nodes is
    /// answered by `empty` from the current cut's `(epoch, rows)`.
    #[allow(clippy::too_many_arguments)]
    fn write<N: Node, T: Clone>(
        &self,
        nodes: &[N],
        req: &Request,
        hist: &Histogram,
        items: &[T],
        tid: impl Fn(&T) -> u64,
        leg: impl Fn(Vec<T>) -> Request,
        empty: impl FnOnce(u64, u64) -> Reply,
    ) -> Response {
        let start = Instant::now();
        let resp = if nodes.len() > 1 && items.is_empty() {
            match self.cut(nodes) {
                Ok((_, epoch, rows)) => Response::Ok(empty(epoch, rows)),
                Err(e) => self.fail(nodes, "write", e),
            }
        } else {
            self.fan_out(nodes, req, || {
                let mut parts: Vec<Vec<T>> = vec![Vec::new(); nodes.len()];
                for item in items {
                    parts[route(tid(item), nodes.len())].push(item.clone());
                }
                parts
                    .into_iter()
                    .enumerate()
                    .filter(|(_, part)| !part.is_empty())
                    .map(|(shard, part)| (shard, leg(part)))
                    .collect()
            })
        };
        hist.record(micros_since(start));
        resp
    }

    /// Fans one maintenance action out to every node, merged into one
    /// health report; a `MANIFEST` width follows re-sized files.
    fn maintain<N: Node>(&self, nodes: &[N], req: &Request) -> Response {
        let resp = self.fan_out(nodes, req, || {
            (0..nodes.len()).map(|shard| (shard, req.clone())).collect()
        });
        if let (Some(dir), Response::Ok(Reply::Maintain { action_taken, .. })) =
            (&self.manifest, &resp)
        {
            if *action_taken != maintain_action::PROBE_FPR {
                if let Err(e) = sync_manifest_width(nodes, dir) {
                    return Response::Err(format!(
                        "maintenance applied but manifest update failed: {e}"
                    ));
                }
            }
        }
        resp
    }

    /// Mines the union of one cut of every node: every pin's [`MineView`]
    /// goes to [`mine_views`], bit for bit what one unsharded engine
    /// returns.  Returns the result with the cut's epoch and live rows.
    fn mine<N: Node>(
        &self,
        nodes: &[N],
        scheme: Scheme,
        threshold: SupportThreshold,
        threads: usize,
    ) -> io::Result<(MineResult, u64, u64)> {
        let start = Instant::now();
        let threads = resolve_threads(threads, self.mine_threads);
        let (pins, epoch, _) = self.cut(nodes)?;
        let views = scatter(&pins, |_, pin| N::mine_view(pin))?;
        let rows = views.iter().map(MineView::live_rows).sum();
        let result = mine_views(&views, scheme, threshold, threads)?;
        self.scatter.mine.record(micros_since(start));
        Ok((result, epoch, rows))
    }

    /// Starts a drain, which reaches every node.
    pub(crate) fn begin_drain<N: Node>(&self, nodes: &[N]) {
        self.draining.store(true, Ordering::Release);
        nodes.iter().for_each(Node::begin_drain);
    }
}

/// Re-pins the `MANIFEST` width at `dir` to the nodes' live width after a
/// compaction or fold re-sized the files, so offline tools and fresh opens
/// agree with the disk; a no-op while the nodes disagree (a fan-out that
/// failed partway leaves the old pin).
fn sync_manifest_width<N: Node>(nodes: &[N], dir: &Path) -> io::Result<()> {
    let width = nodes[0].gauge().width;
    if nodes.iter().any(|n| n.gauge().width != width) {
        return Ok(());
    }
    let mut manifest = Manifest::read(dir)?;
    if manifest.width != width {
        manifest.width = width;
        manifest.write(dir)?;
    }
    Ok(())
}

/// One logical server over N TID-range shards.
pub struct Router<N: Node> {
    pub(crate) nodes: Vec<N>,
    pub(crate) front: Front,
}

impl<N: Node> Router<N> {
    /// Builds a router over `nodes` (shard order) and their fault
    /// counters.  `mine_threads` is the default worker count for `mine`
    /// requests that ask for `0`.  Over one node that keeps metrics the
    /// router records into the node's.
    pub fn new(nodes: Vec<N>, faults: Vec<Arc<ShardFaults>>, mine_threads: usize) -> Self {
        assert_eq!(nodes.len(), faults.len());
        let metrics = match &nodes[..] {
            [node] => node.own_metrics().cloned(),
            _ => None,
        };
        let front = Front {
            faults,
            metrics: metrics.unwrap_or_default(),
            mine_threads,
            ..Front::default()
        };
        Router { nodes, front }
    }

    /// The shards, in shard order.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// The router's scatter-gather latency histograms.
    pub fn scatter_metrics(&self) -> &ScatterMetrics {
        &self.front.scatter
    }

    /// The per-shard fault counters, in shard order.
    pub fn shard_faults(&self) -> &[Arc<ShardFaults>] {
        &self.front.faults
    }

    /// Exact batched counting over every shard's latest snapshot, summed.
    /// Returns `(supports, epoch, rows)`.
    pub fn count_many(&self, itemsets: &[Vec<u32>]) -> io::Result<(Vec<u64>, u64, u64)> {
        self.front.count_many(&self.nodes, itemsets)
    }

    /// Routes an insert batch to the shards that own its TIDs.
    pub fn insert(&self, req_id: u64, txns: &[(u64, Vec<u32>)]) -> Response {
        let txns = txns.to_vec();
        self.front
            .dispatch(&self.nodes, &Request::Insert { req_id, txns })
    }

    /// Mines the union of one cut of every shard; returns the result with
    /// the cut's epoch and its live rows.
    pub fn mine(
        &self,
        scheme: Scheme,
        threshold: SupportThreshold,
        threads: usize,
    ) -> io::Result<(MineResult, u64, u64)> {
        self.front.mine(&self.nodes, scheme, threshold, threads)
    }
}

impl<N: Node + 'static> RequestHandler for Router<N> {
    fn dispatch(&self, req: &Request) -> Response {
        self.front.dispatch(&self.nodes, req)
    }

    fn is_draining(&self) -> bool {
        self.front.draining.load(Ordering::Acquire)
    }

    fn begin_drain(&self) {
        self.front.begin_drain(&self.nodes);
    }

    fn join(&self) {
        self.begin_drain();
        self.nodes.iter().for_each(Node::join);
    }

    fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.front.metrics
    }
}

/// Folds one more OK body of a write fan-out into `acc`.  Receipts add
/// up — appended / tombstoned / live / deleted rows sum, `deduped` holds
/// only when *every* leg was answered from a window, `first_row` stays
/// the lowest participating shard's (receipts are per-shard row
/// addresses) — while a health report is gated by the weakest member: the
/// highest epoch, the widest width, the worst FPR and the most
/// consequential action taken.  A body that does not pair is handed back.
fn fold_reply(acc: &mut Reply, next: Reply) -> Result<(), Reply> {
    use Reply::{Delete, Insert, Maintain};
    match (acc, next) {
        (
            Insert {
                appended: rows,
                epoch,
                deduped,
                ..
            },
            Insert {
                appended: n,
                epoch: e,
                deduped: d,
                ..
            },
        )
        | (
            Delete {
                deleted: rows,
                epoch,
                deduped,
            },
            Delete {
                deleted: n,
                epoch: e,
                deduped: d,
            },
        ) => {
            *rows += n;
            *epoch = e.max(*epoch);
            *deduped &= d;
        }
        (
            Maintain {
                action_taken,
                width,
                live_rows,
                deleted_rows,
                fpr_bits,
            },
            Maintain {
                action_taken: a,
                width: w,
                live_rows: l,
                deleted_rows: d,
                fpr_bits: f,
            },
        ) => {
            *action_taken = a.max(*action_taken);
            *width = w.max(*width);
            *live_rows += l;
            *deleted_rows += d;
            *fpr_bits = f64::from_bits(f).max(f64::from_bits(*fpr_bits)).to_bits();
        }
        (_, other) => return Err(other),
    }
    Ok(())
}

/// Merges the per-shard answers of one write fan-out — `(shard, response)`
/// in shard order — into the client's single receipt.  Any failure wins
/// by severity, `Committed < Overloaded < NotPrimary < DiskFull < Err <
/// ShardUnavailable`, the first shard at the worst rank speaking for the
/// request, and a server error is tagged `shard {i}:` with where it came
/// from.  When every leg committed, the OK bodies fold into one receipt.
pub fn merge_receipts(legs: Vec<(usize, Response)>) -> Response {
    let mut merged: Option<Reply> = None;
    let mut worst: Option<(u8, Response)> = None;
    let mut fail = |rank: u8, resp: Response| {
        if worst.as_ref().is_none_or(|(r, _)| rank > *r) {
            worst = Some((rank, resp));
        }
    };
    for (shard, resp) in legs {
        match resp {
            Response::Ok(reply) => match &mut merged {
                None => merged = Some(reply),
                Some(acc) => {
                    if let Err(odd) = fold_reply(acc, reply) {
                        fail(
                            4,
                            Response::Err(format!("shard {shard}: unexpected reply {odd:?}")),
                        );
                    }
                }
            },
            Response::Overloaded => fail(1, Response::Overloaded),
            Response::NotPrimary(primary) => fail(2, Response::NotPrimary(primary)),
            Response::DiskFull => fail(3, Response::DiskFull),
            Response::Err(msg) | Response::BadFrame(msg) => {
                fail(4, Response::Err(format!("shard {shard}: {msg}")))
            }
            unavailable @ Response::ShardUnavailable(..) => fail(5, unavailable),
        }
    }
    match (worst, merged) {
        (Some((_, resp)), _) => resp,
        (None, Some(reply)) => Response::Ok(reply),
        (None, None) => Response::Err("no shard answered".into()),
    }
}
