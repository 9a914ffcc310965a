//! The scatter-gather router: one [`Router`] fronting N shards, wherever
//! they live.
//!
//! The paper's `CountItemSet` is an AND + popcount over bit slices, so
//! supports are additive over any disjoint TID partition — and the sum
//! does not care whether a partition is a file stack in this process or a
//! server on another host.  A [`Node`] is one such partition; the router
//! is written once over the trait and instantiated twice:
//! `Router<Arc<Engine>>` *is* the local shard router
//! ([`crate::ShardedEngine`]) and `Router<RemoteShardHandle>` the
//! distributed coordinator (`bbs_remote::CoordinatorEngine`).
//!
//! * **Writes** (insert, delete) are partitioned by TID residue
//!   ([`bbs_shard::route`]) and each non-empty part is forwarded to its
//!   owning node as the same request a client would send that shard alone,
//!   **reusing the client's request ID** — every shard deduplicates
//!   independently, so a retry after a partial failure re-sends the same
//!   partition, the shards that already committed answer from their
//!   exactly-once windows, and the deployment converges without any
//!   cross-shard coordination.  Maintenance fans out to every node.  The
//!   per-shard answers fold into one receipt in [`merge_receipts`].
//! * **Reads**: a count is an exact `COUNT_MANY` at every node's latest
//!   snapshot ([`Node::count_latest`]), summed over the nodes in shard
//!   order on the calling thread — no node is pinned for it.  `mine` and
//!   `probe` read one pinned snapshot per node: `mine` by asking every pin
//!   for its [`MineView`] and walking the candidate tree over a
//!   [`bbs_shard::ShardedCounter`] of the views' cursors (supports merged
//!   across shards inside every `CountItemSet`, uncertain candidates
//!   refined with one scan per shard) — bit for bit what one unsharded
//!   engine returns — and `probe` by addressing the concatenated row space
//!   (shard 0's rows first).
//!
//! Where local and remote shards genuinely differ, the difference is a
//! [`Node`] method (how a pin is taken, how a count reaches the shard,
//! and what a pin's mining view is — the
//! pinned snapshot mined in place, or rows pulled over the wire and
//! indexed in memory — what a failure looks like, which stats columns
//! exist, whether a drain propagates) or stays in the constructor shell
//! (the local router re-pins its `MANIFEST` width after a compaction) —
//! the router never asks which kind it is.

use crate::engine::{admit_count_many, mine_reply, resolve_threads};
use crate::metrics::{micros_since, Histogram, ServerMetrics};
use crate::net::RequestHandler;
use crate::proto::{Reply, Request, Response};
use bbs_core::{CountSource, Scheme};
use bbs_shard::{route, scatter, sum_columns, sum_item_counts, ShardedCounter};
use bbs_tdb::{ItemId, Itemset, MineResult, SupportThreshold};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Scatter-gather latency (µs) per fan-out endpoint: the time from
/// dispatching a request to every shard until the gathered answer is
/// assembled.  Rendered in the stats document as `"scatter_us"`.
#[derive(Default)]
pub struct ScatterMetrics {
    /// Insert fan-out: partition + N parallel group commits + merge.
    pub insert: Histogram,
    /// Single-count fan-out.
    pub count: Histogram,
    /// Batched-count fan-out (whole batch to every shard).
    pub count_many: Histogram,
    /// Mine fan-out: mining views + filter + cross-shard refinement.
    pub mine: Histogram,
    /// Probe routing (single-shard, but addressed globally).
    pub probe: Histogram,
    /// Delete fan-out: partition + N parallel tombstone commits + merge.
    pub delete: Histogram,
}

impl ScatterMetrics {
    /// Renders the histograms as the stats document's `scatter_us` value.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"insert\":{},\"count\":{},\"count_many\":{},\"mine\":{},\"probe\":{},\"delete\":{}}}",
            self.insert.to_json(),
            self.count.to_json(),
            self.count_many.to_json(),
            self.mine.to_json(),
            self.probe.to_json(),
            self.delete.to_json()
        )
    }
}

/// Per-shard fault counters, rendered next to the `scatter_us`
/// histograms in the stats document.  A local shard only ever bumps
/// `scatter_errors` (there is no wire to time out on and no follower to
/// fail over to); a remote one bumps all three.
#[derive(Default)]
pub struct ShardFaults {
    /// Scatter legs that returned an error for this shard.
    pub scatter_errors: AtomicU64,
    /// Scatter legs that exhausted their per-request timeout waiting on
    /// this shard.
    pub timeouts: AtomicU64,
    /// Times this shard's handle was re-pointed at its replication
    /// follower after the primary went silent.
    pub failovers: AtomicU64,
}

impl ShardFaults {
    /// Renders the three per-shard arrays as stats-document fragments:
    /// `"scatter_errors":[..]`, `"timeouts":[..]`, `"failovers":[..]`.
    pub fn to_json_arrays(faults: &[Arc<ShardFaults>]) -> Vec<String> {
        let column = |name: &str, pick: fn(&ShardFaults) -> &AtomicU64| {
            json_column(name, faults.iter().map(|f| pick(f).load(Ordering::Relaxed)))
        };
        vec![
            column("scatter_errors", |f| &f.scatter_errors),
            column("timeouts", |f| &f.timeouts),
            column("failovers", |f| &f.failovers),
        ]
    }
}

/// Renders one per-shard stats column, `"name":[v0,v1,…]`.
pub fn json_column<T: ToString>(name: &str, values: impl Iterator<Item = T>) -> String {
    let cells: Vec<String> = values.map(|v| v.to_string()).collect();
    format!("\"{name}\":[{}]", cells.join(","))
}

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

/// What mining needs of one pinned shard, wherever its rows are: the
/// filter phase counts through one [`MineView::counter`] per worker, and
/// what it leaves uncertain settles by one [`MineView::tally`] scan.
/// Tombstoned rows are in none of the four answers.
pub trait MineView: Sync {
    /// A depth-first cursor over the shard's index at the pin.
    type Counter<'a>: CountSource + Send
    where
        Self: 'a;

    /// Live rows of the shard at the pin: its share of the threshold's
    /// base, and the most it can add to a cross-shard count.
    fn live_rows(&self) -> u64;

    /// Exact 1-itemset supports over the live rows.
    fn item_counts(&self) -> &HashMap<ItemId, u64>;

    /// A fresh cursor for one worker.
    fn counter(&self) -> io::Result<Self::Counter<'_>>;

    /// Exact supports of `cands` over the live rows: one scan.
    fn tally(&self, cands: &[Itemset]) -> io::Result<Vec<u64>>;

    /// The run is over: accounts for what `counter` did, where the shard
    /// keeps such accounts.
    fn retire(&self, _counter: &Self::Counter<'_>) {}
}

/// One shard of a deployment as the [`Router`] drives it: a local engine
/// or a server across the wire.
pub trait Node: Send + Sync + Sized + 'static {
    /// One pinned snapshot of this shard, for the reads that need one cut
    /// across several calls; its epoch, rows, mining view and single rows
    /// are read back through the associated functions below.
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

    /// Pins every node so one request reads one cut, in shard order.
    /// Inline by default; a node whose pin is a round trip overrides this
    /// to take them in parallel.
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

    /// The message recorded when this shard became unreachable, if any:
    /// a failed read then answers `SHARD_UNAVAILABLE` naming it.
    fn unavailable(&self) -> Option<String> {
        None
    }

    /// The node's committed state for the stats document.
    fn gauge(&self) -> Gauge;

    /// The per-shard stats columns only this kind of node has, as
    /// rendered `"key":value` fragments.
    fn stats_columns(nodes: &[Self]) -> Vec<String>;

    /// Propagates a router drain to the node (a no-op for a node the
    /// router does not own).
    fn begin_drain(&self) {}

    /// Waits for the node's background work to exit (same proviso).
    fn join(&self) {}
}

/// Pins every node and returns the pins with the epoch and row count of
/// the cut: the epoch is the sum of per-shard epochs (monotonic — any
/// shard commit bumps it), the rows the total across shards.
fn cut<'a, N: Node>(
    nodes: &'a [N],
    faults: &'a [Arc<ShardFaults>],
) -> io::Result<(Vec<N::Pin<'a>>, u64, u64)> {
    let pins = N::pin_all(nodes, faults)?;
    let epoch = pins.iter().map(N::epoch).sum();
    let rows = pins.iter().map(N::rows).sum();
    Ok((pins, epoch, rows))
}

/// One logical server over N TID-range shards.
pub struct Router<N: Node> {
    nodes: Vec<N>,
    faults: Vec<Arc<ShardFaults>>,
    metrics: Arc<ServerMetrics>,
    scatter: ScatterMetrics,
    draining: AtomicBool,
    mine_threads: usize,
    stats_extra: Vec<String>,
}

impl<N: Node> Router<N> {
    /// Builds a router over `nodes` (shard order) and their fault
    /// counters.  `mine_threads` is the default worker count for `mine`
    /// requests that ask for `0`; `stats_extra` are fixed `"key":value`
    /// fragments the caller contributes to the stats document.
    pub fn new(
        nodes: Vec<N>,
        faults: Vec<Arc<ShardFaults>>,
        mine_threads: usize,
        stats_extra: Vec<String>,
    ) -> Self {
        assert_eq!(nodes.len(), faults.len());
        Router {
            nodes,
            faults,
            metrics: Arc::new(ServerMetrics::new()),
            scatter: ScatterMetrics::default(),
            draining: AtomicBool::new(false),
            mine_threads,
            stats_extra,
        }
    }

    /// The shards, in shard order.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.nodes.len()
    }

    /// The router's scatter-gather latency histograms.
    pub fn scatter_metrics(&self) -> &ScatterMetrics {
        &self.scatter
    }

    /// The per-shard fault counters, in shard order.
    pub fn shard_faults(&self) -> &[Arc<ShardFaults>] {
        &self.faults
    }

    /// A failed read: the typed `SHARD_UNAVAILABLE` naming the first
    /// shard that is marked unreachable, else a plain server error.
    fn fail(&self, what: &str, e: io::Error) -> Response {
        for (shard, node) in self.nodes.iter().enumerate() {
            if let Some(msg) = node.unavailable() {
                return Response::ShardUnavailable(shard as u32, msg);
            }
        }
        Response::Err(format!("{what} failed: {e}"))
    }

    /// Pins every shard: see [`cut`].
    fn pins(&self) -> io::Result<(Vec<N::Pin<'_>>, u64, u64)> {
        cut(&self.nodes, &self.faults)
    }

    /// Exact batched counting: the whole batch goes to every shard's
    /// latest snapshot ([`Node::count_latest`]), one shard after another on
    /// the calling thread, and the supports, epochs and rows are summed.
    /// Returns `(supports, epoch, rows)`.
    pub fn count_many(&self, itemsets: &[Vec<u32>]) -> io::Result<(Vec<u64>, u64, u64)> {
        let start = Instant::now();
        let mut supports = vec![0u64; itemsets.len()];
        let (mut epoch, mut rows) = (0, 0);
        for (node, faults) in self.nodes.iter().zip(&self.faults) {
            let (shard, e, r) = node.count_latest(faults, itemsets)?;
            for (sum, s) in supports.iter_mut().zip(shard) {
                *sum += s;
            }
            epoch += e;
            rows += r;
        }
        let hist = if itemsets.len() == 1 {
            &self.scatter.count
        } else {
            &self.scatter.count_many
        };
        hist.record(micros_since(start));
        Ok((supports, epoch, rows))
    }

    /// Probes one row of the concatenated row space: rows `0..r0` live on
    /// shard 0, `r0..r0+r1` on shard 1, and so on, against one cut.
    pub fn probe(&self, row: u64) -> io::Result<Option<(u64, Vec<u32>)>> {
        let start = Instant::now();
        let (pins, ..) = self.pins()?;
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

    /// Runs one write leg per job, concurrently, in job order.  A leg
    /// that reached its shard and failed there counts as a scatter error
    /// (one that never arrived is tallied by the node itself).
    fn legs(&self, jobs: &[(usize, Request)]) -> Vec<(usize, Response)> {
        scatter(jobs, |_, (shard, req)| {
            let resp = self.nodes[*shard].leg(req);
            if matches!(resp, Response::Err(_)) {
                self.faults[*shard]
                    .scatter_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
            Ok((*shard, resp))
        })
        .expect("write legs answer with a response, never an io error")
    }

    /// The one partitioned write path: splits `items` by the TID residue
    /// `tid` reads off each, forwards every non-empty part as the request
    /// `leg` builds around it, and merges the per-shard receipts.  An
    /// empty write commits nothing and is answered by `empty` from the
    /// current cut's `(epoch, rows)`.
    fn write<T: Clone>(
        &self,
        what: &str,
        hist: &Histogram,
        items: &[T],
        tid: impl Fn(&T) -> u64,
        leg: impl Fn(Vec<T>) -> Request,
        empty: impl FnOnce(u64, u64) -> Reply,
    ) -> Response {
        let start = Instant::now();
        if self.is_draining() {
            self.metrics.overloaded.fetch_add(1, Ordering::Relaxed);
            return Response::Overloaded;
        }
        if items.is_empty() {
            return match self.pins() {
                Ok((_, epoch, rows)) => Response::Ok(empty(epoch, rows)),
                Err(e) => self.fail(what, e),
            };
        }
        let n = self.nodes.len();
        let mut parts: Vec<Vec<T>> = vec![Vec::new(); n];
        for item in items {
            parts[route(tid(item), n)].push(item.clone());
        }
        let jobs: Vec<(usize, Request)> = parts
            .into_iter()
            .enumerate()
            .filter(|(_, part)| !part.is_empty())
            .map(|(shard, part)| (shard, leg(part)))
            .collect();
        let resp = merge_receipts(self.legs(&jobs));
        hist.record(micros_since(start));
        resp
    }

    /// Routes an insert batch to the shards that own its TIDs.
    pub fn insert(&self, req_id: u64, txns: &[(u64, Vec<u32>)]) -> Response {
        self.write(
            "insert",
            &self.scatter.insert,
            txns,
            |(tid, _)| *tid,
            |txns| Request::Insert { req_id, txns },
            |epoch, rows| Reply::Insert {
                first_row: rows,
                appended: 0,
                epoch,
                deduped: false,
            },
        )
    }

    /// Routes a tombstone delete to the shards that own the named TIDs.
    pub fn delete(&self, req_id: u64, tids: &[u64]) -> Response {
        self.write(
            "delete",
            &self.scatter.delete,
            tids,
            |tid| *tid,
            |tids| Request::Delete { req_id, tids },
            |epoch, _| Reply::Delete {
                deleted: 0,
                epoch,
                deduped: false,
            },
        )
    }

    /// Fans one maintenance action out to every shard and merges the
    /// replies into one health report (see [`merge_receipts`]).
    pub fn maintain(&self, req: &Request) -> Response {
        let jobs: Vec<(usize, Request)> = (0..self.nodes.len())
            .map(|shard| (shard, req.clone()))
            .collect();
        merge_receipts(self.legs(&jobs))
    }

    /// Mines the union of one cut of every shard.  Candidate subtrees are
    /// dealt across `threads` workers and each worker merges supports
    /// across every shard before any prune decision, so the patterns,
    /// supports and approx markers are bit-for-bit what one unsharded
    /// engine returns over the same transactions.
    pub fn mine(
        &self,
        scheme: Scheme,
        threshold: SupportThreshold,
        threads: usize,
    ) -> io::Result<(MineResult, u64, u64)> {
        let start = Instant::now();
        let threads = resolve_threads(threads, self.mine_threads);
        let (pins, epoch, _) = self.pins()?;
        let views = scatter(&pins, |_, pin| N::mine_view(pin))?;
        let shard_rows: Vec<u64> = views.iter().map(MineView::live_rows).collect();
        let rows: u64 = shard_rows.iter().sum();
        let tau = threshold.resolve(rows as usize);

        let actuals = sum_item_counts(views.iter().map(MineView::item_counts));
        // One cursor per shard per worker: the cross-shard sum counts each
        // sibling against the shard prefixes the cursors keep.
        let make_source = || {
            let cursors = views.iter().map(MineView::counter);
            Ok(ShardedCounter::new(
                cursors.collect::<io::Result<_>>()?,
                shard_rows.clone(),
            ))
        };
        let (filter_out, counters) = bbs_core::run_filter_source_threaded(
            make_source,
            &actuals,
            scheme.filter(),
            tau,
            threads,
        )?;
        for counter in &counters {
            for (view, cursor) in views.iter().zip(counter.readers()) {
                view.retire(cursor);
            }
        }

        // Global support merge before refinement verdicts: one scan per
        // shard (in parallel), then column sums decide.
        let result = filter_out.settle(tau, |cands| {
            let per_shard = scatter(&views, |_, view| view.tally(cands))?;
            Ok(sum_columns(&per_shard, cands.len()))
        })?;
        self.scatter.mine.record(micros_since(start));
        Ok((result, epoch, rows))
    }

    /// Renders the stats document: router wire metrics, the shard table
    /// (count, per-shard rows and widths, whatever columns the node kind
    /// adds), the scatter-gather latency histograms and the per-shard
    /// fault counters.
    pub fn stats_json(&self) -> String {
        let gauges: Vec<Gauge> = self.nodes.iter().map(Node::gauge).collect();
        let mut extra = self.stats_extra.clone();
        extra.extend([
            format!("\"shards\":{}", self.nodes.len()),
            format!(
                "\"width\":{}",
                gauges.iter().map(|g| g.width).max().unwrap_or(0)
            ),
            format!("\"rows\":{}", gauges.iter().map(|g| g.rows).sum::<u64>()),
            format!("\"epoch\":{}", gauges.iter().map(|g| g.epoch).sum::<u64>()),
            json_column("shard_rows", gauges.iter().map(|g| g.rows)),
            json_column("shard_width", gauges.iter().map(|g| g.width)),
        ]);
        extra.extend(N::stats_columns(&self.nodes));
        extra.push(format!("\"scatter_us\":{}", self.scatter.to_json()));
        extra.push(format!("\"draining\":{}", self.is_draining()));
        extra.extend(ShardFaults::to_json_arrays(&self.faults));
        self.metrics.to_json(&extra)
    }
}

impl<N: Node> RequestHandler for Router<N> {
    fn dispatch(&self, req: &Request) -> Response {
        match req {
            Request::Ping => Response::Ok(Reply::Pong),
            Request::CountMany { itemsets } => {
                if !admit_count_many(&self.metrics, itemsets) {
                    return Response::Overloaded;
                }
                match self.count_many(itemsets) {
                    Ok((supports, epoch, rows)) => Response::Ok(Reply::CountMany {
                        supports,
                        epoch,
                        rows,
                    }),
                    Err(e) => self.fail("count_many", e),
                }
            }
            Request::Insert { req_id, txns } => self.insert(*req_id, txns),
            Request::Delete { req_id, tids } => self.delete(*req_id, tids),
            Request::Maintain { .. } => self.maintain(req),
            Request::Mine {
                scheme,
                threshold,
                threads,
            } => match self.mine(*scheme, *threshold, usize::from(*threads)) {
                Ok((result, epoch, rows)) => Response::Ok(mine_reply(&result, epoch, rows)),
                Err(e) => self.fail("mine", e),
            },
            Request::Probe { row } => match self.probe(*row) {
                Ok(txn) => Response::Ok(Reply::Probe { txn }),
                Err(e) => self.fail("probe", e),
            },
            Request::Stats => Response::Ok(Reply::Stats {
                json: self.stats_json(),
            }),
            Request::Shutdown => {
                self.begin_drain();
                Response::Ok(Reply::ShuttingDown)
            }
            Request::Replicate { .. }
            | Request::Promote
            | Request::CountManyAt { .. }
            | Request::Rows { .. } => Response::Err(
                "replication and snapshot-pin endpoints are served by each shard's own server, \
                 not by a router; address the shards individually"
                    .into(),
            ),
        }
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        self.nodes.iter().for_each(Node::begin_drain);
    }

    fn join(&self) {
        self.begin_drain();
        self.nodes.iter().for_each(Node::join);
    }

    fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
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
