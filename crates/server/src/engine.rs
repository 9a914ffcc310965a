//! The request engine: snapshot-isolated reads, group-committed writes.
//!
//! An [`Engine`] wraps a [`SharedDeployment`] with the server's two data
//! paths:
//!
//! * **Write path** — [`Engine::insert_with_id`] does not touch the
//!   files.  It enqueues the batch on a **bounded** MPSC queue
//!   ([`ServerConfig::queue_capacity`]) and waits for a receipt.  A
//!   dedicated *committer* thread drains the queue, coalescing jobs that
//!   arrive within [`ServerConfig::commit_window`] of the first (up to
//!   [`ServerConfig::batch_max`] transactions) into **one** group commit:
//!   one slice/heap append pass, one fsync set, one commit record —
//!   however many producers are blocked on it.  A full queue is answered
//!   with the typed [`Response::Overloaded`], never by blocking the
//!   connection handler forever; a receipt that takes longer than
//!   [`ServerConfig::insert_timeout`] returns a timeout error while the
//!   commit itself still completes.
//! * **Read path** — [`Engine::count`], [`Engine::probe`] and
//!   [`Engine::mine`] run against the latest published [`Snapshot`]:
//!   concurrent with ingest, never observing a half-appended batch
//!   (see `bbs_storage::snapshot` for the isolation protocol).  `mine`
//!   runs the one depth-first enumerator over disk cursors at the pinned
//!   snapshot — nothing is loaded — and its readers hold the commit fence
//!   per `CountItemSet` call, never across the walk, so a long mine never
//!   delays a commit by more than one call.
//!
//! # Exactly-once ingest
//!
//! Every insert carries a client-chosen request ID (`0` opts out).  The
//! committer consults the deployment's durable dedup window *before*
//! appending: a request ID whose batch already committed — in a previous
//! run of the process, or earlier in this very group commit — is answered
//! with the **original** row receipt and `deduped = true` instead of
//! appending again.  This is what makes client retries safe: a reply lost
//! to a timeout, a dropped connection, or a server crash *after* the
//! commit record hit disk turns into a dedup hit on retry, never a
//! duplicate batch.
//!
//! [`Engine::handle`] is the single dispatcher the transport layer calls:
//! request in, response out, metrics recorded — it is transport-agnostic
//! and unit-testable without a socket.

use crate::client::Client;
use crate::metrics::{micros_since, ServerMetrics};
use crate::net::RequestHandler;
use crate::proto::{maintain_action, LogEntry, Reply, Request, Response};
use bbs_core::Scheme;
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_storage::snapshot::{SharedDeployment, Snapshot};
use bbs_storage::{deployment_paths, is_disk_full, read_entries};
use bbs_storage::DEFAULT_DEDUP_WINDOW;
use bbs_tdb::{Itemset, MineResult, SupportThreshold, Transaction};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most log entries one `replicate` response carries, regardless of what
/// the follower asked for.
const REPLICATE_MAX_ENTRIES: usize = 512;

/// Byte budget for the entries of one `replicate` response (the wire
/// encoding adds a small constant per entry, so this stays comfortably
/// under [`crate::proto::MAX_FRAME`]).
const REPLICATE_MAX_BYTES: usize = 8 << 20;

/// Admission cap for one `count_many` batch, measured in total item
/// values across the batch (an empty itemset still charges one unit).
/// The unit of work a batched count admits is its slice-AND operands,
/// not its frame count: a batch of K itemsets costs what K independent
/// counts would, so it must be charged as K counts' worth of work — one
/// giant frame cannot sneak unbounded scanning past admission control.
const COUNT_MANY_MAX_WORK: usize = 1 << 16;

/// Admission control for one `count_many` batch, shared by every engine:
/// charges the batch by its total item count (an empty itemset charges
/// one unit), rejecting — and counting as overloaded — anything past
/// [`COUNT_MANY_MAX_WORK`]; an admitted batch's size is recorded.
pub(crate) fn admit_count_many(metrics: &ServerMetrics, itemsets: &[Vec<u32>]) -> bool {
    let work: usize = itemsets.iter().map(|s| s.len().max(1)).sum();
    if work > COUNT_MANY_MAX_WORK {
        metrics.overloaded.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    metrics.count_many_batch.record(itemsets.len() as u64);
    true
}

/// Shapes a mining result as the wire reply: `(items, support, approx)`
/// per pattern, sorted.
pub(crate) fn mine_reply(result: &MineResult, epoch: u64, rows: u64) -> Reply {
    let mut patterns: Vec<(Vec<u32>, u64, bool)> = result
        .patterns
        .sorted()
        .into_iter()
        .map(|p| {
            let approx = result.approx_supports.contains(&p.items);
            let items = p.items.items().iter().map(|i| i.0).collect();
            (items, p.support, approx)
        })
        .collect();
    patterns.sort();
    Reply::Mine {
        epoch,
        rows,
        patterns,
    }
}

/// A transaction as the wire carries it: `(tid, item values)`.
pub(crate) fn wire_txn(txn: &Transaction) -> (u64, Vec<u32>) {
    (txn.tid.0, txn.items.items().iter().map(|i| i.0).collect())
}

/// How many distinct epochs the snapshot pin table holds.  Pinning a
/// fifth epoch evicts the oldest; a coordinator that then asks for the
/// evicted epoch gets a typed `stale pin` error and simply re-pins.
const MAX_PINS: usize = 4;

/// Cap on the rows one `Rows` reply examines, regardless of the requested
/// limit.
const ROWS_MAX_PER_REPLY: u64 = 8192;

/// Seed base for maintenance FPR probes; each probe perturbs it with a
/// running counter so successive probes sample fresh (but reproducible)
/// item pairs.
const FPR_SEED: u64 = 0xBB5_F9A0_11D5;

/// Byte budget for the transactions of one `Rows` reply (the wire
/// encoding stays comfortably under [`crate::proto::MAX_FRAME`]).
const ROWS_MAX_BYTES: usize = 8 << 20;

/// Resolves a MINE worker count: the request's value, else the configured
/// default, else every core (`0` means "unset" in both) — and never more
/// than the cores there are, whoever asked.  Mined results do not depend
/// on the thread count, so the cap costs nothing but bounds what one
/// hostile `threads = 65535` frame can make the server spawn.
pub fn resolve_threads(requested: usize, configured: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    match [requested, configured].into_iter().find(|&t| t != 0) {
        Some(threads) => threads.min(cores),
        None => cores,
    }
}

/// Which side of replication this server is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes; its replication log is the source of truth.
    Primary,
    /// Pulls the primary's log and applies it through the normal commit
    /// path; serves reads, rejects writes with `NotPrimary`.
    Follower {
        /// The primary's address, echoed in `NotPrimary` rejections so a
        /// client knows where to go.
        primary: String,
    },
}

/// Tuning knobs for an [`Engine`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Signature width in bits for a freshly created deployment (must
    /// match the on-disk width when opening an existing one).
    pub width: usize,
    /// Page-cache capacity per file handle.
    pub cache_pages: usize,
    /// Bounded ingest queue: jobs beyond this are answered `Overloaded`.
    pub queue_capacity: usize,
    /// Maximum transactions coalesced into one group commit.
    pub batch_max: usize,
    /// Default worker threads for `mine` requests that ask for `0`.
    pub mine_threads: usize,
    /// How long an insert waits for its commit receipt before reporting a
    /// timeout (the commit itself still lands).
    pub insert_timeout: Duration,
    /// How long the committer keeps gathering jobs after the first one
    /// before committing the batch.  `Duration::ZERO` commits every job
    /// on its own — one batch per commit, no coalescing.
    pub commit_window: Duration,
    /// Request IDs remembered for exactly-once ingest (per deployment,
    /// persisted across restarts).
    pub dedup_window: usize,
    /// When set, start as a follower of the primary at this TCP address:
    /// pull its replication log, apply through the commit path, reject
    /// writes with `NotPrimary`.
    pub follow: Option<String>,
    /// How often a follower polls the primary once caught up (also the
    /// retry tick while the primary is unreachable).
    pub poll_interval: Duration,
    /// A follower that cannot reach its primary for this long promotes
    /// itself.  `None` (the default) promotes only on request.
    pub auto_promote: Option<Duration>,
    /// When set, a background thread runs the maintenance policy
    /// ([`maintain_action::AUTO`]) at this interval: probe the FPR, then
    /// compact/fold per the thresholds below.  `None` (the default)
    /// leaves maintenance to explicit `MAINTAIN` requests.
    pub maintain_interval: Option<Duration>,
    /// Measured FPR above this triggers a compaction that re-hashes at
    /// double the width (tombstones are dropped in the same pass).
    pub fpr_hi: f64,
    /// Measured FPR below this marks the width over-provisioned: the
    /// policy folds it in half (down to [`ServerConfig::min_width`]).
    pub fpr_lo: f64,
    /// Item-pair probes per FPR measurement (each costs one `count_many`
    /// batch plus one live-row heap scan).
    pub fpr_samples: usize,
    /// Tombstoned fraction of the file above which the policy compacts
    /// (at the current width) to reclaim the dead rows.
    pub dead_fraction_hi: f64,
    /// Folds never shrink the width below this.
    pub min_width: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            width: 64,
            cache_pages: 1024,
            queue_capacity: 256,
            batch_max: 4096,
            mine_threads: 0,
            insert_timeout: Duration::from_secs(30),
            commit_window: Duration::from_millis(50),
            dedup_window: DEFAULT_DEDUP_WINDOW,
            follow: None,
            poll_interval: Duration::from_millis(50),
            auto_promote: None,
            maintain_interval: None,
            fpr_hi: 0.25,
            fpr_lo: 0.002,
            fpr_samples: 64,
            dead_fraction_hi: 0.5,
            min_width: 16,
        }
    }
}

/// One queued ingest batch and the channel its outcome goes back on.
struct IngestJob {
    req_id: u64,
    txns: Vec<Transaction>,
    reply: SyncSender<InsertOutcome>,
}

/// The outcome of [`Engine::insert_with_id`].
#[derive(Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Batch is durable (now, or — when `deduped` — in some earlier
    /// commit this request ID already landed in).
    Committed {
        /// First row the batch occupies.
        first_row: u64,
        /// Rows appended.
        appended: u64,
        /// Epoch whose snapshot shows the batch.
        epoch: u64,
        /// True when the receipt came from the exactly-once window
        /// instead of a fresh append (the batch was already durable).
        deduped: bool,
    },
    /// The bounded queue was full (or the server is draining).
    Overloaded,
    /// The disk is out of space: nothing was appended.  Reads keep
    /// serving; retrying with the same request ID once space returns is
    /// safe.
    DiskFull,
    /// This server is a follower: writes go to the named primary.
    NotPrimary(String),
    /// The commit failed or its receipt did not arrive in time.
    Failed(String),
}

/// The server's request engine (transport-agnostic).
pub struct Engine {
    shared: Arc<SharedDeployment>,
    metrics: Arc<ServerMetrics>,
    ingest: SyncSender<IngestJob>,
    committer: Mutex<Option<JoinHandle<()>>>,
    draining: Arc<AtomicBool>,
    role: Arc<RwLock<Role>>,
    applier: Mutex<Option<JoinHandle<()>>>,
    applier_stop: Arc<AtomicBool>,
    cfg: ServerConfig,
    /// Bounded pin table for the remote-shard read contract: epoch →
    /// snapshot, oldest evicted beyond [`MAX_PINS`].
    pins: Mutex<Vec<(u64, Arc<Snapshot>)>>,
    maintainer: Mutex<Option<JoinHandle<()>>>,
    maintain_stop: Arc<AtomicBool>,
    /// Monotone probe counter perturbing the FPR seed per measurement.
    fpr_probes: AtomicU64,
}

impl Engine {
    /// Opens (creating or crash-recovering) the deployment at `base` with
    /// the default MD5 Bloom hasher and spawns the committer thread.
    pub fn open(base: &Path, cfg: ServerConfig) -> io::Result<Arc<Engine>> {
        let hasher: Arc<dyn ItemHasher> = Arc::new(Md5BloomHasher::new(4));
        Engine::open_with(base, cfg, hasher)
    }

    /// [`Engine::open`] with an explicit hash family.
    pub fn open_with(
        base: &Path,
        cfg: ServerConfig,
        hasher: Arc<dyn ItemHasher>,
    ) -> io::Result<Arc<Engine>> {
        let shared = SharedDeployment::open(base, cfg.width, hasher, cfg.cache_pages)?;
        Engine::with_shared(shared, cfg)
    }

    /// Builds an engine over an already-open [`SharedDeployment`] (the
    /// fault-injection tests open theirs with
    /// [`SharedDeployment::open_faulty`]).  The hasher identity reported
    /// to coordinators is read off the deployment's index.
    pub fn with_shared(shared: Arc<SharedDeployment>, cfg: ServerConfig) -> io::Result<Arc<Engine>> {
        shared.set_dedup_window(cfg.dedup_window);
        let metrics = Arc::new(ServerMetrics::new());
        let (tx, rx) = mpsc::sync_channel::<IngestJob>(cfg.queue_capacity);
        let draining = Arc::new(AtomicBool::new(false));
        let committer = {
            let shared = Arc::clone(&shared);
            let metrics = Arc::clone(&metrics);
            let draining = Arc::clone(&draining);
            let batch_max = cfg.batch_max.max(1);
            let window = cfg.commit_window;
            std::thread::Builder::new()
                .name("bbs-committer".into())
                .spawn(move || committer_loop(&shared, &metrics, &draining, &rx, batch_max, window))?
        };
        let role = Arc::new(RwLock::new(match &cfg.follow {
            Some(primary) => Role::Follower {
                primary: primary.clone(),
            },
            None => Role::Primary,
        }));
        let applier_stop = Arc::new(AtomicBool::new(false));
        let applier = match &cfg.follow {
            Some(primary) => {
                let shared = Arc::clone(&shared);
                let metrics = Arc::clone(&metrics);
                let role = Arc::clone(&role);
                let stop = Arc::clone(&applier_stop);
                let primary = primary.clone();
                let poll = cfg.poll_interval;
                let auto = cfg.auto_promote;
                Some(
                    std::thread::Builder::new()
                        .name("bbs-applier".into())
                        .spawn(move || {
                            follower_loop(&shared, &metrics, &role, &stop, &primary, poll, auto)
                        })?,
                )
            }
            None => None,
        };
        let maintain_interval = cfg.maintain_interval;
        let engine = Arc::new(Engine {
            shared,
            metrics,
            ingest: tx,
            committer: Mutex::new(Some(committer)),
            draining,
            role,
            applier: Mutex::new(applier),
            applier_stop,
            cfg,
            pins: Mutex::new(Vec::new()),
            maintainer: Mutex::new(None),
            maintain_stop: Arc::new(AtomicBool::new(false)),
            fpr_probes: AtomicU64::new(0),
        });
        if let Some(interval) = maintain_interval {
            // The thread holds only a weak handle: dropping the last
            // strong `Arc<Engine>` (whose Drop joins it) must not race a
            // self-keeping cycle.
            let weak = Arc::downgrade(&engine);
            let stop = Arc::clone(&engine.maintain_stop);
            let handle = std::thread::Builder::new()
                .name("bbs-maintainer".into())
                .spawn(move || maintenance_loop(&weak, &stop, interval))?;
            *engine
                .maintainer
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = Some(handle);
        }
        Ok(engine)
    }

    /// The engine's metrics (shared with the transport layer).
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The deployment's current slice width in bits. Folds halve it and
    /// widened compactions grow it, so this tracks the live files rather
    /// than the width the server was configured with.
    pub fn width(&self) -> usize {
        self.shared.width()
    }

    /// The latest published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.snapshot()
    }

    /// Pins the latest snapshot in the bounded pin table and returns it.
    /// Re-pinning an already-pinned epoch refreshes its slot; beyond
    /// `MAX_PINS` distinct epochs the oldest pin is evicted.
    pub fn pin_snapshot(&self) -> Arc<Snapshot> {
        let snap = self.shared.snapshot();
        let mut pins = self.pins.lock().unwrap_or_else(|e| e.into_inner());
        pins.retain(|(epoch, _)| *epoch != snap.epoch());
        pins.push((snap.epoch(), Arc::clone(&snap)));
        while pins.len() > MAX_PINS {
            pins.remove(0);
            self.metrics.pin_evictions.fetch_add(1, Ordering::Relaxed);
        }
        snap
    }

    /// Looks up a pinned snapshot by epoch.  A hit refreshes the pin's
    /// recency (the table evicts least-recently-used, so an epoch a
    /// coordinator keeps reading outlives bursts of fresh pins).
    pub fn pinned(&self, epoch: u64) -> Option<Arc<Snapshot>> {
        let mut pins = self.pins.lock().unwrap_or_else(|e| e.into_inner());
        let at = pins.iter().position(|(e, _)| *e == epoch)?;
        let entry = pins.remove(at);
        let snap = Arc::clone(&entry.1);
        pins.push(entry);
        Some(snap)
    }

    /// Drops every pin: called after a compaction/fold, whose file swap
    /// makes pre-swap snapshots unservable (their row clamps and width no
    /// longer describe the live files).  A coordinator holding one gets
    /// the typed `stale pin` error and re-pins.
    fn invalidate_pins(&self) {
        let mut pins = self.pins.lock().unwrap_or_else(|e| e.into_inner());
        self.metrics
            .pin_evictions
            .fetch_add(pins.len() as u64, Ordering::Relaxed);
        pins.clear();
    }

    /// A `stale pin` miss: record it and render the typed error the
    /// caller re-pins on.
    fn stale_pin(&self, epoch: u64) -> Response {
        self.metrics.stale_pins.fetch_add(1, Ordering::Relaxed);
        Response::Err(format!(
            "stale pin: epoch {epoch} is not in the pin table (re-pin and retry)"
        ))
    }

    /// True once [`Engine::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Stops admitting inserts; queued batches still commit.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Waits for the committer (and, on a follower, the applier) to
    /// drain and exit.  Idempotent; implies [`Engine::begin_drain`].
    pub fn join(&self) {
        self.begin_drain();
        self.maintain_stop.store(true, Ordering::Release);
        reap(&self.maintainer);
        self.applier_stop.store(true, Ordering::Release);
        reap(&self.applier);
        reap(&self.committer);
    }

    /// This server's current replication role.
    pub fn role(&self) -> Role {
        self.role.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Promotes this server to primary: stops the applier, flips the
    /// role, and starts accepting writes.  Idempotent — promoting a
    /// primary is a no-op.  Returns the epoch and row count the new
    /// primary starts serving from.
    pub fn promote(&self) -> (u64, u64) {
        self.applier_stop.store(true, Ordering::Release);
        let was_follower = {
            let mut role = self.role.write().unwrap_or_else(|e| e.into_inner());
            match &*role {
                Role::Follower { .. } => {
                    *role = Role::Primary;
                    true
                }
                Role::Primary => false,
            }
        };
        if was_follower {
            self.metrics.promotions.fetch_add(1, Ordering::Relaxed);
        }
        // Join outside the role lock: the applier may be mid-poll.
        reap(&self.applier);
        let snap = self.shared.snapshot();
        (snap.epoch(), snap.rows())
    }

    /// On a follower, counts a rejected write and names the primary it
    /// belongs to; `None` on a primary.
    fn primary_elsewhere(&self) -> Option<String> {
        match &*self.role.read().unwrap_or_else(|e| e.into_inner()) {
            Role::Follower { primary } => {
                self.metrics.not_primary.fetch_add(1, Ordering::Relaxed);
                Some(primary.clone())
            }
            Role::Primary => None,
        }
    }

    /// [`Engine::insert_with_id`] without a request ID (no dedup).
    pub fn insert(&self, txns: Vec<Transaction>) -> InsertOutcome {
        self.insert_with_id(0, txns)
    }

    /// Submits a batch through the bounded queue and waits for its group
    /// commit receipt.  `req_id != 0` enrolls the batch in the
    /// exactly-once window: retrying the same ID after a lost reply
    /// returns the original receipt instead of appending again.
    pub fn insert_with_id(&self, req_id: u64, txns: Vec<Transaction>) -> InsertOutcome {
        if txns.is_empty() {
            // Nothing to commit; answer from the current epoch.
            let snap = self.shared.snapshot();
            return InsertOutcome::Committed {
                first_row: snap.rows(),
                appended: 0,
                epoch: snap.epoch(),
                deduped: false,
            };
        }
        if let Some(primary) = self.primary_elsewhere() {
            return InsertOutcome::NotPrimary(primary);
        }
        if self.is_draining() {
            self.metrics.overloaded.fetch_add(1, Ordering::Relaxed);
            return InsertOutcome::Overloaded;
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = IngestJob {
            req_id,
            txns,
            reply: reply_tx,
        };
        match self.ingest.try_send(job) {
            Ok(()) => {
                self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.metrics.overloaded.fetch_add(1, Ordering::Relaxed);
                return InsertOutcome::Overloaded;
            }
        }
        match reply_rx.recv_timeout(self.cfg.insert_timeout) {
            Ok(outcome) => outcome,
            Err(_) => InsertOutcome::Failed(format!(
                "commit receipt not received within {:?} (the batch may still commit)",
                self.cfg.insert_timeout
            )),
        }
    }

    /// `CountItemSet` against the latest snapshot.
    pub fn count(&self, items: &[u32]) -> io::Result<(u64, Arc<Snapshot>)> {
        let snap = self.shared.snapshot();
        let support = snap.count(&Itemset::from_values(items))?;
        Ok((support, snap))
    }

    /// Batched `CountItemSet`: every itemset is answered from the **same**
    /// snapshot by the cursor that mines, walking the batch's prefix trie
    /// (see [`Snapshot::count_many`]).  Supports come back in request
    /// order, identical to counting the itemsets one at a time.
    pub fn count_many(&self, itemsets: &[Vec<u32>]) -> io::Result<(Vec<u64>, Arc<Snapshot>)> {
        let snap = self.shared.snapshot();
        let sets: Vec<Itemset> = itemsets
            .iter()
            .map(|items| Itemset::from_values(items))
            .collect();
        let supports = snap.count_many(&sets)?;
        Ok((supports, snap))
    }

    /// Probes one row of the latest snapshot.
    pub fn probe(&self, row: u64) -> io::Result<Option<Transaction>> {
        self.shared.snapshot().probe(row)
    }

    /// Mines the latest snapshot in place: the filter phase walks one
    /// [`Snapshot::counter`] per worker over the slice file the snapshot
    /// has open (level 0 = its rows minus its tombstones), the threshold
    /// resolves against its live rows, and uncertain candidates settle by
    /// the one [`Snapshot::tally`] scan — for the probe schemes too, as in
    /// every other in-place tier.  What the readers did is added to the
    /// `mine_cursor` metrics.
    pub fn mine(
        &self,
        scheme: Scheme,
        threshold: SupportThreshold,
        threads: usize,
    ) -> io::Result<(MineResult, Arc<Snapshot>)> {
        let snap = self.shared.snapshot();
        let threads = resolve_threads(threads, self.cfg.mine_threads);
        let tau = threshold.resolve(snap.live_rows() as usize);
        let (filter_out, readers) = bbs_core::run_filter_source_threaded(
            || snap.counter(),
            snap.item_counts(),
            scheme.filter(),
            tau,
            threads,
        )?;
        for reader in &readers {
            self.metrics.mine_cursor.record(reader);
        }
        let result = filter_out.settle(tau, |cands| snap.tally(cands))?;
        Ok((result, snap))
    }

    /// Tombstone-deletes every live transaction holding one of `tids`,
    /// with the same exactly-once contract as inserts: a nonzero
    /// `req_id` whose delete already committed is answered from the
    /// dedup window (`deduped = true`) without re-resolving.
    pub fn delete_tids(&self, req_id: u64, tids: &[u64]) -> Response {
        if let Some(primary) = self.primary_elsewhere() {
            return Response::NotPrimary(primary);
        }
        if self.is_draining() {
            self.metrics.overloaded.fetch_add(1, Ordering::Relaxed);
            return Response::Overloaded;
        }
        if req_id != 0 {
            match self.shared.dedup_lookup(req_id) {
                Ok(Some(r)) => {
                    self.metrics.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    return Response::Ok(Reply::Delete {
                        deleted: r.appended,
                        epoch: self.shared.epoch(),
                        deduped: true,
                    });
                }
                Ok(None) => {}
                Err(e) => return Response::Err(format!("dedup lookup failed: {e}")),
            }
        }
        match self.shared.delete_tids(tids, req_id) {
            Ok(r) => Response::Ok(Reply::Delete {
                deleted: r.deleted,
                epoch: r.epoch,
                deduped: false,
            }),
            Err(e) if is_disk_full(&e) => {
                self.metrics.disk_full.fetch_add(1, Ordering::Relaxed);
                Response::DiskFull
            }
            Err(e) => Response::Err(format!("delete failed: {e}")),
        }
    }

    /// Measures the live FPR against the latest snapshot and refreshes
    /// the `last_measured_fpr` gauge.  `samples = 0` uses the configured
    /// default.
    pub fn probe_fpr(&self, samples: usize) -> io::Result<f64> {
        let samples = if samples == 0 {
            self.cfg.fpr_samples
        } else {
            samples
        };
        let seed = FPR_SEED ^ self.fpr_probes.fetch_add(1, Ordering::Relaxed);
        let fpr = self.shared.snapshot().measure_fpr(samples, seed)?;
        self.metrics
            .last_measured_fpr_bits
            .store(fpr.to_bits(), Ordering::Relaxed);
        Ok(fpr)
    }

    /// One maintenance request: probe, compact, fold, or run the policy.
    /// Compactions and folds are writer-side operations, so a follower
    /// rejects them with `NotPrimary` (its files must track the
    /// primary's); probing and `AUTO` (which degrades to a probe on a
    /// follower) are always allowed.
    fn serve_maintain(&self, action: u8, arg: u64) -> Response {
        match action {
            maintain_action::PROBE_FPR => match self.probe_fpr(arg as usize) {
                Ok(fpr) => self.maintain_reply(maintain_action::PROBE_FPR, fpr),
                Err(e) => Response::Err(format!("fpr probe failed: {e}")),
            },
            maintain_action::COMPACT | maintain_action::FOLD => {
                if let Some(primary) = self.primary_elsewhere() {
                    return Response::NotPrimary(primary);
                }
                let fpr = match self.probe_fpr(0) {
                    Ok(fpr) => fpr,
                    Err(e) => return Response::Err(format!("fpr probe failed: {e}")),
                };
                let (what, rewritten) = if action == maintain_action::FOLD {
                    ("fold", self.fold())
                } else {
                    let target = if arg == 0 { None } else { Some(arg as usize) };
                    ("compaction", self.compact(target))
                };
                match rewritten {
                    Ok(()) => self.maintain_reply(action, fpr),
                    Err(e) => Response::Err(format!("{what} failed: {e}")),
                }
            }
            maintain_action::AUTO => match self.maintain_auto(arg as usize) {
                Ok((taken, fpr)) => self.maintain_reply(taken, fpr),
                Err(e) => Response::Err(format!("maintenance failed: {e}")),
            },
            k => Response::Err(format!("unknown maintenance action {k}")),
        }
    }

    /// Compacts the deployment (re-hashing at `target` bits when given),
    /// counts it, and drops the pins the file swap made unservable.
    fn compact(&self, target: Option<usize>) -> io::Result<()> {
        self.shared.compact(target)?;
        self.metrics
            .maintenance_compactions
            .fetch_add(1, Ordering::Relaxed);
        self.invalidate_pins();
        Ok(())
    }

    /// Folds the width in half, with the bookkeeping of [`Engine::compact`].
    fn fold(&self) -> io::Result<()> {
        self.shared.fold()?;
        self.metrics
            .maintenance_folds
            .fetch_add(1, Ordering::Relaxed);
        self.invalidate_pins();
        Ok(())
    }

    fn maintain_reply(&self, action_taken: u8, fpr: f64) -> Response {
        let snap = self.shared.snapshot();
        Response::Ok(Reply::Maintain {
            action_taken,
            width: self.shared.width() as u32,
            live_rows: snap.live_rows(),
            deleted_rows: snap.deleted_rows(),
            fpr_bits: fpr.to_bits(),
        })
    }

    /// One evaluation of the maintenance policy.  Returns the action it
    /// took (`PROBE_FPR` when it changed nothing) and the FPR measured
    /// *before* acting.  In priority order:
    ///
    /// 1. FPR above `fpr_hi` → compact re-hashing at **double** the
    ///    width, which both drops tombstones and pulls the collision
    ///    rate back down.
    /// 2. Tombstoned fraction above `dead_fraction_hi` → compact at the
    ///    current width to reclaim the dead rows.
    /// 3. FPR below `fpr_lo` with width foldable → fold, halving the
    ///    index's footprint while staying under the ceiling.
    ///
    /// A follower only probes: its files must track the primary's.
    pub fn maintain_auto(&self, samples: usize) -> io::Result<(u8, f64)> {
        self.metrics
            .maintenance_runs
            .fetch_add(1, Ordering::Relaxed);
        let fpr = self.probe_fpr(samples)?;
        if !matches!(self.role(), Role::Primary) {
            return Ok((maintain_action::PROBE_FPR, fpr));
        }
        let snap = self.shared.snapshot();
        let width = self.shared.width();
        if fpr > self.cfg.fpr_hi && snap.live_rows() > 0 {
            self.compact(Some(width * 2))?;
            return Ok((maintain_action::COMPACT, fpr));
        }
        let rows = snap.rows();
        if rows > 0 && snap.deleted_rows() as f64 / rows as f64 >= self.cfg.dead_fraction_hi {
            self.compact(None)?;
            return Ok((maintain_action::COMPACT, fpr));
        }
        if fpr < self.cfg.fpr_lo
            && width.is_multiple_of(2)
            && width / 2 >= self.cfg.min_width
            && snap.live_rows() > 0
        {
            self.fold()?;
            return Ok((maintain_action::FOLD, fpr));
        }
        Ok((maintain_action::PROBE_FPR, fpr))
    }

    /// Renders the stats document: wire metrics plus engine/storage state.
    pub fn stats_json(&self) -> String {
        let snap = self.shared.snapshot();
        let profile = self.shared.writer_profile();
        let (role_name, primary_addr) = match self.role() {
            Role::Primary => ("primary", String::new()),
            Role::Follower { primary } => ("follower", primary),
        };
        let extra = vec![
            format!("\"epoch\":{}", snap.epoch()),
            format!("\"rows\":{}", snap.rows()),
            format!("\"role\":\"{role_name}\""),
            format!("\"primary_addr\":\"{primary_addr}\""),
            format!("\"committed_seq\":{}", self.shared.committed_seq()),
            format!("\"queue_capacity\":{}", self.cfg.queue_capacity),
            format!("\"batch_max\":{}", self.cfg.batch_max),
            format!(
                "\"commit_window_ms\":{}",
                self.cfg.commit_window.as_millis()
            ),
            format!("\"dedup_window\":{}", self.cfg.dedup_window),
            format!("\"draining\":{}", self.is_draining()),
            format!("\"writer_poisoned\":{}", self.shared.writer_poisoned()),
            format!("\"writer_heals\":{}", self.shared.writer_heals()),
            format!("\"width\":{}", self.shared.width()),
            format!("\"live_rows\":{}", snap.live_rows()),
            format!("\"deleted_rows\":{}", snap.deleted_rows()),
            format!("\"mine_cursor\":{}", self.metrics.mine_cursor.to_json()),
            format!("\"commits\":{}", profile.commits),
            format!("\"appended\":{}", profile.appended),
            format!("\"committed_rows\":{}", profile.committed_rows),
            format!("\"deletes\":{}", profile.deletes),
            format!(
                "\"writer_pager\":{{\"reads\":{},\"writes\":{},\"checksum_reads\":{},\"checksum_writes\":{}}}",
                profile.pager.reads,
                profile.pager.writes,
                profile.pager.checksum_reads,
                profile.pager.checksum_writes
            ),
            format!(
                "\"writer_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{}}}",
                profile.cache.hits, profile.cache.misses, profile.cache.evictions
            ),
        ];
        self.metrics.to_json(&extra)
    }

    /// Executes one decoded request and produces its response, recording
    /// per-endpoint metrics.  [`Request::Shutdown`] only marks the engine
    /// draining — the transport layer watches [`Engine::is_draining`] and
    /// owns socket teardown.
    pub fn handle(&self, req: &Request) -> Response {
        RequestHandler::handle(self, req)
    }

    pub(crate) fn dispatch(&self, req: &Request) -> Response {
        match req {
            Request::Ping => Response::Ok(Reply::Pong),
            Request::Insert { req_id, txns } => {
                let txns: Vec<Transaction> = txns
                    .iter()
                    .map(|(tid, items)| Transaction::new(*tid, Itemset::from_values(items)))
                    .collect();
                match self.insert_with_id(*req_id, txns) {
                    InsertOutcome::Committed {
                        first_row,
                        appended,
                        epoch,
                        deduped,
                    } => Response::Ok(Reply::Insert {
                        first_row,
                        appended,
                        epoch,
                        deduped,
                    }),
                    InsertOutcome::Overloaded => Response::Overloaded,
                    InsertOutcome::DiskFull => Response::DiskFull,
                    InsertOutcome::NotPrimary(primary) => Response::NotPrimary(primary),
                    InsertOutcome::Failed(msg) => Response::Err(msg),
                }
            }
            Request::Mine {
                scheme,
                threshold,
                threads,
            } => match self.mine(*scheme, *threshold, usize::from(*threads)) {
                Ok((result, snap)) => {
                    Response::Ok(mine_reply(&result, snap.epoch(), snap.rows()))
                }
                Err(e) => Response::Err(format!("mine failed: {e}")),
            },
            Request::Probe { row } => match self.probe(*row) {
                Ok(txn) => Response::Ok(Reply::Probe {
                    txn: txn.as_ref().map(wire_txn),
                }),
                Err(e) => Response::Err(format!("probe failed: {e}")),
            },
            Request::Stats => Response::Ok(Reply::Stats {
                json: self.stats_json(),
            }),
            Request::Replicate {
                from_row,
                from_dseq,
                max_entries,
            } => self.serve_replicate(*from_row, *from_dseq, *max_entries),
            Request::Delete { req_id, tids } => self.delete_tids(*req_id, tids),
            Request::Maintain { action, arg } => self.serve_maintain(*action, *arg),
            Request::Promote => {
                let (epoch, rows) = self.promote();
                Response::Ok(Reply::Promoted { epoch, rows })
            }
            Request::Shutdown => {
                self.begin_drain();
                Response::Ok(Reply::ShuttingDown)
            }
            Request::CountMany { itemsets } => {
                if !admit_count_many(&self.metrics, itemsets) {
                    return Response::Overloaded;
                }
                match self.count_many(itemsets) {
                    Ok((supports, snap)) => Response::Ok(Reply::CountMany {
                        supports,
                        epoch: snap.epoch(),
                        rows: snap.rows(),
                    }),
                    Err(e) => Response::Err(format!("count_many failed: {e}")),
                }
            }
            Request::CountManyAt { epoch, itemsets } => {
                if !admit_count_many(&self.metrics, itemsets) {
                    return Response::Overloaded;
                }
                let snap = match epoch {
                    None => self.pin_snapshot(),
                    Some(e) => match self.pinned(*e) {
                        Some(snap) => snap,
                        None => return self.stale_pin(*e),
                    },
                };
                let sets: Vec<Itemset> = itemsets
                    .iter()
                    .map(|items| Itemset::from_values(items))
                    .collect();
                match snap.count_many(&sets) {
                    Ok(supports) => Response::Ok(Reply::CountsAt {
                        epoch: snap.epoch(),
                        rows: snap.rows(),
                        // The live width, not the configured one: a fold
                        // may have halved it since this engine was opened.
                        width: self.shared.width() as u32,
                        // So a coordinator can refuse a mismatched shard.
                        hasher: snap.hasher().id(),
                        supports,
                    }),
                    Err(e) => Response::Err(format!("count_many_at failed: {e}")),
                }
            }
            Request::Rows { epoch, from, limit } => {
                let Some(snap) = self.pinned(*epoch) else {
                    return self.stale_pin(*epoch);
                };
                // Tombstoned rows are examined and skipped, so a run of
                // them answers with no rows but a `next` past it.
                let cap = (*limit as u64).clamp(1, ROWS_MAX_PER_REPLY);
                let end = from.saturating_add(cap).min(snap.rows());
                let mut txns: Vec<(u64, Vec<u32>)> = Vec::new();
                let mut bytes = 0usize;
                let mut row = *from;
                while row < end && bytes < ROWS_MAX_BYTES {
                    match snap.probe(row) {
                        Ok(Some(t)) => {
                            bytes += 10 + 4 * t.items.len();
                            txns.push(wire_txn(&t));
                        }
                        Ok(None) => {}
                        Err(e) => return Response::Err(format!("rows read failed: {e}")),
                    }
                    row += 1;
                }
                Response::Ok(Reply::Rows {
                    total: snap.rows(),
                    next: row,
                    txns,
                })
            }
        }
    }

    /// Serves one `replicate` pull from the on-disk log: entries covering
    /// `from_row` onward, capped by the server's entry/byte budgets and by
    /// the committed sequence number (synced-but-uncommitted debris is
    /// never streamed).
    ///
    /// Reading is stateless and lock-free with respect to the writer: the
    /// row count is read *before* the committed-seq cap, so every entry
    /// the cap admits is on disk by the time the file is scanned.
    fn serve_replicate(&self, from_row: u64, from_dseq: u64, max_entries: u32) -> Response {
        let rows = self.shared.snapshot().rows();
        let upto_seq = self.shared.committed_seq();
        let dseq = match self.shared.log_delete_entries() {
            Ok(d) => d,
            Err(e) => return Response::Err(format!("replication log read failed: {e}")),
        };
        if from_row > rows || from_dseq > dseq {
            // The follower's cursor is ahead of this primary: it streamed
            // from a pre-compaction log whose numbering no longer exists.
            // Served silently this would stall (or skip deletes) forever.
            return Response::Err(format!(
                "replication cursor (row {from_row}, delete entry {from_dseq}) is ahead of \
                 the primary ({rows} rows, {dseq} delete entries) — the log was rewritten; \
                 follower must resync from a fresh copy"
            ));
        }
        let paths = deployment_paths(self.shared.base());
        let cap = (max_entries as usize).clamp(1, REPLICATE_MAX_ENTRIES);
        let read = match read_entries(
            &paths.log,
            from_row,
            from_dseq,
            cap,
            REPLICATE_MAX_BYTES,
            upto_seq,
        ) {
            Ok(read) => read,
            Err(e) => return Response::Err(format!("replication log read failed: {e}")),
        };
        if let Some(first) = read.entries.first() {
            if first.first_row != from_row {
                return Response::Err(format!(
                    "replication log cannot serve row {from_row}: next entry starts at row {} \
                     (follower must resync from a fresh copy)",
                    first.first_row
                ));
            }
        } else if from_row < rows {
            return Response::Err(format!(
                "replication log no longer covers row {from_row} (log starts at row {}); \
                 follower must resync from a fresh copy",
                read.start_row
            ));
        }
        let entries: Vec<LogEntry> = read
            .entries
            .into_iter()
            .map(|e| {
                let txns = e.txns.iter().map(wire_txn).collect();
                (e.first_row, txns, e.receipts, e.deletes)
            })
            .collect();
        Response::Ok(Reply::LogEntries { rows, entries })
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.join();
    }
}

/// Takes a background thread's handle out of its slot and joins it (a
/// no-op once taken, so joining twice is harmless).
fn reap(slot: &Mutex<Option<JoinHandle<()>>>) {
    let handle = slot.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(h) = handle {
        h.join().ok();
    }
}

/// How the committer decided to answer one job of a batch.
enum Disposition {
    /// Freshly appended at `offset..offset+len` within this batch.
    Append { offset: u64, len: u64 },
    /// Already durable from an earlier commit: reply the stored receipt.
    Window { first_row: u64, appended: u64 },
    /// Duplicate of a job appended earlier in this same batch: reply that
    /// twin's rows.
    SameBatch { offset: u64, len: u64 },
    /// The dedup lookup itself failed; the job was not appended.
    LookupFailed(String),
}

/// The committer thread: drain → dedup → coalesce → one group commit →
/// fan receipts back out.
fn committer_loop(
    shared: &SharedDeployment,
    metrics: &ServerMetrics,
    draining: &AtomicBool,
    rx: &mpsc::Receiver<IngestJob>,
    batch_max: usize,
    window: Duration,
) {
    loop {
        let first = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => {
                if draining.load(Ordering::Acquire) {
                    // Nothing queued for a full tick while draining: done.
                    return;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let mut jobs = vec![first];
        let mut total = jobs[0].txns.len();
        if !window.is_zero() {
            // Keep gathering until the window closes or the batch fills.
            let deadline = Instant::now() + window;
            while total < batch_max {
                match rx.try_recv() {
                    Ok(job) => {
                        total += job.txns.len();
                        jobs.push(job);
                    }
                    Err(mpsc::TryRecvError::Disconnected) => break,
                    Err(mpsc::TryRecvError::Empty) => {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        match rx.recv_timeout(deadline - now) {
                            Ok(job) => {
                                total += job.txns.len();
                                jobs.push(job);
                            }
                            Err(_) => break,
                        }
                    }
                }
            }
        }
        metrics
            .queue_depth
            .fetch_sub(jobs.len() as u64, Ordering::Relaxed);

        // Classify every job against the exactly-once window before
        // touching the files: retries are answered with their original
        // receipt, duplicates inside one batch collapse to a single
        // append.
        let mut txns = Vec::with_capacity(total);
        let mut receipts: Vec<(u64, u64, u64)> = Vec::new();
        let mut dispositions: Vec<Disposition> = Vec::with_capacity(jobs.len());
        let mut in_batch: HashMap<u64, (u64, u64)> = HashMap::new();
        for job in &jobs {
            if job.req_id != 0 {
                match shared.dedup_lookup(job.req_id) {
                    Ok(Some(r)) => {
                        metrics.dedup_hits.fetch_add(1, Ordering::Relaxed);
                        dispositions.push(Disposition::Window {
                            first_row: r.first_row,
                            appended: r.appended,
                        });
                        continue;
                    }
                    Ok(None) => {}
                    Err(e) => {
                        dispositions
                            .push(Disposition::LookupFailed(format!("dedup lookup failed: {e}")));
                        continue;
                    }
                }
                if let Some(&(offset, len)) = in_batch.get(&job.req_id) {
                    metrics.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    dispositions.push(Disposition::SameBatch { offset, len });
                    continue;
                }
            }
            let offset = txns.len() as u64;
            let len = job.txns.len() as u64;
            txns.extend(job.txns.iter().cloned());
            if job.req_id != 0 {
                in_batch.insert(job.req_id, (offset, len));
                receipts.push((job.req_id, offset, len));
            }
            dispositions.push(Disposition::Append { offset, len });
        }

        if txns.is_empty() {
            // Every job was answered from the window; nothing to commit.
            let epoch = shared.epoch();
            for (job, disp) in jobs.into_iter().zip(dispositions) {
                job.reply.try_send(outcome_without_commit(disp, epoch)).ok();
            }
            continue;
        }

        let start = Instant::now();
        match shared.commit_with(&txns, &receipts) {
            Ok(receipt) => {
                let us = micros_since(start);
                metrics.commit_us.record(us);
                metrics.batch_size.record(txns.len() as u64);
                for (job, disp) in jobs.into_iter().zip(dispositions) {
                    let outcome = match disp {
                        Disposition::Append { offset, len }
                        | Disposition::SameBatch { offset, len } => {
                            let deduped = matches!(disp, Disposition::SameBatch { .. });
                            InsertOutcome::Committed {
                                first_row: receipt.rows.start + offset,
                                appended: len,
                                epoch: receipt.epoch,
                                deduped,
                            }
                        }
                        Disposition::Window {
                            first_row,
                            appended,
                        } => InsertOutcome::Committed {
                            first_row,
                            appended,
                            epoch: receipt.epoch,
                            deduped: true,
                        },
                        Disposition::LookupFailed(msg) => InsertOutcome::Failed(msg),
                    };
                    // The producer may have timed out and gone; ignore.
                    job.reply.try_send(outcome).ok();
                }
            }
            Err(e) => {
                let disk_full = is_disk_full(&e);
                if disk_full {
                    metrics.disk_full.fetch_add(1, Ordering::Relaxed);
                }
                let msg = format!("group commit failed: {e}");
                let epoch = shared.epoch();
                for (job, disp) in jobs.into_iter().zip(dispositions) {
                    let outcome = match disp {
                        // Window hits were durable before this commit ever
                        // started: answer them regardless of its failure.
                        Disposition::Window { .. } | Disposition::LookupFailed(_) => {
                            outcome_without_commit(disp, epoch)
                        }
                        _ if disk_full => InsertOutcome::DiskFull,
                        _ => InsertOutcome::Failed(msg.clone()),
                    };
                    job.reply.try_send(outcome).ok();
                }
            }
        }
    }
}

/// Sleeps for `total`, waking early (in ~10 ms ticks) if `stop` flips —
/// so a promotion never waits out a full poll interval.
fn sleep_unless_stopped(stop: &AtomicBool, total: Duration) {
    let deadline = Instant::now() + total;
    while !stop.load(Ordering::Acquire) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(Duration::from_millis(10)));
    }
}

/// The follower's applier thread: pull the primary's replication log from
/// the local row count forward, apply each entry through the normal
/// commit path (receipts included, so the exactly-once window replicates
/// too), and keep the lag gauge current.  On sustained primary loss with
/// `auto_promote` set, flips the role to primary and exits.
fn follower_loop(
    shared: &SharedDeployment,
    metrics: &ServerMetrics,
    role: &RwLock<Role>,
    stop: &AtomicBool,
    primary: &str,
    poll: Duration,
    auto_promote: Option<Duration>,
) {
    let mut conn: Option<Client> = None;
    let mut last_contact = Instant::now();
    while !stop.load(Ordering::Acquire) {
        if conn.is_none() {
            if let Ok(mut c) = Client::connect_tcp(primary) {
                c.set_timeout(Some(Duration::from_secs(5))).ok();
                conn = Some(c);
            }
        }
        let local_rows = shared.snapshot().rows();
        // The delete cursor comes from this node's own log: every applied
        // delete entry was re-logged locally, so the count survives
        // restarts without separate cursor state.
        let local_dseq = match shared.log_delete_entries() {
            Ok(d) => d,
            Err(_) => {
                sleep_unless_stopped(stop, poll);
                continue;
            }
        };
        let pulled = match conn.as_mut() {
            Some(c) => c.replicate(local_rows, local_dseq, REPLICATE_MAX_ENTRIES as u32),
            None => Err(crate::client::ClientError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                "primary unreachable",
            ))),
        };
        match pulled {
            Ok(reply) => {
                last_contact = Instant::now();
                let mut applied_rows = 0u64;
                let mut healthy = true;
                for (first_row, txns, receipts, deletes) in &reply.entries {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    if *first_row != shared.snapshot().rows() {
                        // A non-contiguous entry means this pull raced a
                        // concurrent apply (or the stream desynced): drop
                        // it and re-pull from the authoritative row count.
                        // Delete entries carry the primary's row count at
                        // delete time, so the same check covers them.
                        healthy = false;
                        break;
                    }
                    let t0 = Instant::now();
                    let applied = if !deletes.is_empty() {
                        // A delete entry: tombstone exactly the rows the
                        // primary did, carrying its exactly-once receipts
                        // (req_id → deleted count) into the local window.
                        let dr: Vec<(u64, u64)> =
                            receipts.iter().map(|&(id, _, n)| (id, n)).collect();
                        shared.delete_rows(deletes, &dr).map(|_| 0u64)
                    } else {
                        let txns: Vec<Transaction> = txns
                            .iter()
                            .map(|(tid, items)| {
                                Transaction::new(*tid, Itemset::from_values(items))
                            })
                            .collect();
                        let n = txns.len() as u64;
                        shared.commit_with(&txns, receipts).map(|_| n)
                    };
                    match applied {
                        Ok(n) => {
                            metrics.follower_apply_us.record(micros_since(t0));
                            metrics
                                .follower_applied_batches
                                .fetch_add(1, Ordering::Relaxed);
                            applied_rows += n;
                        }
                        Err(_) => {
                            healthy = false;
                            break;
                        }
                    }
                }
                if applied_rows > 0 {
                    metrics.follower_pull_rows.record(applied_rows);
                }
                let lag = reply.rows.saturating_sub(shared.snapshot().rows());
                metrics.replication_lag_rows.store(lag, Ordering::Relaxed);
                if !healthy || lag == 0 {
                    sleep_unless_stopped(stop, poll);
                }
                // else: still behind — pull the next chunk immediately.
            }
            Err(e) => {
                if let crate::client::ClientError::Server(msg) = &e {
                    // A typed error proves the primary is alive.  When it
                    // says the log cannot serve our cursor — the primary
                    // compacted (row numbering restarted) or its log was
                    // truncated past us — wipe and resync from row 0: the
                    // compaction staged a complete bootstrap log, so the
                    // next pulls rebuild this follower verbatim.
                    last_contact = Instant::now();
                    if msg.contains("resync") && shared.reset_files().is_ok() {
                        metrics.follower_resyncs.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    sleep_unless_stopped(stop, poll);
                    continue;
                }
                conn = None;
                if !matches!(e, crate::client::ClientError::Server(_)) {
                    // Transport-level loss counts toward primary-loss; a
                    // typed server error proves the primary is alive.
                    if let Some(limit) = auto_promote {
                        if last_contact.elapsed() >= limit {
                            let mut r = role.write().unwrap_or_else(|p| p.into_inner());
                            if matches!(*r, Role::Follower { .. }) {
                                *r = Role::Primary;
                                metrics.promotions.fetch_add(1, Ordering::Relaxed);
                                metrics.replication_lag_rows.store(0, Ordering::Relaxed);
                            }
                            return;
                        }
                    }
                }
                sleep_unless_stopped(stop, poll);
            }
        }
    }
}

/// The background maintenance thread: every `interval`, run one policy
/// evaluation ([`Engine::maintain_auto`]) against the engine.  Holds only
/// a weak handle so the engine's `Drop` (which joins this thread) can
/// run; exits as soon as the engine is gone or the stop flag flips.
fn maintenance_loop(engine: &Weak<Engine>, stop: &AtomicBool, interval: Duration) {
    loop {
        sleep_unless_stopped(stop, interval);
        if stop.load(Ordering::Acquire) {
            return;
        }
        let Some(engine) = engine.upgrade() else {
            return;
        };
        if engine.is_draining() {
            return;
        }
        // Policy failures are recorded (the writer heals itself on the
        // next write) and the loop keeps ticking.
        engine.maintain_auto(0).ok();
    }
}

/// The outcome for a job that needed no append of its own (`Window` or
/// `LookupFailed`), stamped with the current epoch.
fn outcome_without_commit(disp: Disposition, epoch: u64) -> InsertOutcome {
    match disp {
        Disposition::Window {
            first_row,
            appended,
        } => InsertOutcome::Committed {
            first_row,
            appended,
            epoch,
            deduped: true,
        },
        Disposition::LookupFailed(msg) => InsertOutcome::Failed(msg),
        Disposition::Append { .. } | Disposition::SameBatch { .. } => {
            unreachable!("append dispositions always ride a commit")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_storage::diskbbs::DiskDeployment;
    use bbs_storage::{FaultPlan, SharedFaultPlan};
    use std::path::PathBuf;

    fn base(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bbs_engine_{}_{}", std::process::id(), name));
        p
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            DiskDeployment::remove_files(&self.0).ok();
        }
    }

    fn cfg() -> ServerConfig {
        ServerConfig {
            cache_pages: 128,
            queue_capacity: 8,
            ..ServerConfig::default()
        }
    }

    fn committed(outcome: InsertOutcome) -> (u64, u64, u64, bool) {
        match outcome {
            InsertOutcome::Committed {
                first_row,
                appended,
                epoch,
                deduped,
            } => (first_row, appended, epoch, deduped),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn resolve_threads_prefers_the_request_and_never_exceeds_the_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_threads(0, 0), cores);
        assert_eq!(resolve_threads(1, 0), 1);
        assert_eq!(resolve_threads(1, 65535), 1, "the request wins");
        assert_eq!(resolve_threads(0, 1), 1, "then the configured default");
        assert_eq!(resolve_threads(65535, 0), cores);
        assert_eq!(resolve_threads(0, 65535), cores);
        assert_eq!(resolve_threads(65535, 1), cores);
    }

    #[test]
    fn insert_then_count_probe_mine() {
        let b = base("basic");
        let _g = Cleanup(b.clone());
        let engine = Engine::open(&b, cfg()).expect("open");

        let txns: Vec<Transaction> = (0..20)
            .map(|i| {
                Transaction::new(
                    i,
                    Itemset::from_values(if i % 2 == 0 { &[1, 2] } else { &[1, 3] }),
                )
            })
            .collect();
        let (first_row, appended, epoch, deduped) = committed(engine.insert(txns));
        assert_eq!((first_row, appended, deduped), (0, 20, false));
        assert!(epoch >= 1);

        let (support, snap) = engine.count(&[1]).expect("count");
        assert_eq!(support, 20);
        assert_eq!(snap.rows(), 20);

        let probed = engine.probe(3).expect("probe").expect("present");
        assert_eq!(probed.tid.0, 3);
        assert_eq!(engine.probe(20).expect("probe"), None);

        let (result, _) = engine
            .mine(Scheme::Dfp, SupportThreshold::Count(10), 2)
            .expect("mine");
        assert_eq!(result.patterns.support(&Itemset::from_values(&[1, 2])), Some(10));
        assert_eq!(result.patterns.support(&Itemset::from_values(&[1])), Some(20));
    }

    #[test]
    fn handle_dispatches_and_records_metrics() {
        let b = base("handle");
        let _g = Cleanup(b.clone());
        let engine = Engine::open(&b, cfg()).expect("open");

        assert_eq!(engine.handle(&Request::Ping), Response::Ok(Reply::Pong));
        let resp = engine.handle(&Request::Insert {
            req_id: 0,
            txns: vec![(0, vec![4, 5]), (1, vec![4])],
        });
        assert!(matches!(resp, Response::Ok(Reply::Insert { appended: 2, .. })));
        let resp = engine.handle(&Request::CountMany {
            itemsets: vec![vec![4]],
        });
        match resp {
            Response::Ok(Reply::CountMany { supports, rows, .. }) => {
                assert_eq!((supports, rows), (vec![2], 2));
            }
            other => panic!("unexpected: {other:?}"),
        }
        let m = engine.metrics();
        assert_eq!(m.count_many.requests.load(Ordering::Relaxed), 1);
        assert_eq!(m.insert.requests.load(Ordering::Relaxed), 1);
        assert_eq!(m.count_many.latency_us.count(), 1);

        let resp = engine.handle(&Request::Stats);
        match resp {
            Response::Ok(Reply::Stats { json }) => {
                assert!(json.contains("\"rows\":2"));
                assert!(json.contains("\"commits\":1"));
                assert!(json.contains("\"dedup_hits\":0"));
                assert!(json.contains("\"disk_full\":0"));
                assert!(json.contains("\"commit_window_ms\":50"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn count_many_matches_per_op_and_admits_by_work() {
        let b = base("count_many");
        let _g = Cleanup(b.clone());
        let engine = Engine::open(&b, cfg()).expect("open");
        let txns: Vec<Transaction> = (0..30)
            .map(|i| {
                Transaction::new(
                    i,
                    Itemset::from_values(if i % 3 == 0 { &[1, 2, 5] } else { &[1, 4] }),
                )
            })
            .collect();
        committed(engine.insert(txns));

        let itemsets: Vec<Vec<u32>> =
            vec![vec![1], vec![1, 2], vec![2, 5], vec![], vec![9]];
        let resp = engine.handle(&Request::CountMany {
            itemsets: itemsets.clone(),
        });
        let (supports, rows) = match resp {
            Response::Ok(Reply::CountMany { supports, rows, .. }) => (supports, rows),
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(rows, 30);
        assert_eq!(supports.len(), itemsets.len());
        for (i, items) in itemsets.iter().enumerate() {
            let (solo, _) = engine.count(items).expect("count");
            assert_eq!(supports[i], solo, "itemset {items:?}");
        }
        let m = engine.metrics();
        assert_eq!(m.count_many.requests.load(Ordering::Relaxed), 1);
        assert_eq!(m.count_many.latency_us.count(), 1);
        assert_eq!(m.count_many_batch.count(), 1);
        assert_eq!(m.count_many_batch.max(), itemsets.len() as u64);

        // A batch whose total item count exceeds the work cap is rejected
        // by admission control, not served as "one request".
        let huge: Vec<Vec<u32>> = (0..=(COUNT_MANY_MAX_WORK as u32 / 4))
            .map(|i| vec![i, i + 1, i + 2, i + 3])
            .collect();
        let resp = engine.handle(&Request::CountMany { itemsets: huge });
        assert_eq!(resp, Response::Overloaded);
        assert!(m.overloaded.load(Ordering::Relaxed) >= 1);

        let json = engine.stats_json();
        assert!(json.contains("\"count_many\":{\"requests\":2"));
        assert!(json.contains("\"count_many_batch\":{\"count\":1"));
    }

    #[test]
    fn draining_rejects_new_inserts_but_commits_queued() {
        let b = base("drain");
        let _g = Cleanup(b.clone());
        let engine = Engine::open(&b, cfg()).expect("open");
        let outcome = engine.insert(vec![Transaction::new(0, Itemset::from_values(&[9]))]);
        assert!(matches!(outcome, InsertOutcome::Committed { .. }));
        engine.begin_drain();
        let outcome = engine.insert(vec![Transaction::new(1, Itemset::from_values(&[9]))]);
        assert_eq!(outcome, InsertOutcome::Overloaded);
        assert!(engine.metrics().overloaded.load(Ordering::Relaxed) >= 1);
        engine.join();
        // Reads still serve after the drain.
        let (support, _) = engine.count(&[9]).expect("count");
        assert_eq!(support, 1);
    }

    #[test]
    fn group_commit_coalesces_concurrent_producers() {
        let b = base("coalesce");
        let _g = Cleanup(b.clone());
        let engine = Engine::open(&b, cfg()).expect("open");
        let n_threads = 8;
        let per = 25u64;
        let mut handles = Vec::new();
        for t in 0..n_threads {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                let txns: Vec<Transaction> = (0..per)
                    .map(|i| Transaction::new(t * per + i, Itemset::from_values(&[7])))
                    .collect();
                engine.insert(txns)
            }));
        }
        let mut rows_seen = Vec::new();
        for h in handles {
            let (first_row, appended, _, _) = committed(h.join().expect("join"));
            assert_eq!(appended, per);
            rows_seen.push(first_row);
        }
        // Receipts tile the row space exactly: disjoint consecutive ranges.
        rows_seen.sort_unstable();
        for (i, &r) in rows_seen.iter().enumerate() {
            assert_eq!(r, i as u64 * per);
        }
        let (support, snap) = engine.count(&[7]).expect("count");
        assert_eq!(support, n_threads * per);
        assert_eq!(snap.rows(), n_threads * per);
        // Fewer commits than producers proves coalescing happened — or at
        // worst equal, when the committer never found a second job waiting.
        let profile_commits = engine.metrics().batch_size.count();
        assert!(profile_commits <= n_threads);
    }

    #[test]
    fn commit_window_zero_gives_one_batch_per_commit() {
        let b = base("window0");
        let _g = Cleanup(b.clone());
        let engine = Engine::open(
            &b,
            ServerConfig {
                commit_window: Duration::ZERO,
                ..cfg()
            },
        )
        .expect("open");
        let n_threads = 6u64;
        let per = 4u64;
        let mut handles = Vec::new();
        for t in 0..n_threads {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                let txns: Vec<Transaction> = (0..per)
                    .map(|i| Transaction::new(t * per + i, Itemset::from_values(&[3])))
                    .collect();
                engine.insert(txns)
            }));
        }
        for h in handles {
            let (_, appended, _, _) = committed(h.join().expect("join"));
            assert_eq!(appended, per);
        }
        // Window 0 never coalesces: exactly one commit per producer batch,
        // and every commit is exactly one batch wide.
        let batches = &engine.metrics().batch_size;
        assert_eq!(batches.count(), n_threads);
        assert_eq!(batches.max(), per);
        assert_eq!(batches.sum(), n_threads * per);
    }

    #[test]
    fn duplicate_request_id_returns_original_receipt() {
        let b = base("dedup");
        let _g = Cleanup(b.clone());
        let engine = Engine::open(&b, cfg()).expect("open");
        let txns: Vec<Transaction> = (0..3)
            .map(|i| Transaction::new(i, Itemset::from_values(&[8])))
            .collect();

        let (first_row, appended, _, deduped) = committed(engine.insert_with_id(42, txns.clone()));
        assert_eq!((first_row, appended, deduped), (0, 3, false));

        // Same request ID again — e.g. a client retry after a lost reply.
        let (first_row, appended, _, deduped) = committed(engine.insert_with_id(42, txns));
        assert_eq!((first_row, appended, deduped), (0, 3, true));

        // Nothing was appended twice.
        let (support, snap) = engine.count(&[8]).expect("count");
        assert_eq!((support, snap.rows()), (3, 3));
        assert_eq!(engine.metrics().dedup_hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn retry_after_timeout_and_restart_is_answered_from_window() {
        let b = base("retry");
        let _g = Cleanup(b.clone());
        let txns: Vec<Transaction> = (0..5)
            .map(|i| Transaction::new(i, Itemset::from_values(&[6])))
            .collect();
        {
            // A receipt timeout so short the reply is (almost always)
            // lost — the wire-level analogue of a dropped connection or a
            // crash between commit and reply.  The commit itself lands.
            let engine = Engine::open(
                &b,
                ServerConfig {
                    insert_timeout: Duration::from_nanos(1),
                    commit_window: Duration::ZERO,
                    ..cfg()
                },
            )
            .expect("open");
            let _ = engine.insert_with_id(7, txns.clone());
            let deadline = Instant::now() + Duration::from_secs(10);
            while engine.snapshot().rows() < 5 {
                assert!(Instant::now() < deadline, "commit never landed");
                std::thread::sleep(Duration::from_millis(5));
            }
            engine.join();
        }
        // New process, same deployment: the window was persisted with the
        // commit record, so the retry is a dedup hit, not a second append.
        let engine = Engine::open(&b, cfg()).expect("reopen");
        let (first_row, appended, _, deduped) = committed(engine.insert_with_id(7, txns));
        assert_eq!((first_row, appended, deduped), (0, 5, true));
        let (support, snap) = engine.count(&[6]).expect("count");
        assert_eq!((support, snap.rows()), (5, 5));
    }

    /// A snapshot pin is a `COUNT_MANY_AT` with no epoch and no itemsets;
    /// its reply names the deployment's own hasher and live width.
    #[test]
    fn snapshot_pin_names_the_hasher_the_deployment_was_opened_with() {
        let b = base("pin_hasher");
        let _g = Cleanup(b.clone());
        let hasher: Arc<dyn ItemHasher> = Arc::new(bbs_hash::ModuloHasher);
        let shared = SharedDeployment::open(&b, 64, hasher, 128).expect("open");
        let engine = Engine::with_shared(shared, cfg()).expect("engine");
        let pin = Request::CountManyAt {
            epoch: None,
            itemsets: vec![],
        };
        match engine.handle(&pin) {
            Response::Ok(Reply::CountsAt {
                hasher,
                width,
                supports,
                ..
            }) => assert_eq!((hasher.as_str(), width, supports), ("mod/1", 64, vec![])),
            other => panic!("unexpected: {other:?}"),
        }
        engine.join();
    }

    #[test]
    fn disk_full_is_typed_and_recoverable() {
        let b = base("diskfull");
        let _g = Cleanup(b.clone());
        let plan: SharedFaultPlan = FaultPlan::counting();
        let hasher: Arc<dyn ItemHasher> = Arc::new(Md5BloomHasher::new(4));
        let shared =
            SharedDeployment::open_faulty(&b, 64, hasher, 128, plan.clone()).expect("open");
        let engine = Engine::with_shared(shared, cfg()).expect("engine");

        let txn = |i: u64| vec![Transaction::new(i, Itemset::from_values(&[2]))];
        assert!(matches!(
            engine.insert_with_id(1, txn(0)),
            InsertOutcome::Committed { deduped: false, .. }
        ));

        plan.set_disk_full(true);
        assert_eq!(engine.insert_with_id(2, txn(1)), InsertOutcome::DiskFull);
        assert!(engine.metrics().disk_full.load(Ordering::Relaxed) >= 1);
        // Reads keep serving the committed prefix.
        let (support, snap) = engine.count(&[2]).expect("count");
        assert_eq!((support, snap.rows()), (1, 1));
        // A retry of the *committed* request is still answered from the
        // window even while the disk is full.
        let (first_row, appended, _, deduped) = committed(engine.insert_with_id(1, txn(0)));
        assert_eq!((first_row, appended, deduped), (0, 1, true));

        plan.set_disk_full(false);
        let (first_row, appended, _, deduped) = committed(engine.insert_with_id(2, txn(1)));
        assert_eq!((first_row, appended, deduped), (1, 1, false));
        let (support, snap) = engine.count(&[2]).expect("count");
        assert_eq!((support, snap.rows()), (2, 2));
        let json = engine.stats_json();
        assert!(json.contains("\"writer_heals\":1"));
    }
}
