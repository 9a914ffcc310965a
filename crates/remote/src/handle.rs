//! [`RemoteShardHandle`]: one shard of a distributed deployment, reached
//! over the wire protocol.
//!
//! The handle is a `bbs_server` [`Node`] — the same seam a local shard
//! engine fills — so the one [`bbs_server::Router`] runs unchanged over
//! remote nodes.  Under the hood every call goes through a
//! [`RetryClient`] — per-request timeouts, capped exponential backoff
//! with jitter, reconnect after transport failures.  A count is one
//! `COUNT_MANY` frame at the shard's latest snapshot, which pins nothing;
//! a MINE or PROBE pins the shard with a `COUNT_MANY_AT` that names no
//! epoch and no itemsets, and every later read of that request names the
//! pinned epoch, so a mine pulls the rows of one cut.
//!
//! # Failure model
//!
//! Three layers, from inside out:
//!
//! 1. **Transient faults** (dropped connection, timeout, overload) are
//!    retried by the [`RetryClient`] with backoff; idempotent reads are
//!    always safe to re-send, and inserts reuse their request ID so the
//!    shard's exactly-once window answers a retry of a committed batch
//!    with its original receipt.
//! 2. **Stale pins** (the shard evicted our pinned snapshot) come back as
//!    a typed error.  Reads through the handle's own pin
//!    ([`RemoteShardHandle::count_many_pinned`],
//!    [`RemoteShardHandle::pull_rows`]) re-pin the latest snapshot and
//!    retry once; a request's pin fails the request instead, because
//!    re-pinning it would answer from another cut.
//! 3. **Primary loss** (the retry budget exhausted on transport errors)
//!    triggers **replica failover** when the topology names a follower:
//!    the handle promotes the follower, re-points itself at it and retries
//!    the call once; its own pin is re-taken by the next read that needs
//!    it.  Without a follower — or if the follower
//!    is also unreachable — the handle records itself *unavailable* with
//!    a message naming the shard, which the router surfaces as a typed
//!    `SHARD_UNAVAILABLE` response instead of a silently-wrong partial
//!    total.

use bbs_core::{scatter, tally_subsets, Bbs, Cursor, MineView, Resident};
use bbs_hash::hasher_for_id;
use bbs_server::{
    maintain_action, ClientError, ClientResult, CountsAtReply, Gauge, Node, NodeStats, Reply,
    Request, Response, RetryClient, RetryPolicy, ServerAddr, ShardFaults,
};
use bbs_tdb::{IoStats, ItemId, Itemset, Transaction, TransactionDb};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Connection knobs for one remote shard.
#[derive(Debug, Clone)]
pub struct RemoteOptions {
    /// Bound on any single request's wait for its response frame.
    pub timeout: Duration,
    /// Retry/backoff schedule for transient faults.
    pub policy: RetryPolicy,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        RemoteOptions {
            timeout: Duration::from_secs(5),
            policy: RetryPolicy::default(),
        }
    }
}

struct Inner {
    client: RetryClient,
    addr: String,
    follower: Option<String>,
    pin: Option<CountsAtReply>,
}

impl Inner {
    fn dial(addr: &str, opts: &RemoteOptions) -> RetryClient {
        let mut client = RetryClient::with_policy(ServerAddr::Tcp(addr.to_string()), opts.policy);
        client.set_timeout(Some(opts.timeout));
        client
    }
}

/// One shard of a distributed deployment, addressed over TCP.
pub struct RemoteShardHandle {
    shard: u32,
    /// The slice width and hasher identity the shard served at connect —
    /// what a coordinator validated against its topology, and therefore
    /// the shape every shard's rows are re-indexed in for mining.
    shape: (usize, String),
    opts: RemoteOptions,
    faults: Arc<ShardFaults>,
    inner: Mutex<Inner>,
    unavailable: Mutex<Option<String>>,
    /// The shard as the last reply that named it reported it: epoch and
    /// rows from counts and pins, width from pins and maintenance legs.
    /// Kept apart from the pin, which a maintenance leg drops.
    gauge: Mutex<Gauge>,
    /// Set when the coordinator drains: its write legs are then refused
    /// here, while the shard's own server keeps serving its other clients.
    draining: AtomicBool,
    /// The version of the topology the coordinator that connected this
    /// handle serves (0 for a handle connected on its own).
    pub(crate) topology_version: u32,
}

impl RemoteShardHandle {
    /// Connects to the shard's primary and pins its latest snapshot.
    /// The pin carries the width/hasher identity the caller (the
    /// coordinator) validates against the topology.
    pub fn connect(
        shard: u32,
        primary: &str,
        follower: Option<&str>,
        opts: RemoteOptions,
        faults: Arc<ShardFaults>,
    ) -> io::Result<RemoteShardHandle> {
        let mut handle = RemoteShardHandle {
            shard,
            shape: (0, String::new()),
            opts: opts.clone(),
            faults,
            inner: Mutex::new(Inner {
                client: Inner::dial(primary, &opts),
                addr: primary.to_string(),
                follower: follower.map(str::to_string),
                pin: None,
            }),
            unavailable: Mutex::new(None),
            gauge: Mutex::new(Gauge::default()),
            draining: AtomicBool::new(false),
            topology_version: 0,
        };
        let pin = handle.repin().map_err(|e| {
            io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("shard {shard} at {primary}: {e}"),
            )
        })?;
        handle.shape = (pin.width as usize, pin.hasher);
        Ok(handle)
    }

    /// The shard ordinal this handle serves.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The address currently serving this shard (the follower's after a
    /// failover).
    pub fn addr(&self) -> String {
        self.lock().addr.clone()
    }

    /// The snapshot pin operations currently run against.
    pub fn pin(&self) -> Option<CountsAtReply> {
        self.lock().pin.clone()
    }

    /// The message recorded when this shard became unreachable, if any
    /// (cleared by the next successful call).
    pub fn unavailable(&self) -> Option<String> {
        self.unavailable.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn set_unavailable(&self, msg: Option<String>) {
        *self.unavailable.lock().unwrap_or_else(|e| e.into_inner()) = msg;
    }

    /// Records what a reply said about the shard in the stats gauge.
    fn observe(&self, update: impl FnOnce(&mut Gauge)) {
        update(&mut self.gauge.lock().unwrap_or_else(|e| e.into_inner()));
    }

    /// True when an error means the server stopped answering (as opposed
    /// to answering with a rejection): the retry budget drained on the
    /// transport itself, so failover is the only move left.
    fn is_transport(e: &ClientError) -> bool {
        matches!(e, ClientError::Io(_) | ClientError::BadFrame(_))
    }

    fn note_fault(&self, e: &ClientError) {
        let timed_out = matches!(
            e,
            ClientError::Io(io) if matches!(io.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock)
        );
        if timed_out {
            self.faults.timeouts.fetch_add(1, Ordering::Relaxed);
        } else {
            self.faults.scatter_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Promotes the follower and re-points this handle at it.  The old
    /// primary is abandoned (it is presumed dead; if it comes back it
    /// will answer `NotPrimary` readers and can be re-seeded as a new
    /// follower out of band).
    fn failover(&self, inner: &mut Inner) -> ClientResult<()> {
        let follower = inner.follower.take().ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                format!("shard {} has no follower to fail over to", self.shard),
            ))
        })?;
        let mut client = Inner::dial(&follower, &self.opts);
        client.promote().map_err(|e| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                format!(
                    "shard {}: follower {follower} did not take over: {e}",
                    self.shard
                ),
            ))
        })?;
        inner.client = client;
        inner.addr = follower;
        inner.pin = None;
        self.faults.failovers.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Runs `f` against the current connection; on transport exhaustion,
    /// fails over to the follower (when one exists) and retries once.
    /// The handle's own pin died with the old primary: the next read at
    /// it re-pins.  Success clears the unavailable marker; a dead end
    /// records it.
    fn call<T>(&self, f: impl Fn(&mut RetryClient) -> ClientResult<T>) -> ClientResult<T> {
        let mut inner = self.lock();
        let first = f(&mut inner.client);
        let outcome = match first {
            Err(e) if Self::is_transport(&e) => {
                self.note_fault(&e);
                match self.failover(&mut inner) {
                    Ok(()) => f(&mut inner.client),
                    Err(fe) => {
                        // Keep the original story: the primary went
                        // silent, and this is why.
                        Err(ClientError::Io(io::Error::new(
                            io::ErrorKind::NotConnected,
                            format!("primary unreachable ({e}); {fe}"),
                        )))
                    }
                }
            }
            other => other,
        };
        match outcome {
            Ok(v) => {
                self.set_unavailable(None);
                Ok(v)
            }
            Err(e) => {
                if Self::is_transport(&e) {
                    self.set_unavailable(Some(format!("shard {}: {e}", self.shard)));
                }
                Err(e)
            }
        }
    }

    /// Pins the shard's latest snapshot — a `COUNT_MANY_AT` with no epoch
    /// and no itemsets; subsequent pinned counts and row pulls answer from
    /// it.  Returns the new pin.
    pub fn repin(&self) -> ClientResult<CountsAtReply> {
        let pin = self.call(|c| c.count_many_at(None, &[]))?;
        self.lock().pin = Some(pin.clone());
        self.observe(|g| {
            *g = Gauge {
                rows: pin.rows,
                epoch: pin.epoch,
                width: pin.width as usize,
            }
        });
        Ok(pin)
    }

    /// Runs `read` at the handle's current pin (pinning one if none is
    /// held), re-pinning once if the shard evicted it.
    fn at_current_pin<T>(&self, read: impl Fn(u64) -> ClientResult<T>) -> ClientResult<T> {
        for _ in 0..2 {
            let epoch = match self.pin() {
                Some(pin) => pin.epoch,
                None => self.repin()?.epoch,
            };
            match read(epoch) {
                Err(ClientError::Server(msg)) if msg.starts_with("stale pin") => {
                    self.repin()?;
                }
                other => return other,
            }
        }
        Err(ClientError::Protocol(format!(
            "shard {}: pin went stale twice in a row",
            self.shard
        )))
    }

    /// Every live transaction at `epoch`, which must still be pinned, in
    /// row order: chunked pulls under the server's per-reply row and byte
    /// budgets, each resuming where the last one stopped examining.
    fn rows_at(&self, epoch: u64) -> ClientResult<Vec<(u64, Vec<u32>)>> {
        const CHUNK: u32 = 8192;
        let mut txns: Vec<(u64, Vec<u32>)> = Vec::new();
        let mut from = 0;
        loop {
            let reply = self.call(|c| c.rows(epoch, from, CHUNK))?;
            txns.extend(reply.txns);
            if reply.next >= reply.total {
                return Ok(txns);
            }
            if reply.next <= from {
                return Err(ClientError::Protocol(format!(
                    "shard {}: rows reply made no progress at {from}/{}",
                    self.shard, reply.total
                )));
            }
            from = reply.next;
        }
    }

    /// Exact batched counting against the handle's current pin,
    /// re-pinning once if the shard evicted it.  An exact answer meets
    /// any `tau` contract, so `tau` changes nothing.
    pub fn count_many_pinned(
        &self,
        itemsets: &[Vec<u32>],
        _tau: Option<u64>,
    ) -> ClientResult<Vec<u64>> {
        self.at_current_pin(|epoch| {
            Ok(self
                .call(|c| c.count_many_at(Some(epoch), itemsets))?
                .supports)
        })
    }

    /// Pulls every live transaction of the handle's current pin, in row
    /// order.  A pin that went stale is replaced and the pull restarted —
    /// a half-pulled row set from one snapshot must not be extended from
    /// another.
    pub fn pull_rows(&self) -> ClientResult<Vec<(u64, Vec<u32>)>> {
        self.at_current_pin(|epoch| self.rows_at(epoch))
    }
}

/// Converts a wire-layer error into the `io::Result` seam the gather
/// layer speaks.
fn to_io(e: ClientError) -> io::Error {
    match e {
        ClientError::Io(io) => io,
        other => io::Error::other(other.to_string()),
    }
}

/// One pin of a remote shard: the handle plus the epoch and row count
/// the shard reported when this request pinned it.  Every read through it
/// names that epoch, whatever the handle has pinned since.
pub struct RemotePin<'a> {
    handle: &'a RemoteShardHandle,
    epoch: u64,
    rows: u64,
}

/// A remote shard's mining view: the pinned rows pulled over the wire and
/// re-indexed in memory, counted through the memory cursor and settled by
/// a scan of the pulled rows.
pub struct PulledRows {
    db: TransactionDb,
    bbs: Bbs,
}

impl MineView for PulledRows {
    type Counter<'a> = Cursor<Resident<'a>>;

    fn live_rows(&self) -> u64 {
        self.db.len() as u64
    }

    fn item_counts(&self) -> &HashMap<ItemId, u64> {
        self.bbs.item_counts()
    }

    fn counter(&self) -> io::Result<Cursor<Resident<'_>>> {
        Ok(Cursor::resident(&self.bbs, None))
    }

    fn tally(&self, cands: &[Itemset]) -> io::Result<Vec<u64>> {
        let mut counts = vec![0u64; cands.len()];
        for txn in self.db.transactions() {
            tally_subsets(cands, &mut counts, &txn.items);
        }
        Ok(counts)
    }
}

impl Node for RemoteShardHandle {
    type Pin<'a> = RemotePin<'a>;
    type View<'a> = PulledRows;

    fn pin<'a>(&'a self, _faults: &'a ShardFaults) -> io::Result<RemotePin<'a>> {
        let pin = self.repin().map_err(to_io)?;
        Ok(RemotePin {
            handle: self,
            epoch: pin.epoch,
            rows: pin.rows,
        })
    }

    /// Every pin is a round trip, so a cut of N shards costs one.
    fn pin_all<'a>(
        nodes: &'a [Self],
        faults: &'a [Arc<ShardFaults>],
    ) -> io::Result<Vec<RemotePin<'a>>> {
        scatter(nodes, |i, node| Node::pin(node, &faults[i]))
    }

    fn epoch(pin: &RemotePin<'_>) -> u64 {
        pin.epoch
    }

    fn rows(pin: &RemotePin<'_>) -> u64 {
        pin.rows
    }

    /// One `COUNT_MANY` frame through the handle's retry and failover
    /// (whose faults the handle tallies itself).  It pins nothing, so a
    /// count never evicts the pin of a MINE or PROBE in flight.
    fn count_latest(
        &self,
        _faults: &ShardFaults,
        itemsets: &[Vec<u32>],
    ) -> io::Result<(Vec<u64>, u64, u64)> {
        let sets: Vec<&[u32]> = itemsets.iter().map(Vec::as_slice).collect();
        let reply = self.call(|c| c.count_many(&sets)).map_err(to_io)?;
        self.observe(|g| (g.epoch, g.rows) = (reply.epoch, reply.rows));
        Ok((reply.supports, reply.epoch, reply.rows))
    }

    /// Pulls the pinned rows over chunked `rows` frames and re-indexes
    /// them at the shape the shard served at connect.
    fn mine_view<'a>(pin: &RemotePin<'a>) -> io::Result<PulledRows>
    where
        Self: 'a,
    {
        let (width, hasher_id) = &pin.handle.shape;
        let hasher = hasher_for_id(hasher_id)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut db = TransactionDb::new();
        let mut bbs = Bbs::new(*width, hasher);
        let mut stats = IoStats::new();
        for (tid, items) in pin.handle.rows_at(pin.epoch).map_err(to_io)? {
            let txn = Transaction::new(tid, Itemset::from_values(&items));
            bbs.insert(&txn, &mut stats);
            db.push(txn);
        }
        Ok(PulledRows { db, bbs })
    }

    /// A `ROWS` frame examining just `row`: empty, so `None`, when the
    /// row is tombstoned or past the end.
    fn row(pin: &RemotePin<'_>, row: u64) -> io::Result<Option<(u64, Vec<u32>)>> {
        let reply = pin
            .handle
            .call(|c| c.rows(pin.epoch, row, 1))
            .map_err(to_io)?;
        Ok(reply.txns.into_iter().next())
    }

    /// Forwards the leg over the wire — re-sending is safe, because
    /// inserts and deletes carry the client's request ID into the shard's
    /// exactly-once window and maintenance is idempotent at its fixpoint —
    /// and maps a failure back onto the response the shard (or the loss of
    /// it) amounts to.  A maintenance reply names the shard's width, which
    /// the gauge takes.  Compaction and folds swap the shard's snapshot
    /// (the server evicts every pin), so a maintenance action that
    /// rewrote files drops the local pin: the next pinned read re-pins the
    /// post-swap snapshot instead of burning its one stale-pin retry.
    /// Once the coordinator drains, every leg is `OVERLOADED` unsent.
    fn leg(&self, req: &Request) -> Response {
        if self.draining.load(Ordering::Acquire) {
            return Response::Overloaded;
        }
        match self.call(|c| c.request(req)) {
            Ok(reply) => {
                if let Reply::Maintain {
                    action_taken,
                    width,
                    ..
                } = &reply
                {
                    self.observe(|g| g.width = *width as usize);
                    if *action_taken != maintain_action::PROBE_FPR {
                        self.lock().pin = None;
                    }
                }
                Response::Ok(reply)
            }
            Err(ClientError::Overloaded) => Response::Overloaded,
            Err(ClientError::NotPrimary(primary)) => Response::NotPrimary(primary),
            Err(ClientError::DiskFull) => Response::DiskFull,
            Err(e @ (ClientError::Server(_) | ClientError::Protocol(_))) => {
                Response::Err(e.to_string())
            }
            Err(e) => Response::ShardUnavailable(self.shard, format!("shard {}: {e}", self.shard)),
        }
    }

    fn unavailable(&self) -> Option<String> {
        RemoteShardHandle::unavailable(self)
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// What the last replies reported, not a fresh read: rendering stats
    /// never waits on a shard, not even on a call in flight.
    fn gauge(&self) -> Gauge {
        *self.gauge.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn stats(&self) -> NodeStats<'_> {
        NodeStats::Remote(self.addr(), self.topology_version)
    }
}
