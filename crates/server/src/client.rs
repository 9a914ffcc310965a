//! Client library for the `bbs-server` wire protocol.
//!
//! One [`Client`] wraps one connection (TCP or Unix socket) and offers a
//! typed method per endpoint.  Requests are synchronous: send one frame,
//! read one frame.  Server-side conditions surface as typed
//! [`ClientError`] variants so callers can implement retry/backoff
//! without string-matching error messages.
//!
//! # Retrying safely
//!
//! [`RetryClient`] layers a real retry policy on top: exponential
//! backoff with jitter, a bounded attempt budget, and automatic
//! reconnect after transport failures.  Every insert is stamped with a
//! process-unique nonzero request ID that is **reused across retries of
//! that insert** — the server's exactly-once window turns a retry of an
//! already-committed batch into a dedup hit (the original receipt comes
//! back with `deduped = true`) instead of a duplicate append.  That is
//! what makes it safe for the policy to retry after a timeout or a
//! dropped connection, where the client cannot know whether the commit
//! landed.

use crate::proto::{self, Reply, Request, Response};
use bbs_core::Scheme;
use bbs_tdb::SupportThreshold;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, read, write, framing).
    Io(io::Error),
    /// The server's admission control rejected the request; retry later.
    Overloaded,
    /// The server's disk is out of space; nothing was appended.  Safe to
    /// retry with the same request ID once space returns.
    DiskFull,
    /// The server could not parse the frame it received (corrupted in
    /// transit) and is closing the connection.
    BadFrame(String),
    /// The server is a replication follower and rejected a write; the
    /// string is the primary's address (may be empty when unknown).
    NotPrimary(String),
    /// A coordinator could not reach the named shard: the scatter was
    /// aborted rather than returning a silently-wrong partial total.
    ShardUnavailable(u32, String),
    /// The server executed the request and reported an error.
    Server(String),
    /// The server answered with a reply that does not match the request.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Overloaded => write!(f, "server overloaded; retry later"),
            ClientError::DiskFull => write!(f, "server disk full; retry once space returns"),
            ClientError::BadFrame(msg) => write!(f, "server rejected frame: {msg}"),
            ClientError::NotPrimary(addr) if addr.is_empty() => {
                write!(f, "server is a follower; writes go to the primary")
            }
            ClientError::NotPrimary(addr) => {
                write!(f, "server is a follower; writes go to the primary at {addr}")
            }
            ClientError::ShardUnavailable(shard, msg) => {
                write!(f, "shard {shard} unavailable: {msg}")
            }
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// True when retrying the same request may succeed.
    ///
    /// Transport failures (`Io`), admission rejections (`Overloaded`),
    /// out-of-space commits (`DiskFull`) and frames garbled in transit
    /// (`BadFrame`) are all transient: the request itself is fine, and —
    /// because inserts carry request IDs — retrying one that secretly
    /// committed is answered from the exactly-once window, not appended
    /// again.  `Server` and `Protocol` errors are terminal: the server
    /// understood the request and definitively failed it, or the
    /// conversation itself is broken in a way reconnecting won't fix.
    /// `NotPrimary` is retryable too: during a failover the rejecting
    /// follower is often the node *about to be promoted*, so a client
    /// that keeps re-sending (same request IDs) converges as soon as the
    /// promotion lands — and the exactly-once window answers any batch
    /// that already committed on the old primary.  `ShardUnavailable` is
    /// retryable for the same reason `Io` is: the coordinator may fail
    /// over the dead shard to its follower between attempts.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_)
            | ClientError::Overloaded
            | ClientError::DiskFull
            | ClientError::BadFrame(_)
            | ClientError::NotPrimary(_)
            | ClientError::ShardUnavailable(_, _) => true,
            ClientError::Server(_) | ClientError::Protocol(_) => false,
        }
    }

    /// True when the connection should be dropped and re-dialed before
    /// the next attempt (the stream state can no longer be trusted).
    fn poisons_connection(&self) -> bool {
        matches!(self, ClientError::Io(_) | ClientError::BadFrame(_))
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// The `count` reply (a `count_many` of one): a support estimate stamped
/// with its snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountReply {
    /// The BBS support estimate.
    pub support: u64,
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// Rows visible to that snapshot.
    pub rows: u64,
}

/// The `count_many` reply: one support per query itemset, in request
/// order, all answered from the same snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountManyReply {
    /// BBS support estimates, one per itemset (semantics as in
    /// [`CountReply::support`]).
    pub supports: Vec<u64>,
    /// Epoch of the snapshot that answered every query.
    pub epoch: u64,
    /// Rows visible to that snapshot.
    pub rows: u64,
}

/// The `insert` reply: where the batch landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertReply {
    /// First row of the batch.
    pub first_row: u64,
    /// Rows appended.
    pub appended: u64,
    /// Epoch whose snapshot shows the batch.
    pub epoch: u64,
    /// True when the server answered from its exactly-once window: the
    /// batch was already durable from an earlier attempt.
    pub deduped: bool,
}

/// One `replicate` pull: the primary's row count plus the log entries
/// covering the requested row onward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicateReply {
    /// Rows committed on the server at the time of the pull (the
    /// follower's lag is `rows - locally_applied_rows`).
    pub rows: u64,
    /// Entries in log order: `(first_row, txns, receipts, deletes)` in
    /// the wire shape (see [`crate::proto::LogEntry`]).
    pub entries: Vec<proto::LogEntry>,
}

/// The `delete` reply: how many rows this request tombstoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeleteReply {
    /// Live rows tombstoned (0 when every TID was absent or already
    /// dead).
    pub deleted: u64,
    /// Epoch whose snapshot first masks them.
    pub epoch: u64,
    /// True when the server answered from its exactly-once window: the
    /// delete was already durable from an earlier attempt.
    pub deduped: bool,
}

/// The `maintain` reply: what the server did and the index health after.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintainReply {
    /// The [`proto::maintain_action`] actually performed.
    pub action_taken: u8,
    /// Slice width after the action.
    pub width: u32,
    /// Live rows after the action.
    pub live_rows: u64,
    /// Tombstoned rows remaining after the action.
    pub deleted_rows: u64,
    /// Measured false-positive rate (sampled before any fold/compact the
    /// action performed).
    pub fpr: f64,
}

/// The `promote` reply: the epoch and rows the new primary serves from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromoteReply {
    /// Epoch of the promoted server's latest snapshot.
    pub epoch: u64,
    /// Rows that snapshot serves.
    pub rows: u64,
}

/// The `count_many_at` reply: supports in request order, all answered
/// from one pinned epoch, plus the identity facts a coordinator checks
/// before trusting cross-shard sums.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountsAtReply {
    /// The epoch that answered: the request's pin, or the latest epoch
    /// (now pinned) when the request named none.  Pass it to
    /// `count_many_at` / `rows`.
    pub epoch: u64,
    /// Rows visible to that snapshot.
    pub rows: u64,
    /// Signature width of the serving deployment.
    pub width: u32,
    /// Identity of the item-hash family (e.g. `md5/4`).
    pub hasher: String,
    /// Supports, one per itemset in request order.
    pub supports: Vec<u64>,
}

/// One `rows` pull: the live transactions among a run of the pinned
/// snapshot's rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowsReply {
    /// Total rows in the pinned snapshot, tombstoned ones included (the
    /// stream ends when `next == total`).
    pub total: u64,
    /// The row after the last one examined: the next pull's `from`.
    pub next: u64,
    /// `(tid, items)` per live row examined, in row order.
    pub txns: Vec<(u64, Vec<u32>)>,
}

/// The `mine` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MineReply {
    /// Epoch of the mined snapshot.
    pub epoch: u64,
    /// Rows the mine covered.
    pub rows: u64,
    /// `(items, support, approximate)` per frequent pattern, sorted.
    pub patterns: Vec<(Vec<u32>, u64, bool)>,
}

/// One connection to a `bbs-server`.
pub struct Client {
    stream: Stream,
}

impl Client {
    /// Connects over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> ClientResult<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream: Stream::Tcp(stream),
        })
    }

    /// Connects over a Unix socket.
    pub fn connect_unix(path: impl AsRef<Path>) -> ClientResult<Client> {
        Ok(Client {
            stream: Stream::Unix(UnixStream::connect(path)?),
        })
    }

    /// Bounds how long any single call waits for its response frame
    /// (`None` = wait forever).
    pub fn set_timeout(&mut self, t: Option<Duration>) -> ClientResult<()> {
        match &self.stream {
            Stream::Tcp(s) => s.set_read_timeout(t)?,
            Stream::Unix(s) => s.set_read_timeout(t)?,
        }
        Ok(())
    }

    /// Sends one request and returns its OK body; every other response
    /// status comes back as the matching [`ClientError`].  The typed
    /// methods below are this plus a check that the body fits the request.
    pub fn request(&mut self, req: &Request) -> ClientResult<Reply> {
        proto::write_frame(&mut self.stream, &req.encode())?;
        let payload = proto::read_frame(&mut self.stream)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        match Response::decode(&payload)? {
            Response::Ok(reply) => Ok(reply),
            Response::Overloaded => Err(ClientError::Overloaded),
            Response::DiskFull => Err(ClientError::DiskFull),
            Response::BadFrame(msg) => Err(ClientError::BadFrame(msg)),
            Response::NotPrimary(addr) => Err(ClientError::NotPrimary(addr)),
            Response::ShardUnavailable(shard, msg) => {
                Err(ClientError::ShardUnavailable(shard, msg))
            }
            Response::Err(msg) => Err(ClientError::Server(msg)),
        }
    }

    fn mismatch<T>(reply: Reply) -> ClientResult<T> {
        Err(ClientError::Protocol(format!(
            "reply does not match request: {reply:?}"
        )))
    }

    /// Liveness check.
    pub fn ping(&mut self) -> ClientResult<()> {
        match self.request(&Request::Ping)? {
            Reply::Pong => Ok(()),
            other => Self::mismatch(other),
        }
    }

    /// `CountItemSet` for `items` against the latest snapshot: a
    /// [`Client::count_many`] of one.
    pub fn count(&mut self, items: &[u32]) -> ClientResult<CountReply> {
        let reply = self.count_many(&[items])?;
        Ok(CountReply {
            support: reply.supports[0],
            epoch: reply.epoch,
            rows: reply.rows,
        })
    }

    /// Batched `CountItemSet`: all itemsets are answered from **one**
    /// snapshot by one walk of the batch's prefix trie, with supports in
    /// request order — identical to issuing [`Client::count`] per itemset,
    /// but one round-trip and one index walk for the whole batch.
    pub fn count_many(&mut self, itemsets: &[&[u32]]) -> ClientResult<CountManyReply> {
        let req = Request::CountMany {
            itemsets: itemsets.iter().map(|s| s.to_vec()).collect(),
        };
        match self.request(&req)? {
            Reply::CountMany {
                supports,
                epoch,
                rows,
            } if supports.len() == itemsets.len() => Ok(CountManyReply {
                supports,
                epoch,
                rows,
            }),
            other => Self::mismatch(other),
        }
    }

    /// Appends transactions through the server's group-commit queue,
    /// without enrolling in the exactly-once window (request ID 0).
    pub fn insert(&mut self, txns: &[(u64, Vec<u32>)]) -> ClientResult<InsertReply> {
        self.insert_with_id(0, txns)
    }

    /// [`Client::insert`] with an explicit request ID (`0` opts out of
    /// dedup).  Reusing the same nonzero ID on a retry is what makes the
    /// retry safe.
    pub fn insert_with_id(
        &mut self,
        req_id: u64,
        txns: &[(u64, Vec<u32>)],
    ) -> ClientResult<InsertReply> {
        let req = Request::Insert {
            req_id,
            txns: txns.to_vec(),
        };
        match self.request(&req)? {
            Reply::Insert {
                first_row,
                appended,
                epoch,
                deduped,
            } => Ok(InsertReply {
                first_row,
                appended,
                epoch,
                deduped,
            }),
            other => Self::mismatch(other),
        }
    }

    /// Mines every frequent pattern of the latest snapshot.
    pub fn mine(
        &mut self,
        scheme: Scheme,
        threshold: SupportThreshold,
        threads: u16,
    ) -> ClientResult<MineReply> {
        let req = Request::Mine {
            scheme,
            threshold,
            threads,
        };
        match self.request(&req)? {
            Reply::Mine {
                epoch,
                rows,
                patterns,
            } => Ok(MineReply {
                epoch,
                rows,
                patterns,
            }),
            other => Self::mismatch(other),
        }
    }

    /// Fetches the transaction at `row` (`None` past the snapshot's end).
    pub fn probe(&mut self, row: u64) -> ClientResult<Option<(u64, Vec<u32>)>> {
        match self.request(&Request::Probe { row })? {
            Reply::Probe { txn } => Ok(txn),
            other => Self::mismatch(other),
        }
    }

    /// Fetches the server's metrics document (JSON).
    pub fn stats(&mut self) -> ClientResult<String> {
        match self.request(&Request::Stats)? {
            Reply::Stats { json } => Ok(json),
            other => Self::mismatch(other),
        }
    }

    /// Pulls replication-log entries past either cursor: `from_row` is
    /// the puller's applied row count, `from_dseq` the count of
    /// delete-carrying entries it has applied (deletes occupy no rows,
    /// so a row cursor alone would skip them forever).  An empty reply
    /// means caught up on both.
    pub fn replicate(
        &mut self,
        from_row: u64,
        from_dseq: u64,
        max_entries: u32,
    ) -> ClientResult<ReplicateReply> {
        let req = Request::Replicate {
            from_row,
            from_dseq,
            max_entries,
        };
        match self.request(&req)? {
            Reply::LogEntries { rows, entries } => Ok(ReplicateReply { rows, entries }),
            other => Self::mismatch(other),
        }
    }

    /// Tombstone-deletes every live transaction holding one of `tids`.
    /// `req_id` works exactly as in [`Client::insert_with_id`]: reusing a
    /// nonzero ID on a retry turns an already-committed delete into a
    /// dedup hit instead of a second resolve.
    pub fn delete_with_id(&mut self, req_id: u64, tids: &[u64]) -> ClientResult<DeleteReply> {
        let req = Request::Delete {
            req_id,
            tids: tids.to_vec(),
        };
        match self.request(&req)? {
            Reply::Delete {
                deleted,
                epoch,
                deduped,
            } => Ok(DeleteReply {
                deleted,
                epoch,
                deduped,
            }),
            other => Self::mismatch(other),
        }
    }

    /// [`Client::delete_with_id`] without dedup enrollment.
    pub fn delete(&mut self, tids: &[u64]) -> ClientResult<DeleteReply> {
        self.delete_with_id(0, tids)
    }

    /// Runs one maintenance action (see [`proto::maintain_action`]):
    /// probe the measured FPR, compact tombstones away (optionally
    /// re-hashing at `arg` bits), fold the width in half, or let the
    /// server's policy decide.
    pub fn maintain(&mut self, action: u8, arg: u64) -> ClientResult<MaintainReply> {
        match self.request(&Request::Maintain { action, arg })? {
            Reply::Maintain {
                action_taken,
                width,
                live_rows,
                deleted_rows,
                fpr_bits,
            } => Ok(MaintainReply {
                action_taken,
                width,
                live_rows,
                deleted_rows,
                fpr: f64::from_bits(fpr_bits),
            }),
            other => Self::mismatch(other),
        }
    }

    /// Promotes the server to primary (idempotent on a primary).
    pub fn promote(&mut self) -> ClientResult<PromoteReply> {
        match self.request(&Request::Promote)? {
            Reply::Promoted { epoch, rows } => Ok(PromoteReply { epoch, rows }),
            other => Self::mismatch(other),
        }
    }

    /// Exact batched counting against a pinned epoch, or, with
    /// `epoch = None`, against the latest snapshot, which the server pins
    /// as it answers.  With no epoch and no itemsets this is the pin: the
    /// reply's epoch stays answerable by `count_many_at` and `rows` until
    /// newer pins evict it, and its width/hasher identity is what a
    /// coordinator validates at connect time.
    ///
    /// A pin that was evicted answers with a typed `Server` error whose
    /// message starts with `stale pin:` — re-pin and retry.
    pub fn count_many_at(
        &mut self,
        epoch: Option<u64>,
        itemsets: &[Vec<u32>],
    ) -> ClientResult<CountsAtReply> {
        let req = Request::CountManyAt {
            epoch,
            itemsets: itemsets.to_vec(),
        };
        match self.request(&req)? {
            Reply::CountsAt {
                epoch,
                rows,
                width,
                hasher,
                supports,
            } if supports.len() == itemsets.len() => Ok(CountsAtReply {
                epoch,
                rows,
                width,
                hasher,
                supports,
            }),
            other => Self::mismatch(other),
        }
    }

    /// Pulls the live transactions among up to `limit` rows of the pinned
    /// epoch, starting at row `from`; tombstoned rows are skipped.  The
    /// server may stop short of `limit` (byte budget): pull again from
    /// `next` until `next == total`.
    pub fn rows(&mut self, epoch: u64, from: u64, limit: u32) -> ClientResult<RowsReply> {
        match self.request(&Request::Rows { epoch, from, limit })? {
            Reply::Rows { total, next, txns } => Ok(RowsReply { total, next, txns }),
            other => Self::mismatch(other),
        }
    }

    /// Asks the server to drain and exit.
    pub fn shutdown_server(&mut self) -> ClientResult<()> {
        match self.request(&Request::Shutdown)? {
            Reply::ShuttingDown => Ok(()),
            other => Self::mismatch(other),
        }
    }
}

/// Where a [`RetryClient`] dials.
#[derive(Debug, Clone)]
pub enum ServerAddr {
    /// A TCP `host:port` address.
    Tcp(String),
    /// A Unix socket path.
    Unix(PathBuf),
}

impl ServerAddr {
    fn connect(&self) -> ClientResult<Client> {
        match self {
            ServerAddr::Tcp(addr) => Client::connect_tcp(addr.as_str()),
            ServerAddr::Unix(path) => Client::connect_unix(path),
        }
    }
}

/// Backoff schedule for [`RetryClient`]: exponential with jitter.
///
/// Attempt `n` (1-based retry count) sleeps
/// `min(cap, base · 2^(n-1))` scaled by a jitter factor in `[0.5, 1.5)`,
/// so a thundering herd of clients spreads out instead of re-arriving in
/// lockstep.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (first try + retries).  At least 1.
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff before retry number `retry` (1-based).
    fn backoff(&self, retry: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << retry.saturating_sub(1).min(20));
        let capped = exp.min(self.cap);
        // Jitter in [0.5, 1.5): xorshift64* is plenty for spreading
        // wake-ups, and keeps this crate dependency-free.
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        let jitter = 0.5 + (*rng >> 11) as f64 / (1u64 << 53) as f64;
        capped.mul_f64(jitter)
    }
}

/// Counters a [`RetryClient`] keeps about its own behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Wire attempts made (first tries + retries).
    pub attempts: u64,
    /// Attempts that were retries of a failed call.
    pub retries: u64,
    /// Times the connection was dropped and re-dialed.
    pub reconnects: u64,
    /// Insert replies answered from the server's exactly-once window.
    pub deduped: u64,
    /// Calls that exhausted the retry budget.
    pub gave_up: u64,
}

/// A reconnecting client with retry/backoff and exactly-once inserts.
///
/// Connections are (re-)established lazily, so constructing one is
/// infallible even while the server is down — the first call simply
/// retries the dial under the policy.
pub struct RetryClient {
    addr: ServerAddr,
    timeout: Option<Duration>,
    policy: RetryPolicy,
    conn: Option<Client>,
    stats: RetryStats,
    rng: u64,
    next_req_id: u64,
}

/// SplitMix64: mixes a seed into a well-distributed nonzero stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryClient {
    /// Builds a retrying client for `addr` with the default policy.
    pub fn new(addr: ServerAddr) -> RetryClient {
        RetryClient::with_policy(addr, RetryPolicy::default())
    }

    /// Builds a retrying client with an explicit policy.
    pub fn with_policy(addr: ServerAddr, policy: RetryPolicy) -> RetryClient {
        // Seed request IDs from wall clock + pid so concurrent processes
        // (and successive runs) never collide in the server's window.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5EED);
        let mut seed = nanos ^ (u64::from(std::process::id()) << 32);
        let rng = splitmix64(&mut seed).max(1);
        let next_req_id = splitmix64(&mut seed);
        RetryClient {
            addr,
            timeout: None,
            policy,
            conn: None,
            stats: RetryStats::default(),
            rng,
            next_req_id,
        }
    }

    /// Bounds how long any single attempt waits for its response frame.
    pub fn set_timeout(&mut self, t: Option<Duration>) {
        self.timeout = t;
        self.conn = None;
    }

    /// The retry counters accumulated so far.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// The next request ID this client would stamp (nonzero, unique to
    /// this client instance).
    fn fresh_req_id(&mut self) -> u64 {
        let id = splitmix64(&mut self.next_req_id);
        id.max(1)
    }

    fn conn_or_dial(&mut self) -> ClientResult<&mut Client> {
        if self.conn.is_none() {
            let mut c = self.addr.connect()?;
            c.set_timeout(self.timeout)?;
            self.conn = Some(c);
        }
        Ok(self.conn.as_mut().expect("connection established"))
    }

    fn retry<T>(&mut self, mut f: impl FnMut(&mut Client) -> ClientResult<T>) -> ClientResult<T> {
        let attempts = self.policy.attempts.max(1);
        let mut last: Option<ClientError> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let backoff = self.policy.backoff(attempt, &mut self.rng);
                std::thread::sleep(backoff);
                self.stats.retries += 1;
            }
            self.stats.attempts += 1;
            let outcome = match self.conn_or_dial() {
                Ok(conn) => f(conn),
                Err(e) => Err(e),
            };
            match outcome {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if e.poisons_connection() && self.conn.take().is_some() {
                        self.stats.reconnects += 1;
                    }
                    if !e.is_retryable() {
                        return Err(e);
                    }
                    last = Some(e);
                }
            }
        }
        self.stats.gave_up += 1;
        Err(last.unwrap_or_else(|| {
            ClientError::Protocol("retry budget exhausted before any attempt".into())
        }))
    }

    /// [`Client::request`] with retries.  The caller vouches that `req` is
    /// safe to re-send: a read, or a write that carries a request ID.
    pub fn request(&mut self, req: &Request) -> ClientResult<Reply> {
        self.retry(|c| c.request(req))
    }

    /// Inserts with retries: one request ID is minted up front and
    /// reused across every attempt, so an attempt whose commit landed
    /// but whose reply was lost is answered from the exactly-once
    /// window on the next try.
    pub fn insert(&mut self, txns: &[(u64, Vec<u32>)]) -> ClientResult<InsertReply> {
        let req_id = self.fresh_req_id();
        self.insert_with_id(req_id, txns)
    }

    /// [`RetryClient::insert`] with a caller-chosen request ID.
    pub fn insert_with_id(
        &mut self,
        req_id: u64,
        txns: &[(u64, Vec<u32>)],
    ) -> ClientResult<InsertReply> {
        let reply = self.retry(|c| c.insert_with_id(req_id, txns))?;
        if reply.deduped {
            self.stats.deduped += 1;
        }
        Ok(reply)
    }

    /// Deletes with retries: like [`RetryClient::insert`], one request
    /// ID is minted up front and reused across attempts, so a delete
    /// whose commit landed but whose reply was lost is answered from the
    /// exactly-once window on the next try.
    pub fn delete(&mut self, tids: &[u64]) -> ClientResult<DeleteReply> {
        let req_id = self.fresh_req_id();
        self.delete_with_id(req_id, tids)
    }

    /// [`RetryClient::delete`] with a caller-chosen request ID.
    pub fn delete_with_id(&mut self, req_id: u64, tids: &[u64]) -> ClientResult<DeleteReply> {
        let reply = self.retry(|c| c.delete_with_id(req_id, tids))?;
        if reply.deduped {
            self.stats.deduped += 1;
        }
        Ok(reply)
    }

    /// `maintain` with retries (probing is a read; compaction and folds
    /// are idempotent at the "already done" fixpoint, so re-running one
    /// after a lost reply is safe).
    pub fn maintain(&mut self, action: u8, arg: u64) -> ClientResult<MaintainReply> {
        self.retry(|c| c.maintain(action, arg))
    }

    /// `count` (a `count_many` of one) with retries.
    pub fn count(&mut self, items: &[u32]) -> ClientResult<CountReply> {
        self.retry(|c| c.count(items))
    }

    /// `count_many` with retries (reads are idempotent, so retrying a
    /// whole batch is always safe).
    pub fn count_many(&mut self, itemsets: &[&[u32]]) -> ClientResult<CountManyReply> {
        self.retry(|c| c.count_many(itemsets))
    }

    /// `probe` with retries.
    pub fn probe(&mut self, row: u64) -> ClientResult<Option<(u64, Vec<u32>)>> {
        self.retry(|c| c.probe(row))
    }

    /// `mine` with retries.
    pub fn mine(
        &mut self,
        scheme: Scheme,
        threshold: SupportThreshold,
        threads: u16,
    ) -> ClientResult<MineReply> {
        self.retry(|c| c.mine(scheme, threshold, threads))
    }

    /// `ping` with retries.
    pub fn ping(&mut self) -> ClientResult<()> {
        self.retry(|c| c.ping())
    }

    /// `promote` with retries (idempotent, so retrying is safe).
    pub fn promote(&mut self) -> ClientResult<PromoteReply> {
        self.retry(|c| c.promote())
    }

    /// `count_many_at` with retries (an idempotent read; the latest-epoch
    /// form's pin is a bounded server-side retain, harmless to repeat).
    pub fn count_many_at(
        &mut self,
        epoch: Option<u64>,
        itemsets: &[Vec<u32>],
    ) -> ClientResult<CountsAtReply> {
        self.retry(|c| c.count_many_at(epoch, itemsets))
    }

    /// `rows` with retries (idempotent read of a pinned epoch).
    pub fn rows(&mut self, epoch: u64, from: u64, limit: u32) -> ClientResult<RowsReply> {
        self.retry(|c| c.rows(epoch, from, limit))
    }

    /// Asks the server to drain and exit (no retries: a shutdown that
    /// raced the socket closing already did its job).
    pub fn shutdown_server(&mut self) -> ClientResult<()> {
        self.conn_or_dial()?.shutdown_server()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_classification_is_exact() {
        // Table-driven: every variant, its retryability, and whether it
        // poisons the connection.
        let cases: Vec<(ClientError, bool, bool)> = vec![
            (
                ClientError::Io(io::Error::new(io::ErrorKind::ConnectionReset, "reset")),
                true,
                true,
            ),
            (
                ClientError::Io(io::Error::new(io::ErrorKind::TimedOut, "timeout")),
                true,
                true,
            ),
            (
                ClientError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "eof")),
                true,
                true,
            ),
            (ClientError::Overloaded, true, false),
            (ClientError::DiskFull, true, false),
            (ClientError::BadFrame("torn".into()), true, true),
            (
                ClientError::NotPrimary("127.0.0.1:7777".into()),
                true,
                false,
            ),
            (
                ClientError::ShardUnavailable(3, "connect timed out".into()),
                true,
                false,
            ),
            (ClientError::Server("mine failed".into()), false, false),
            (ClientError::Protocol("mismatched reply".into()), false, false),
        ];
        for (err, retryable, poisons) in cases {
            assert_eq!(err.is_retryable(), retryable, "{err}");
            assert_eq!(err.poisons_connection(), poisons, "{err}");
        }
    }

    #[test]
    fn backoff_grows_and_respects_the_cap() {
        let policy = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
        };
        let mut rng = 0xDEAD_BEEFu64;
        let mut prev_nominal = Duration::ZERO;
        for retry in 1..=8 {
            let d = policy.backoff(retry, &mut rng);
            let nominal = policy
                .base
                .saturating_mul(1u32 << (retry - 1).min(20))
                .min(policy.cap);
            // Jitter stays within [0.5, 1.5) of the nominal value.
            assert!(d >= nominal.mul_f64(0.5), "retry {retry}: {d:?}");
            assert!(d < nominal.mul_f64(1.5), "retry {retry}: {d:?}");
            assert!(d < policy.cap.mul_f64(1.5));
            assert!(nominal >= prev_nominal, "nominal schedule is monotone");
            prev_nominal = nominal;
        }
    }

    /// The backoff schedule is a pure function of (policy, retry, rng
    /// state): the same seed replays the same delays, every delay sits in
    /// the jitter envelope `[0.5, 1.5) ×` the capped-exponential nominal,
    /// and deep retry counts saturate at the cap instead of overflowing.
    #[test]
    fn backoff_is_deterministic_and_stays_in_the_jitter_envelope() {
        let policy = RetryPolicy {
            attempts: 64,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
        };
        let seed = 0x5EED_CAFE_F00D_u64;
        let (mut a, mut b) = (seed, seed);
        for retry in 1..=40 {
            let da = policy.backoff(retry, &mut a);
            let db = policy.backoff(retry, &mut b);
            assert_eq!(da, db, "same seed must replay the same schedule");
            let nominal = policy
                .base
                .saturating_mul(1u32 << (retry - 1).min(20))
                .min(policy.cap);
            assert!(da >= nominal.mul_f64(0.5), "retry {retry}: {da:?} too small");
            assert!(da < nominal.mul_f64(1.5), "retry {retry}: {da:?} too large");
            if retry >= 7 {
                // 10ms · 2^6 = 640ms > cap: from here the nominal is the
                // cap itself, jitter included.
                assert!(da < policy.cap.mul_f64(1.5), "cap must bound deep retries");
                assert!(da >= policy.cap.mul_f64(0.5));
            }
        }
        // A different seed diverges (the jitter is doing something).
        let (mut c, mut d) = (seed, seed ^ 1);
        let diverged = (1..=10).any(|r| policy.backoff(r, &mut c) != policy.backoff(r, &mut d));
        assert!(diverged, "distinct seeds must produce distinct schedules");
    }

    /// A poisoned connection (transport error) forces a reconnect, and
    /// the attempt budget is **per call**: a call that burned retries on
    /// the poisoned stream does not eat into the next call's budget.
    #[test]
    fn reconnect_on_poison_resets_the_attempt_counter() {
        use std::io::Read as _;
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            // Connection 1: read the request, then hang up without
            // replying — the client sees an EOF, a poisoning error.
            {
                let (mut s, _) = listener.accept().expect("accept 1");
                let mut hdr = [0u8; 4];
                s.read_exact(&mut hdr).expect("read len");
                let mut body = vec![0u8; u32::from_le_bytes(hdr) as usize];
                s.read_exact(&mut body).expect("read body");
                // Drop: connection reset before any response.
            }
            // Connections 2 and 3: answer pings properly.
            for _ in 0..2 {
                let (mut s, _) = listener.accept().expect("accept");
                while let Ok(Some(payload)) = crate::proto::read_frame(&mut s) {
                    let req = Request::decode(&payload).expect("decode");
                    assert!(matches!(req, Request::Ping));
                    let resp = Response::Ok(Reply::Pong);
                    crate::proto::write_frame(&mut s, &resp.encode()).expect("write");
                }
            }
        });

        let mut client = RetryClient::with_policy(
            ServerAddr::Tcp(addr),
            RetryPolicy {
                attempts: 2,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
            },
        );

        // Call 1: attempt 1 poisons, attempt 2 reconnects and succeeds —
        // within one call's budget.
        client.ping().expect("ping after reconnect");
        let s1 = client.stats();
        assert_eq!(
            (s1.attempts, s1.retries, s1.reconnects, s1.gave_up),
            (2, 1, 1, 0),
            "poison consumed one retry and one reconnect"
        );

        // Call 2: the attempt counter restarted — a fresh call on the
        // healthy connection needs exactly one attempt, proving the
        // previous call's retries did not carry over.
        client.ping().expect("second ping");
        let s2 = client.stats();
        assert_eq!(
            (s2.attempts, s2.retries, s2.reconnects, s2.gave_up),
            (3, 1, 1, 0),
            "one fresh attempt, no inherited retries"
        );

        // Call 3: drop the connection client-side; the next call simply
        // re-dials and still needs only one attempt of its fresh budget.
        drop(client.conn.take());
        client.ping().expect("third ping");
        let s3 = client.stats();
        assert_eq!(s3.gave_up, 0, "no call ever exhausted its budget");
        assert_eq!(s3.attempts, 4, "third call also took a single attempt");

        // Hang up so the server thread sees EOF and exits.
        drop(client);
        server.join().expect("server thread");
    }

    #[test]
    fn request_ids_are_nonzero_and_distinct() {
        let mut c = RetryClient::new(ServerAddr::Tcp("127.0.0.1:1".into()));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = c.fresh_req_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate request id {id}");
        }
    }

    #[test]
    fn exhausted_budget_reports_the_last_error() {
        // Nothing listens on this address: every dial fails fast.
        let mut c = RetryClient::with_policy(
            ServerAddr::Tcp("127.0.0.1:1".into()),
            RetryPolicy {
                attempts: 3,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
            },
        );
        let err = c.ping().expect_err("no server");
        assert!(matches!(err, ClientError::Io(_)));
        let stats = c.stats();
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.gave_up, 1);
    }
}
