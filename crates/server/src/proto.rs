//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! # Framing
//!
//! Every message — request or response — is one **frame**:
//!
//! ```text
//! [ len: u32 LE ][ payload: len bytes ]
//! ```
//!
//! `len` counts the payload only.  Frames larger than [`MAX_FRAME`] are
//! rejected before allocation (a malformed peer cannot make the server
//! allocate gigabytes from four bytes of garbage).
//!
//! # Payloads
//!
//! A request payload is an opcode byte followed by an op-specific body; a
//! response payload is a status byte (`0` ok, `1` overloaded, `2` error),
//! then for ok the opcode it answers and its body, for error a UTF-8
//! message.  All integers are little-endian; itemsets are `u16` counts
//! followed by `u32` item values.  See [`Request`] and [`Response`] for
//! the exact bodies — `encode`/`decode` on each are the single source of
//! truth, exercised by the round-trip tests below.
//!
//! The protocol is deliberately version-stamped: byte 0 of every request
//! is the opcode, and unknown opcodes decode to a typed error rather than
//! a desync, so a newer client degrades cleanly against an older server.
//!
//! # Read frames
//!
//! Three frames read the index, on every hop (client → server and
//! coordinator → shard):
//!
//! * `COUNT_MANY` — exact supports of a batch at the latest snapshot.  A
//!   single count is a `COUNT_MANY` of one.
//! * `COUNT_MANY_AT` — the same batch at a pinned epoch, or, with no
//!   epoch, at the latest snapshot, which the server pins as it answers.
//!   With no epoch and no itemsets it is the pin itself, and its reply
//!   carries the width and hasher identity a coordinator checks at
//!   connect.
//! * `ROWS` — the live transactions of a pinned snapshot.
//!
//! Opcodes 1 (the old single `COUNT`) and 10 (the old `SNAPSHOT_PIN`) are
//! retired: they decode as unknown opcodes, not as aliases.

use bbs_core::Scheme;
use bbs_tdb::SupportThreshold;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload (64 MiB) — generous for mine results,
/// small enough to bound a malicious length prefix.
pub const MAX_FRAME: usize = 64 << 20;

/// Opcode values (request byte 0; echoed in ok responses).  1 and 10 are
/// retired (see the module docs) and are never reused.
pub mod op {
    /// Liveness check.
    pub const PING: u8 = 0;
    /// Group-committed transaction ingest.
    pub const INSERT: u8 = 2;
    /// Full frequent-pattern mine of a snapshot.
    pub const MINE: u8 = 3;
    /// Fetch one transaction by row position.
    pub const PROBE: u8 = 4;
    /// Server metrics as a JSON document.
    pub const STATS: u8 = 5;
    /// Ask the server to drain and exit.
    pub const SHUTDOWN: u8 = 6;
    /// Pull committed replication-log entries (follower → primary).
    pub const REPLICATE: u8 = 7;
    /// Promote a follower to primary (writable).
    pub const PROMOTE: u8 = 8;
    /// Batched `CountItemSet`: many itemsets against the latest snapshot.
    pub const COUNT_MANY: u8 = 9;
    /// Batched `CountItemSet` against a pinned snapshot, or the latest one
    /// pinned as it answers.
    pub const COUNT_MANY_AT: u8 = 11;
    /// Stream transactions of a pinned snapshot in row order.
    pub const ROWS: u8 = 12;
    /// Tombstone-delete transactions by TID (exactly-once, replicated).
    pub const DELETE: u8 = 13;
    /// Index maintenance: FPR probe, compaction, fold, or policy auto.
    pub const MAINTAIN: u8 = 14;
}

/// Actions of a [`Request::Maintain`] (`action` byte).
pub mod maintain_action {
    /// Measure the live false-positive rate; change nothing.
    pub const PROBE_FPR: u8 = 0;
    /// Compact: rewrite the deployment minus tombstoned rows.
    pub const COMPACT: u8 = 1;
    /// Fold: halve the slice width in place.
    pub const FOLD: u8 = 2;
    /// Run the server's maintenance policy once: measure FPR and
    /// fold/compact only if it crosses the configured threshold.
    pub const AUTO: u8 = 3;
}

/// Response status values (response byte 0).
pub mod status {
    /// Request executed; body follows.
    pub const OK: u8 = 0;
    /// Admission control rejected the request; retry later.
    pub const OVERLOADED: u8 = 1;
    /// Request failed; UTF-8 message follows.
    pub const ERR: u8 = 2;
    /// The commit path is out of disk space; reads still serve, and the
    /// request is safe to retry (with the same request ID) once space
    /// returns.
    pub const DISK_FULL: u8 = 3;
    /// The request frame did not parse; the server closes the connection
    /// after sending this (a garbled stream cannot be re-synchronised).
    pub const BAD_FRAME: u8 = 4;
    /// This server is a read-only follower; writes must go to the
    /// primary it names (UTF-8 address follows, possibly empty).
    pub const NOT_PRIMARY: u8 = 5;
    /// A scatter-gather coordinator could not reach one of its shards:
    /// the shard index (u32) and a UTF-8 detail message follow.  The
    /// partial results are discarded — a distributed answer is never a
    /// silently-wrong total.
    pub const SHARD_UNAVAILABLE: u8 = 6;
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check; answered with [`Reply::Pong`].
    Ping,
    /// Append transactions `(tid, items)` through the group-commit queue.
    Insert {
        /// Client-supplied request ID for exactly-once ingest: a retry
        /// carrying the ID of a batch that already committed is answered
        /// with the original receipt instead of re-appending.  0 opts out
        /// of deduplication.
        req_id: u64,
        /// The transactions to append, in order.
        txns: Vec<(u64, Vec<u32>)>,
    },
    /// Mine every frequent pattern of the latest snapshot.
    Mine {
        /// Filter/refine scheme to run.
        scheme: Scheme,
        /// Minimum support.
        threshold: SupportThreshold,
        /// Worker threads for the filter phase (0 = server default).
        threads: u16,
    },
    /// Fetch the transaction stored at `row`.
    Probe {
        /// Row position (0-based append order).
        row: u64,
    },
    /// Server metrics snapshot.
    Stats,
    /// Drain queued ingest, then stop serving.
    Shutdown,
    /// Pull committed replication-log entries starting at `from_row`.
    /// The row doubles as the follower's cumulative ACK: everything below
    /// it is applied and durable on the follower, so the primary can
    /// compute replication lag from the last pull it served.
    Replicate {
        /// First row the follower is missing (its committed row count).
        from_row: u64,
        /// Delete-entry cursor: how many committed delete entries the
        /// follower has already applied.  Row and delete cursors advance
        /// independently (deletes occupy no rows), so catching up takes
        /// both — the server sends every entry past *either* cursor, in
        /// log order.
        from_dseq: u64,
        /// Upper bound on entries per reply (the server applies its own
        /// byte budget too, keeping replies well under [`MAX_FRAME`]).
        max_entries: u32,
    },
    /// Flip this follower to primary (idempotent on a primary).
    Promote,
    /// Exact support queries for many itemsets, answered from **one**
    /// snapshot (the latest) via the shared-scan executor.  A single count
    /// is a batch of one.  Admission control charges the whole batch by
    /// its total item count, not as one request.
    CountMany {
        /// The query itemsets (item values each, unsorted is fine).
        itemsets: Vec<Vec<u32>>,
    },
    /// Exact support queries for many itemsets against one pinned
    /// snapshot.  `epoch = None` answers from the latest snapshot and
    /// pins it in the server's bounded pin table, so later
    /// `COUNT_MANY_AT` / [`Request::Rows`] requests can name it; with no
    /// itemsets as well, the frame is just the pin.  An epoch that is no
    /// longer pinned answers with a typed `stale pin` error — the caller
    /// re-pins and retries.
    CountManyAt {
        /// The pinned epoch to answer from; `None` = the latest snapshot.
        epoch: Option<u64>,
        /// The query itemsets (item values each, unsorted is fine).
        itemsets: Vec<Vec<u32>>,
    },
    /// Tombstone-delete every live transaction holding one of `tids`.
    /// Routed and deduplicated exactly like [`Request::Insert`]: a retry
    /// carrying the ID of a delete that already committed is answered
    /// with the original receipt instead of re-resolving.
    Delete {
        /// Client-supplied request ID for exactly-once deletes (0 opts
        /// out of deduplication).
        req_id: u64,
        /// TIDs whose live rows should be tombstoned.
        tids: Vec<u64>,
    },
    /// Index maintenance (see [`maintain_action`]): probe the measured
    /// FPR, compact tombstones away, fold the width in half, or let the
    /// server's policy decide (`AUTO`).
    Maintain {
        /// One of the [`maintain_action`] values.
        action: u8,
        /// Action argument: FPR probe sample count (0 = default) for
        /// `PROBE_FPR`/`AUTO`, target width for `COMPACT` (0 = keep).
        arg: u64,
    },
    /// Stream the live `(tid, items)` rows of a pinned snapshot from row
    /// `from` on — the bulk transfer a coordinator uses to rebuild a
    /// shard's transactions for distributed mining.  Tombstoned rows are
    /// examined and skipped; [`Reply::Rows`]'s `next` says where the
    /// following request resumes.
    Rows {
        /// The pinned epoch to read from.
        epoch: u64,
        /// First row to examine (0-based append order).
        from: u64,
        /// Upper bound on rows examined per reply (the server applies its
        /// own row and byte budgets too, keeping replies under
        /// [`MAX_FRAME`]).
        limit: u32,
    },
}

/// The body of an ok response (tagged with the opcode it answers).
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Insert`].
    Insert {
        /// First row the batch occupies.
        first_row: u64,
        /// Number of rows appended.
        appended: u64,
        /// Epoch whose snapshot first shows the batch.
        epoch: u64,
        /// True when this receipt was answered from the exactly-once
        /// dedup window (the batch had already committed; nothing was
        /// appended by *this* request).
        deduped: bool,
    },
    /// Answer to [`Request::Mine`].
    Mine {
        /// Epoch of the mined snapshot.
        epoch: u64,
        /// Rows the mine covered.
        rows: u64,
        /// `(items, support, approximate)` per frequent pattern.
        patterns: Vec<(Vec<u32>, u64, bool)>,
    },
    /// Answer to [`Request::Probe`].
    Probe {
        /// The `(tid, items)` at the requested row, or `None` past the end.
        txn: Option<(u64, Vec<u32>)>,
    },
    /// Answer to [`Request::Stats`]: a JSON document.
    Stats {
        /// The metrics document.
        json: String,
    },
    /// Answer to [`Request::Shutdown`]: the server is draining.
    ShuttingDown,
    /// Answer to [`Request::Replicate`]: a run of committed log entries
    /// starting exactly at the requested row (empty = caught up).
    LogEntries {
        /// Committed rows on the serving node when the pull was answered
        /// (what the follower measures its lag against).
        rows: u64,
        /// Entries in log order: `(first_row, txns, receipts, deletes)`,
        /// receipts as `(req_id, offset, len)` relative to the entry's
        /// batch (for delete entries, `(req_id, 0, deleted_count)`).
        entries: Vec<LogEntry>,
    },
    /// Answer to [`Request::Promote`]: this node now accepts writes.
    Promoted {
        /// Epoch at promotion.
        epoch: u64,
        /// Committed rows at promotion.
        rows: u64,
    },
    /// Answer to [`Request::CountMany`]: one support per query itemset, in
    /// request order, all from the same snapshot.
    CountMany {
        /// BBS support estimates, one per itemset (exact for singletons;
        /// an upper bound with false positives possible for larger sets).
        supports: Vec<u64>,
        /// Epoch of the snapshot that answered every query.
        epoch: u64,
        /// Rows visible to that snapshot.
        rows: u64,
    },
    /// Answer to [`Request::CountManyAt`]: one support per query
    /// itemset, in request order, all from one pinned epoch, plus the
    /// identity facts a coordinator checks against its topology before
    /// trusting cross-shard sums (same width + hasher ⇒ identical
    /// per-row signatures ⇒ per-shard sums are the unsharded estimates).
    CountsAt {
        /// The pinned epoch that answered (the latest one when the request
        /// named none).
        epoch: u64,
        /// Rows visible to that snapshot.
        rows: u64,
        /// Signature width (bits) of the serving deployment.
        width: u32,
        /// Identity of the item hasher (e.g. `md5/4`).
        hasher: String,
        /// Per-itemset supports (as in [`Reply::CountMany`]).
        supports: Vec<u64>,
    },
    /// Answer to [`Request::Delete`].
    Delete {
        /// Live rows tombstoned by this request (0 when every named TID
        /// was absent or already deleted).
        deleted: u64,
        /// Epoch whose snapshot first masks the deleted rows.
        epoch: u64,
        /// True when this receipt was answered from the exactly-once
        /// dedup window (the delete had already committed).
        deduped: bool,
    },
    /// Answer to [`Request::Maintain`].
    Maintain {
        /// The [`maintain_action`] actually performed (`AUTO` resolves
        /// to what the policy chose; `PROBE_FPR` when it chose nothing).
        action_taken: u8,
        /// Slice width after the action.
        width: u32,
        /// Live rows after the action.
        live_rows: u64,
        /// Tombstoned rows remaining after the action.
        deleted_rows: u64,
        /// Measured false-positive rate (f64 bits; measured before any
        /// fold/compact the action performed).
        fpr_bits: u64,
    },
    /// Answer to [`Request::Rows`]: the live transactions among the rows
    /// examined, `from..next`.
    Rows {
        /// Total rows visible to the pinned snapshot, tombstoned ones
        /// included (the stream is complete once `next == total`).
        total: u64,
        /// The row after the last one examined: where the next request
        /// resumes.
        next: u64,
        /// The live `(tid, items)` rows, in append order.
        txns: Vec<(u64, Vec<u32>)>,
    },
}

/// One replication-log entry on the wire: the batch's first row, its
/// transactions `(tid, items)`, its exactly-once receipts
/// `(req_id, offset, len)` with offsets relative to the batch, and the
/// row numbers it tombstones (delete entries carry rows and no
/// transactions; for them `first_row` is the primary's row count at
/// delete time, which equals an in-order follower's row count).
pub type LogEntry = (
    u64,
    Vec<(u64, Vec<u32>)>,
    Vec<(u64, u64, u64)>,
    Vec<u64>,
);

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request executed.
    Ok(Reply),
    /// Admission control rejected the request (bounded ingest queue full
    /// or the server is draining) — the typed retry-later signal.
    Overloaded,
    /// The request failed server-side.
    Err(String),
    /// The commit path has no disk space; retry with the same request ID
    /// once space returns (reads keep serving meanwhile).
    DiskFull,
    /// The request frame did not parse; the connection is closed after
    /// this response.
    BadFrame(String),
    /// This server is a read-only follower: writes must go to the named
    /// primary (empty when the follower does not know one).
    NotPrimary(String),
    /// A coordinator's scatter could not reach shard `.0` (after its
    /// retry budget, including any follower failover): the partial
    /// results were discarded and the detail message explains why.
    ShardUnavailable(u32, String),
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A little-endian byte-slice reader with bounds-checked primitives.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(bad("truncated payload"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn items(&mut self) -> io::Result<Vec<u32>> {
        let n = self.u16()? as usize;
        (0..n).map(|_| self.u32()).collect()
    }

    fn u64s(&mut self) -> io::Result<Vec<u64>> {
        let n = self.u32()? as usize;
        let mut values = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            values.push(self.u64()?);
        }
        Ok(values)
    }

    fn itemsets(&mut self) -> io::Result<Vec<Vec<u32>>> {
        let n = self.u32()? as usize;
        let mut itemsets = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            itemsets.push(self.items()?);
        }
        Ok(itemsets)
    }

    fn done(&self) -> io::Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(bad("trailing bytes in payload"))
        }
    }
}

fn put_items(out: &mut Vec<u8>, items: &[u32]) {
    debug_assert!(items.len() <= u16::MAX as usize, "itemset too large");
    out.extend_from_slice(&(items.len() as u16).to_le_bytes());
    for &v in items {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_u64s(out: &mut Vec<u8>, values: &[u64]) {
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_itemsets(out: &mut Vec<u8>, itemsets: &[Vec<u32>]) {
    out.extend_from_slice(&(itemsets.len() as u32).to_le_bytes());
    for items in itemsets {
        put_items(out, items);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str(r: &mut Reader) -> io::Result<String> {
    let n = r.u32()? as usize;
    String::from_utf8(r.take(n)?.to_vec()).map_err(|_| bad("invalid UTF-8"))
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn get_opt_u64(r: &mut Reader, what: &str) -> io::Result<Option<u64>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        k => Err(bad(format!("bad {what} presence byte {k}"))),
    }
}

fn put_threshold(out: &mut Vec<u8>, t: SupportThreshold) {
    match t {
        SupportThreshold::Count(c) => {
            out.push(0);
            out.extend_from_slice(&c.to_le_bytes());
        }
        SupportThreshold::Fraction(f) => {
            out.push(1);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
    }
}

fn get_threshold(r: &mut Reader) -> io::Result<SupportThreshold> {
    match r.u8()? {
        0 => Ok(SupportThreshold::Count(r.u64()?)),
        1 => {
            let f = f64::from_bits(r.u64()?);
            if !(0.0..=1.0).contains(&f) {
                return Err(bad(format!("support fraction out of range: {f}")));
            }
            Ok(SupportThreshold::Fraction(f))
        }
        k => Err(bad(format!("unknown threshold kind {k}"))),
    }
}

impl Request {
    /// Serialises this request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(op::PING),
            Request::Insert { req_id, txns } => {
                out.push(op::INSERT);
                out.extend_from_slice(&req_id.to_le_bytes());
                out.extend_from_slice(&(txns.len() as u32).to_le_bytes());
                for (tid, items) in txns {
                    out.extend_from_slice(&tid.to_le_bytes());
                    put_items(&mut out, items);
                }
            }
            Request::Mine {
                scheme,
                threshold,
                threads,
            } => {
                out.push(op::MINE);
                out.push(scheme.id());
                put_threshold(&mut out, *threshold);
                out.extend_from_slice(&threads.to_le_bytes());
            }
            Request::Probe { row } => {
                out.push(op::PROBE);
                out.extend_from_slice(&row.to_le_bytes());
            }
            Request::Stats => out.push(op::STATS),
            Request::Shutdown => out.push(op::SHUTDOWN),
            Request::Replicate {
                from_row,
                from_dseq,
                max_entries,
            } => {
                out.push(op::REPLICATE);
                out.extend_from_slice(&from_row.to_le_bytes());
                out.extend_from_slice(&from_dseq.to_le_bytes());
                out.extend_from_slice(&max_entries.to_le_bytes());
            }
            Request::Promote => out.push(op::PROMOTE),
            Request::CountMany { itemsets } => {
                out.push(op::COUNT_MANY);
                put_itemsets(&mut out, itemsets);
            }
            Request::CountManyAt { epoch, itemsets } => {
                out.push(op::COUNT_MANY_AT);
                put_opt_u64(&mut out, *epoch);
                put_itemsets(&mut out, itemsets);
            }
            Request::Delete { req_id, tids } => {
                out.push(op::DELETE);
                out.extend_from_slice(&req_id.to_le_bytes());
                out.extend_from_slice(&(tids.len() as u32).to_le_bytes());
                for tid in tids {
                    out.extend_from_slice(&tid.to_le_bytes());
                }
            }
            Request::Maintain { action, arg } => {
                out.push(op::MAINTAIN);
                out.push(*action);
                out.extend_from_slice(&arg.to_le_bytes());
            }
            Request::Rows { epoch, from, limit } => {
                out.push(op::ROWS);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&from.to_le_bytes());
                out.extend_from_slice(&limit.to_le_bytes());
            }
        }
        out
    }

    /// Parses a frame payload into a request.
    pub fn decode(payload: &[u8]) -> io::Result<Request> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            op::PING => Request::Ping,
            op::INSERT => {
                let req_id = r.u64()?;
                let n = r.u32()? as usize;
                let mut txns = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let tid = r.u64()?;
                    txns.push((tid, r.items()?));
                }
                Request::Insert { req_id, txns }
            }
            op::MINE => {
                let scheme = Scheme::from_id(r.u8()?)
                    .ok_or_else(|| bad("unknown scheme id"))?;
                let threshold = get_threshold(&mut r)?;
                let threads = r.u16()?;
                Request::Mine {
                    scheme,
                    threshold,
                    threads,
                }
            }
            op::PROBE => Request::Probe { row: r.u64()? },
            op::STATS => Request::Stats,
            op::SHUTDOWN => Request::Shutdown,
            op::REPLICATE => Request::Replicate {
                from_row: r.u64()?,
                from_dseq: r.u64()?,
                max_entries: r.u32()?,
            },
            op::PROMOTE => Request::Promote,
            op::COUNT_MANY => Request::CountMany {
                itemsets: r.itemsets()?,
            },
            op::COUNT_MANY_AT => Request::CountManyAt {
                epoch: get_opt_u64(&mut r, "epoch")?,
                itemsets: r.itemsets()?,
            },
            op::DELETE => {
                let req_id = r.u64()?;
                let n = r.u32()? as usize;
                let mut tids = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    tids.push(r.u64()?);
                }
                Request::Delete { req_id, tids }
            }
            op::MAINTAIN => Request::Maintain {
                action: r.u8()?,
                arg: r.u64()?,
            },
            op::ROWS => Request::Rows {
                epoch: r.u64()?,
                from: r.u64()?,
                limit: r.u32()?,
            },
            k => return Err(bad(format!("unknown opcode {k}"))),
        };
        r.done()?;
        Ok(req)
    }

    /// The opcode this request carries (used for per-endpoint metrics).
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Ping => op::PING,
            Request::Insert { .. } => op::INSERT,
            Request::Mine { .. } => op::MINE,
            Request::Probe { .. } => op::PROBE,
            Request::Stats => op::STATS,
            Request::Shutdown => op::SHUTDOWN,
            Request::Replicate { .. } => op::REPLICATE,
            Request::Promote => op::PROMOTE,
            Request::CountMany { .. } => op::COUNT_MANY,
            Request::CountManyAt { .. } => op::COUNT_MANY_AT,
            Request::Rows { .. } => op::ROWS,
            Request::Delete { .. } => op::DELETE,
            Request::Maintain { .. } => op::MAINTAIN,
        }
    }
}

impl Reply {
    fn opcode(&self) -> u8 {
        match self {
            Reply::Pong => op::PING,
            Reply::Insert { .. } => op::INSERT,
            Reply::Mine { .. } => op::MINE,
            Reply::Probe { .. } => op::PROBE,
            Reply::Stats { .. } => op::STATS,
            Reply::ShuttingDown => op::SHUTDOWN,
            Reply::LogEntries { .. } => op::REPLICATE,
            Reply::Promoted { .. } => op::PROMOTE,
            Reply::CountMany { .. } => op::COUNT_MANY,
            Reply::CountsAt { .. } => op::COUNT_MANY_AT,
            Reply::Rows { .. } => op::ROWS,
            Reply::Delete { .. } => op::DELETE,
            Reply::Maintain { .. } => op::MAINTAIN,
        }
    }
}

impl Response {
    /// Serialises this response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Overloaded => out.push(status::OVERLOADED),
            Response::Err(msg) => {
                out.push(status::ERR);
                put_str(&mut out, msg);
            }
            Response::DiskFull => out.push(status::DISK_FULL),
            Response::BadFrame(msg) => {
                out.push(status::BAD_FRAME);
                put_str(&mut out, msg);
            }
            Response::NotPrimary(primary) => {
                out.push(status::NOT_PRIMARY);
                put_str(&mut out, primary);
            }
            Response::ShardUnavailable(shard, msg) => {
                out.push(status::SHARD_UNAVAILABLE);
                out.extend_from_slice(&shard.to_le_bytes());
                put_str(&mut out, msg);
            }
            Response::Ok(reply) => {
                out.push(status::OK);
                out.push(reply.opcode());
                match reply {
                    Reply::Pong | Reply::ShuttingDown => {}
                    Reply::Insert {
                        first_row,
                        appended,
                        epoch,
                        deduped,
                    } => {
                        out.extend_from_slice(&first_row.to_le_bytes());
                        out.extend_from_slice(&appended.to_le_bytes());
                        out.extend_from_slice(&epoch.to_le_bytes());
                        out.push(u8::from(*deduped));
                    }
                    Reply::Mine {
                        epoch,
                        rows,
                        patterns,
                    } => {
                        out.extend_from_slice(&epoch.to_le_bytes());
                        out.extend_from_slice(&rows.to_le_bytes());
                        out.extend_from_slice(&(patterns.len() as u32).to_le_bytes());
                        for (items, support, approx) in patterns {
                            put_items(&mut out, items);
                            out.extend_from_slice(&support.to_le_bytes());
                            out.push(u8::from(*approx));
                        }
                    }
                    Reply::Probe { txn } => match txn {
                        None => out.push(0),
                        Some((tid, items)) => {
                            out.push(1);
                            out.extend_from_slice(&tid.to_le_bytes());
                            put_items(&mut out, items);
                        }
                    },
                    Reply::Stats { json } => put_str(&mut out, json),
                    Reply::LogEntries { rows, entries } => {
                        out.extend_from_slice(&rows.to_le_bytes());
                        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                        for (first_row, txns, receipts, deletes) in entries {
                            out.extend_from_slice(&first_row.to_le_bytes());
                            out.extend_from_slice(&(txns.len() as u32).to_le_bytes());
                            for (tid, items) in txns {
                                out.extend_from_slice(&tid.to_le_bytes());
                                put_items(&mut out, items);
                            }
                            out.extend_from_slice(&(receipts.len() as u32).to_le_bytes());
                            for (req_id, offset, len) in receipts {
                                out.extend_from_slice(&req_id.to_le_bytes());
                                out.extend_from_slice(&offset.to_le_bytes());
                                out.extend_from_slice(&len.to_le_bytes());
                            }
                            out.extend_from_slice(&(deletes.len() as u32).to_le_bytes());
                            for row in deletes {
                                out.extend_from_slice(&row.to_le_bytes());
                            }
                        }
                    }
                    Reply::Promoted { epoch, rows } => {
                        out.extend_from_slice(&epoch.to_le_bytes());
                        out.extend_from_slice(&rows.to_le_bytes());
                    }
                    Reply::CountMany {
                        supports,
                        epoch,
                        rows,
                    } => {
                        put_u64s(&mut out, supports);
                        out.extend_from_slice(&epoch.to_le_bytes());
                        out.extend_from_slice(&rows.to_le_bytes());
                    }
                    Reply::CountsAt {
                        epoch,
                        rows,
                        width,
                        hasher,
                        supports,
                    } => {
                        out.extend_from_slice(&epoch.to_le_bytes());
                        out.extend_from_slice(&rows.to_le_bytes());
                        out.extend_from_slice(&width.to_le_bytes());
                        put_str(&mut out, hasher);
                        put_u64s(&mut out, supports);
                    }
                    Reply::Delete {
                        deleted,
                        epoch,
                        deduped,
                    } => {
                        out.extend_from_slice(&deleted.to_le_bytes());
                        out.extend_from_slice(&epoch.to_le_bytes());
                        out.push(u8::from(*deduped));
                    }
                    Reply::Maintain {
                        action_taken,
                        width,
                        live_rows,
                        deleted_rows,
                        fpr_bits,
                    } => {
                        out.push(*action_taken);
                        out.extend_from_slice(&width.to_le_bytes());
                        out.extend_from_slice(&live_rows.to_le_bytes());
                        out.extend_from_slice(&deleted_rows.to_le_bytes());
                        out.extend_from_slice(&fpr_bits.to_le_bytes());
                    }
                    Reply::Rows { total, next, txns } => {
                        out.extend_from_slice(&total.to_le_bytes());
                        out.extend_from_slice(&next.to_le_bytes());
                        out.extend_from_slice(&(txns.len() as u32).to_le_bytes());
                        for (tid, items) in txns {
                            out.extend_from_slice(&tid.to_le_bytes());
                            put_items(&mut out, items);
                        }
                    }
                }
            }
        }
        out
    }

    /// Parses a frame payload into a response.
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            status::OVERLOADED => Response::Overloaded,
            status::ERR => Response::Err(get_str(&mut r)?),
            status::DISK_FULL => Response::DiskFull,
            status::BAD_FRAME => Response::BadFrame(get_str(&mut r)?),
            status::NOT_PRIMARY => Response::NotPrimary(get_str(&mut r)?),
            status::SHARD_UNAVAILABLE => {
                let shard = r.u32()?;
                Response::ShardUnavailable(shard, get_str(&mut r)?)
            }
            status::OK => Response::Ok(match r.u8()? {
                op::PING => Reply::Pong,
                op::SHUTDOWN => Reply::ShuttingDown,
                op::INSERT => Reply::Insert {
                    first_row: r.u64()?,
                    appended: r.u64()?,
                    epoch: r.u64()?,
                    deduped: match r.u8()? {
                        0 => false,
                        1 => true,
                        k => return Err(bad(format!("bad dedup flag {k}"))),
                    },
                },
                op::MINE => {
                    let epoch = r.u64()?;
                    let rows = r.u64()?;
                    let n = r.u32()? as usize;
                    let mut patterns = Vec::with_capacity(n.min(1 << 20));
                    for _ in 0..n {
                        let items = r.items()?;
                        let support = r.u64()?;
                        let approx = r.u8()? != 0;
                        patterns.push((items, support, approx));
                    }
                    Reply::Mine {
                        epoch,
                        rows,
                        patterns,
                    }
                }
                op::PROBE => match r.u8()? {
                    0 => Reply::Probe { txn: None },
                    1 => {
                        let tid = r.u64()?;
                        let items = r.items()?;
                        Reply::Probe {
                            txn: Some((tid, items)),
                        }
                    }
                    k => return Err(bad(format!("bad probe presence byte {k}"))),
                },
                op::STATS => Reply::Stats {
                    json: get_str(&mut r)?,
                },
                op::REPLICATE => {
                    let rows = r.u64()?;
                    let n = r.u32()? as usize;
                    let mut entries = Vec::with_capacity(n.min(1 << 16));
                    for _ in 0..n {
                        let first_row = r.u64()?;
                        let n_txns = r.u32()? as usize;
                        let mut txns = Vec::with_capacity(n_txns.min(1 << 16));
                        for _ in 0..n_txns {
                            let tid = r.u64()?;
                            txns.push((tid, r.items()?));
                        }
                        let n_receipts = r.u32()? as usize;
                        let mut receipts = Vec::with_capacity(n_receipts.min(1 << 16));
                        for _ in 0..n_receipts {
                            receipts.push((r.u64()?, r.u64()?, r.u64()?));
                        }
                        let n_dels = r.u32()? as usize;
                        let mut deletes = Vec::with_capacity(n_dels.min(1 << 16));
                        for _ in 0..n_dels {
                            deletes.push(r.u64()?);
                        }
                        entries.push((first_row, txns, receipts, deletes));
                    }
                    Reply::LogEntries { rows, entries }
                }
                op::PROMOTE => Reply::Promoted {
                    epoch: r.u64()?,
                    rows: r.u64()?,
                },
                op::COUNT_MANY => Reply::CountMany {
                    supports: r.u64s()?,
                    epoch: r.u64()?,
                    rows: r.u64()?,
                },
                op::COUNT_MANY_AT => Reply::CountsAt {
                    epoch: r.u64()?,
                    rows: r.u64()?,
                    width: r.u32()?,
                    hasher: get_str(&mut r)?,
                    supports: r.u64s()?,
                },
                op::DELETE => Reply::Delete {
                    deleted: r.u64()?,
                    epoch: r.u64()?,
                    deduped: match r.u8()? {
                        0 => false,
                        1 => true,
                        k => return Err(bad(format!("bad dedup flag {k}"))),
                    },
                },
                op::MAINTAIN => Reply::Maintain {
                    action_taken: r.u8()?,
                    width: r.u32()?,
                    live_rows: r.u64()?,
                    deleted_rows: r.u64()?,
                    fpr_bits: r.u64()?,
                },
                op::ROWS => {
                    let total = r.u64()?;
                    let next = r.u64()?;
                    let n = r.u32()? as usize;
                    let mut txns = Vec::with_capacity(n.min(1 << 16));
                    for _ in 0..n {
                        let tid = r.u64()?;
                        txns.push((tid, r.items()?));
                    }
                    Reply::Rows { total, next, txns }
                }
                k => return Err(bad(format!("unknown reply opcode {k}"))),
            }),
            k => return Err(bad(format!("unknown status byte {k}"))),
        };
        r.done()?;
        Ok(resp)
    }
}

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(bad(format!("frame too large: {} bytes", payload.len())));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
///
/// Blocking variant for clients.  The server reads frames through its own
/// interruptible loop (see `net`) so it can poll a shutdown flag.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read(&mut len)? {
        0 => return Ok(None),
        n if n < 4 => r.read_exact(&mut len[n..])?,
        _ => {}
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(bad(format!("frame too large: {n} bytes")));
    }
    let mut payload = vec![0u8; n];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = req.encode();
        assert_eq!(Request::decode(&bytes).expect("decode"), req);
    }

    fn roundtrip_response(resp: Response) {
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).expect("decode"), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Insert {
            req_id: 0,
            txns: vec![(7, vec![1, 2, 3]), (8, vec![]), (u64::MAX, vec![u32::MAX])],
        });
        roundtrip_request(Request::Insert {
            req_id: u64::MAX,
            txns: vec![(1, vec![9])],
        });
        for scheme in Scheme::ALL {
            roundtrip_request(Request::Mine {
                scheme,
                threshold: SupportThreshold::Count(42),
                threads: 4,
            });
        }
        roundtrip_request(Request::Mine {
            scheme: Scheme::Dfp,
            threshold: SupportThreshold::Fraction(0.003),
            threads: 0,
        });
        roundtrip_request(Request::Probe { row: 123_456 });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Replicate {
            from_row: 0,
            from_dseq: 0,
            max_entries: 128,
        });
        roundtrip_request(Request::Replicate {
            from_row: u64::MAX,
            from_dseq: u64::MAX,
            max_entries: u32::MAX,
        });
        roundtrip_request(Request::Delete {
            req_id: 0,
            tids: vec![],
        });
        roundtrip_request(Request::Delete {
            req_id: u64::MAX,
            tids: vec![0, 7, u64::MAX],
        });
        roundtrip_request(Request::Maintain {
            action: maintain_action::PROBE_FPR,
            arg: 0,
        });
        roundtrip_request(Request::Maintain {
            action: maintain_action::COMPACT,
            arg: u64::MAX,
        });
        roundtrip_request(Request::Promote);
        roundtrip_request(Request::CountMany { itemsets: vec![] });
        roundtrip_request(Request::CountMany {
            itemsets: vec![vec![3, 1, 2], vec![], vec![u32::MAX]],
        });
        roundtrip_request(Request::CountManyAt {
            epoch: Some(9),
            itemsets: vec![vec![1, 2], vec![]],
        });
        roundtrip_request(Request::CountManyAt {
            epoch: Some(u64::MAX),
            itemsets: vec![vec![u32::MAX]],
        });
        // The latest-epoch form, distinct from epoch 0 (a real epoch), and
        // the pin: no epoch and no itemsets.
        roundtrip_request(Request::CountManyAt {
            epoch: None,
            itemsets: vec![vec![4]],
        });
        roundtrip_request(Request::CountManyAt {
            epoch: Some(0),
            itemsets: vec![],
        });
        roundtrip_request(Request::CountManyAt {
            epoch: None,
            itemsets: vec![],
        });
        roundtrip_request(Request::Rows {
            epoch: 3,
            from: 0,
            limit: 4096,
        });
        roundtrip_request(Request::Rows {
            epoch: u64::MAX,
            from: u64::MAX,
            limit: u32::MAX,
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Ok(Reply::Pong));
        roundtrip_response(Response::Ok(Reply::Insert {
            first_row: 5,
            appended: 2,
            epoch: 9,
            deduped: false,
        }));
        roundtrip_response(Response::Ok(Reply::Insert {
            first_row: 5,
            appended: 2,
            epoch: 11,
            deduped: true,
        }));
        roundtrip_response(Response::Ok(Reply::Mine {
            epoch: 2,
            rows: 50,
            patterns: vec![(vec![1], 30, false), (vec![1, 2], 11, true)],
        }));
        roundtrip_response(Response::Ok(Reply::Probe { txn: None }));
        roundtrip_response(Response::Ok(Reply::Probe {
            txn: Some((99, vec![4, 5])),
        }));
        roundtrip_response(Response::Ok(Reply::Stats {
            json: "{\"ok\":true}".into(),
        }));
        roundtrip_response(Response::Ok(Reply::ShuttingDown));
        roundtrip_response(Response::Ok(Reply::LogEntries {
            rows: 42,
            entries: vec![],
        }));
        roundtrip_response(Response::Ok(Reply::LogEntries {
            rows: 42,
            entries: vec![
                (0, vec![(1, vec![1, 2]), (2, vec![])], vec![(9, 0, 2)], vec![]),
                (2, vec![(3, vec![7])], vec![], vec![]),
                (3, vec![], vec![(11, 0, 2)], vec![0, 2]),
            ],
        }));
        roundtrip_response(Response::Ok(Reply::Delete {
            deleted: 0,
            epoch: 1,
            deduped: false,
        }));
        roundtrip_response(Response::Ok(Reply::Delete {
            deleted: u64::MAX,
            epoch: u64::MAX,
            deduped: true,
        }));
        roundtrip_response(Response::Ok(Reply::Maintain {
            action_taken: maintain_action::FOLD,
            width: 800,
            live_rows: 90,
            deleted_rows: 10,
            fpr_bits: 0.015f64.to_bits(),
        }));
        roundtrip_response(Response::Ok(Reply::Promoted { epoch: 5, rows: 99 }));
        roundtrip_response(Response::Ok(Reply::CountMany {
            supports: vec![],
            epoch: 1,
            rows: 2,
        }));
        roundtrip_response(Response::Ok(Reply::CountMany {
            supports: vec![7, 0, u64::MAX],
            epoch: 4,
            rows: 1000,
        }));
        roundtrip_response(Response::Ok(Reply::CountsAt {
            epoch: 7,
            rows: 320,
            width: 1600,
            hasher: "md5/4".into(),
            supports: vec![],
        }));
        roundtrip_response(Response::Ok(Reply::CountsAt {
            epoch: 7,
            rows: u64::MAX,
            width: u32::MAX,
            hasher: String::new(),
            supports: vec![0, 3, u64::MAX],
        }));
        roundtrip_response(Response::Ok(Reply::Rows {
            total: 11,
            next: 11,
            txns: vec![],
        }));
        roundtrip_response(Response::Ok(Reply::Rows {
            total: 11,
            next: 6,
            txns: vec![(1, vec![4, 5]), (9, vec![])],
        }));
        roundtrip_response(Response::Overloaded);
        roundtrip_response(Response::Err("boom".into()));
        roundtrip_response(Response::DiskFull);
        roundtrip_response(Response::BadFrame("len 12 is not a frame".into()));
        roundtrip_response(Response::NotPrimary("127.0.0.1:7777".into()));
        roundtrip_response(Response::NotPrimary(String::new()));
        roundtrip_response(Response::ShardUnavailable(2, "connect timed out".into()));
        roundtrip_response(Response::ShardUnavailable(0, String::new()));
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xFF]).is_err());
        // The retired COUNT and SNAPSHOT_PIN opcodes, in their old shapes.
        assert!(Request::decode(&[1, 1, 0, 7, 0, 0, 0]).is_err());
        assert!(Request::decode(&[10]).is_err());
        // A COUNT_MANY itemset claiming 2 items but carrying 1.
        let mut bytes = vec![op::COUNT_MANY, 1, 0, 0, 0, 2, 0];
        bytes.extend_from_slice(&7u32.to_le_bytes());
        assert!(Request::decode(&bytes).is_err());
        // Trailing garbage after a valid request.
        let mut bytes = Request::Ping.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
        // Mine with an out-of-range fraction.
        let mut bytes = vec![op::MINE, 0, 1];
        bytes.extend_from_slice(&2.5f64.to_bits().to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        assert!(Request::decode(&bytes).is_err());
        assert!(Response::decode(&[9]).is_err());
        // DELETE reply with an out-of-range dedup flag byte.
        let mut bytes = vec![status::OK, op::DELETE];
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.push(7);
        assert!(Response::decode(&bytes).is_err());
    }

    /// The latest-epoch `COUNT_MANY_AT`, its reply carrying `rows`, the
    /// width and the hasher, and the `next`-carrying `ROWS` reply: every
    /// proper prefix of each encoding is a typed error, never a panic and
    /// never a shorter valid frame.
    #[test]
    fn every_truncation_of_the_pinned_read_frames_is_an_error() {
        let request = Request::CountManyAt {
            epoch: None,
            itemsets: vec![vec![1, 2], vec![3]],
        }
        .encode();
        for cut in 0..request.len() {
            assert!(
                Request::decode(&request[..cut]).is_err(),
                "request cut at {cut}"
            );
        }
        let replies = [
            Response::Ok(Reply::CountsAt {
                epoch: 0,
                rows: 12,
                width: 64,
                hasher: "mod/1".into(),
                supports: vec![5, 0],
            }),
            Response::Ok(Reply::Rows {
                total: 9,
                next: 4,
                txns: vec![(2, vec![7]), (3, vec![])],
            }),
        ];
        for reply in replies {
            let bytes = reply.encode();
            for cut in 0..bytes.len() {
                assert!(
                    Response::decode(&bytes[..cut]).is_err(),
                    "{reply:?} cut at {cut}"
                );
            }
        }
    }

    /// Seeded decode fuzz: bit-flipped, truncated, and extended mutations
    /// of every canonical encoding must decode to `Ok` or a typed error —
    /// never a panic.  (The socket-level variant, torn frames against a
    /// live server, lives in `tests/net_faults.rs`.)
    #[test]
    fn mutated_payloads_never_panic_the_decoders() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xBB5_FA22);
        let requests = vec![
            Request::Ping.encode(),
            Request::Insert {
                req_id: 42,
                txns: vec![(1, vec![4, 5]), (2, vec![6])],
            }
            .encode(),
            Request::Mine {
                scheme: Scheme::Dfp,
                threshold: SupportThreshold::Count(3),
                threads: 2,
            }
            .encode(),
            Request::Probe { row: 9 }.encode(),
            Request::Replicate {
                from_row: 7,
                from_dseq: 3,
                max_entries: 64,
            }
            .encode(),
            Request::Delete {
                req_id: 12,
                tids: vec![5, 6],
            }
            .encode(),
            Request::Maintain {
                action: maintain_action::AUTO,
                arg: 256,
            }
            .encode(),
            Request::Promote.encode(),
            Request::CountMany {
                itemsets: vec![vec![1, 2], vec![3]],
            }
            .encode(),
            Request::CountManyAt {
                epoch: Some(4),
                itemsets: vec![vec![1, 2], vec![3]],
            }
            .encode(),
            Request::CountManyAt {
                epoch: None,
                itemsets: vec![vec![5]],
            }
            .encode(),
            Request::Rows {
                epoch: 4,
                from: 8,
                limit: 512,
            }
            .encode(),
        ];
        let responses = vec![
            Response::Ok(Reply::Insert {
                first_row: 1,
                appended: 2,
                epoch: 3,
                deduped: false,
            })
            .encode(),
            Response::Ok(Reply::Mine {
                epoch: 1,
                rows: 4,
                patterns: vec![(vec![1, 2], 3, false)],
            })
            .encode(),
            Response::Ok(Reply::Stats {
                json: "{\"a\":1}".into(),
            })
            .encode(),
            Response::Err("x".into()).encode(),
            Response::Ok(Reply::LogEntries {
                rows: 9,
                entries: vec![
                    (0, vec![(1, vec![2, 3])], vec![(5, 0, 1)], vec![]),
                    (2, vec![], vec![(8, 0, 1)], vec![1]),
                ],
            })
            .encode(),
            Response::Ok(Reply::Delete {
                deleted: 2,
                epoch: 5,
                deduped: false,
            })
            .encode(),
            Response::Ok(Reply::Maintain {
                action_taken: maintain_action::COMPACT,
                width: 512,
                live_rows: 40,
                deleted_rows: 0,
                fpr_bits: 0.01f64.to_bits(),
            })
            .encode(),
            Response::NotPrimary("addr".into()).encode(),
            Response::Ok(Reply::CountMany {
                supports: vec![1, 2, 3],
                epoch: 7,
                rows: 8,
            })
            .encode(),
            Response::Ok(Reply::CountsAt {
                epoch: 3,
                rows: 64,
                width: 1024,
                hasher: "md5/4".into(),
                supports: vec![7, 9],
            })
            .encode(),
            Response::Ok(Reply::Rows {
                total: 5,
                next: 3,
                txns: vec![(1, vec![2, 3])],
            })
            .encode(),
            Response::ShardUnavailable(1, "timeout".into()).encode(),
        ];
        for _ in 0..2000 {
            let pool = if rng.random::<bool>() { &requests } else { &responses };
            let mut bytes = pool[rng.random_range(0..pool.len())].clone();
            match rng.random_range(0..4u32) {
                0 if !bytes.is_empty() => {
                    // Flip a random bit.
                    let at = rng.random_range(0..bytes.len());
                    bytes[at] ^= 1 << rng.random_range(0..8u32);
                }
                1 => {
                    // Truncate.
                    bytes.truncate(rng.random_range(0..bytes.len() + 1));
                }
                2 => {
                    // Extend with garbage.
                    for _ in 0..rng.random_range(1..16usize) {
                        bytes.push((rng.random::<u32>() & 0xFF) as u8);
                    }
                }
                _ => {
                    // Pure garbage of random length.
                    bytes = (0..rng.random_range(0..64usize))
                        .map(|_| (rng.random::<u32>() & 0xFF) as u8)
                        .collect();
                }
            }
            // Ok or Err both fine; panicking or looping forever is not.
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
        }
    }

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        write_frame(&mut buf, b"").expect("write empty");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).expect("read").as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).expect("read").as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).expect("eof"), None);

        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());
    }
}
