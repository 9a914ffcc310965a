//! The replication log: every group commit, re-shippable.
//!
//! A `<base>.log` file records one checksummed entry per committed batch —
//! the batch's transactions, plus the exactly-once receipts `(request id,
//! offset, len)` that commit carried.  A follower that applies the entries
//! in order through its own commit path reproduces the primary's rows,
//! counts *and dedup window* exactly, which is what makes failover
//! transparent to retrying clients: the promoted follower answers a
//! re-sent request ID with the original receipt.
//!
//! # Entry body
//!
//! Entries are sealed log records (`sealed.rs`) with the body
//!
//! ```text
//! seq u64 | first_row u64 | n_txns u32 | n_receipts u32 | n_dels u32
//!         | n_txns × (tid u64 | n_items u32 | item u32 …)
//!         | n_receipts × (req_id u64 | offset u64 | len u64)
//!         | n_dels × (row u64)
//! ```
//!
//! A *delete entry* carries tombstoned row numbers instead of (or beside)
//! transactions.  Delete-only entries advance no rows (`first_row` is the
//! tail row at commit time and `end_row == first_row`), so the row cursor
//! alone cannot address them; followers therefore track a second cursor —
//! the count of delete-carrying entries they have applied — and
//! [`read_entries`] serves an entry when it advances *either* cursor.
//!
//! Entries are addressed by `first_row`, **not** by commit sequence
//! number: opening a deployment flushes it once (bumping the sequence
//! with nothing to log), so sequences diverge between a primary and its
//! followers while row numbers — contiguous from 0 — never do.  The
//! sequence stamp is still stored, but only for the same debris-trimming
//! job [`crate::dedup::DedupLog`] does: an entry stamped past the last
//! committed sequence describes rows whose commit record never landed,
//! and is dropped on open together with those rows.
//!
//! [`ReplLog::append_synced`] runs in the commit point's `.log` slot
//! (DESIGN.md §7, "The commit ordering"): an entry is durable if and only
//! if its batch committed, and a torn tail append fails its seal and
//! vanishes on open, exactly like the rows it described.
//!
//! The log is retained in full (it is the follower bootstrap stream); an
//! append whose `first_row` does not continue the log's coverage — rows
//! were appended through a non-logging path — resets the log to start at
//! that batch, and followers behind the new start are told to resync.

use crate::backend::StorageBackend;
use crate::sealed::{self, LogRecord};
use bbs_tdb::{Itemset, Transaction};
use std::io;
use std::path::Path;

/// One replication-log entry: a committed batch and its receipts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplEntry {
    /// First row the batch occupies.
    pub first_row: u64,
    /// The batch, in append order.
    pub txns: Vec<Transaction>,
    /// Exactly-once receipts as `(req_id, offset, len)`, offsets relative
    /// to the start of the batch — the shape
    /// [`crate::SharedDeployment::commit_with`] accepts.
    pub receipts: Vec<(u64, u64, u64)>,
    /// Row numbers tombstoned by this commit (empty for insert batches).
    pub deletes: Vec<u64>,
}

impl ReplEntry {
    /// One-past the last row the batch occupies.
    pub fn end_row(&self) -> u64 {
        self.first_row + self.txns.len() as u64
    }
}

fn encode_entry(
    seq: u64,
    first_row: u64,
    txns: &[Transaction],
    receipts: &[(u64, u64, u64)],
    deletes: &[u64],
) -> Vec<u8> {
    let mut body = Vec::with_capacity(24 + txns.len() * 32);
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(&first_row.to_le_bytes());
    body.extend_from_slice(&(txns.len() as u32).to_le_bytes());
    body.extend_from_slice(&(receipts.len() as u32).to_le_bytes());
    body.extend_from_slice(&(deletes.len() as u32).to_le_bytes());
    for t in txns {
        body.extend_from_slice(&t.tid.0.to_le_bytes());
        body.extend_from_slice(&(t.items.items().len() as u32).to_le_bytes());
        for item in t.items.items() {
            body.extend_from_slice(&item.0.to_le_bytes());
        }
    }
    for &(req_id, offset, len) in receipts {
        body.extend_from_slice(&req_id.to_le_bytes());
        body.extend_from_slice(&offset.to_le_bytes());
        body.extend_from_slice(&len.to_le_bytes());
    }
    for &row in deletes {
        body.extend_from_slice(&row.to_le_bytes());
    }
    sealed::frame(&body)
}

impl LogRecord for ReplEntry {
    const MAX_BODY: u32 = 256 << 20;
    const FILE: &'static str = "replication log";
    const RECORD: &'static str = "entry";

    fn decode(body: &[u8]) -> Option<(u64, ReplEntry)> {
        let mut at = 0usize;
        let u64_at = |buf: &[u8], at: &mut usize| -> Option<u64> {
            let v = u64::from_le_bytes(buf.get(*at..*at + 8)?.try_into().ok()?);
            *at += 8;
            Some(v)
        };
        let u32_at = |buf: &[u8], at: &mut usize| -> Option<u32> {
            let v = u32::from_le_bytes(buf.get(*at..*at + 4)?.try_into().ok()?);
            *at += 4;
            Some(v)
        };
        let seq = u64_at(body, &mut at)?;
        let first_row = u64_at(body, &mut at)?;
        let n_txns = u32_at(body, &mut at)?;
        let n_receipts = u32_at(body, &mut at)?;
        let n_dels = u32_at(body, &mut at)?;
        let mut txns = Vec::with_capacity(n_txns.min(1 << 20) as usize);
        for _ in 0..n_txns {
            let tid = u64_at(body, &mut at)?;
            let n_items = u32_at(body, &mut at)?;
            let mut items = Vec::with_capacity(n_items.min(1 << 20) as usize);
            for _ in 0..n_items {
                items.push(u32_at(body, &mut at)?);
            }
            txns.push(Transaction::new(tid, Itemset::from_values(&items)));
        }
        let mut receipts = Vec::with_capacity(n_receipts.min(1 << 20) as usize);
        for _ in 0..n_receipts {
            let req_id = u64_at(body, &mut at)?;
            let offset = u64_at(body, &mut at)?;
            let len = u64_at(body, &mut at)?;
            receipts.push((req_id, offset, len));
        }
        let mut deletes = Vec::with_capacity(n_dels.min(1 << 20) as usize);
        for _ in 0..n_dels {
            deletes.push(u64_at(body, &mut at)?);
        }
        if at != body.len() {
            return None;
        }
        Some((
            seq,
            ReplEntry {
                first_row,
                txns,
                receipts,
                deletes,
            },
        ))
    }
}

/// The write side of one deployment's replication log.
#[derive(Debug)]
pub struct ReplLog<B: StorageBackend> {
    backend: B,
    /// First row the log covers (rows before it predate the log).
    start_row: u64,
    /// One-past the last row the log covers.
    tail_row: u64,
    /// Append offset: the byte length of the valid prefix.
    tail_offset: u64,
    entries: u64,
    /// Count of delete-carrying entries in the valid prefix — the second
    /// replication cursor (see the module docs).
    delete_entries: u64,
}

impl<B: StorageBackend> ReplLog<B> {
    /// Opens the log, keeping the longest valid, contiguous prefix of
    /// entries stamped at or before `committed_seq` and covering rows at
    /// or below `committed_rows`.  Everything past that prefix — a torn
    /// tail, or entries of a flush whose commit record never landed — is
    /// truncated away, mirroring the rollback of the rows themselves.
    pub fn open(mut backend: B, committed_seq: u64, committed_rows: u64) -> io::Result<Self> {
        let (mut start_row, mut tail_row, mut entries, mut delete_entries) = (0, 0, 0, 0);
        let tail_offset = sealed::recover(&mut backend, committed_seq, |entry: ReplEntry| {
            if entry.end_row() > committed_rows {
                return false; // debris of an uncommitted flush
            }
            if entries == 0 {
                start_row = entry.first_row;
            } else if entry.first_row != tail_row {
                return false; // discontinuity: never written by a healthy log
            }
            tail_row = entry.end_row();
            entries += 1;
            delete_entries += u64::from(!entry.deletes.is_empty());
            true
        })?;
        Ok(ReplLog {
            backend,
            start_row,
            tail_row,
            tail_offset,
            entries,
            delete_entries,
        })
    }

    /// Delete-carrying entries currently in the log — the value a caught-up
    /// follower's delete cursor would hold.
    pub fn delete_entries(&self) -> u64 {
        self.delete_entries
    }

    /// Durably appends the entry of a flush about to commit as sequence
    /// `seq`.  Runs in the commit point's `.log` slot.
    ///
    /// A batch that does not continue the log's coverage (rows were
    /// appended through a non-logging path) resets the log to start at
    /// this batch.
    pub fn append_synced(
        &mut self,
        seq: u64,
        first_row: u64,
        txns: &[Transaction],
        receipts: &[(u64, u64, u64)],
        deletes: &[u64],
    ) -> io::Result<()> {
        if txns.is_empty() && deletes.is_empty() {
            return Ok(());
        }
        let resetting = (self.entries > 0 && first_row != self.tail_row)
            || (self.entries == 0 && first_row != self.start_row);
        let buf = encode_entry(seq, first_row, txns, receipts, deletes);
        let start = if resetting { 0 } else { self.tail_offset };
        self.backend.write_at(start, &buf)?;
        if resetting {
            self.backend.set_len(buf.len() as u64)?;
        }
        self.backend.sync()?;
        if resetting {
            self.start_row = first_row;
            self.entries = 0;
            self.delete_entries = 0;
        }
        self.tail_offset = start + buf.len() as u64;
        self.tail_row = first_row + txns.len() as u64;
        self.entries += 1;
        if !deletes.is_empty() {
            self.delete_entries += 1;
        }
        Ok(())
    }
}

/// The outcome of one stateless [`read_entries`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplRead {
    /// Entries whose first row is ≥ the requested row, in order.  Empty
    /// when the caller is caught up (or the log cannot serve the row —
    /// compare `start_row`/`end_row`).
    pub entries: Vec<ReplEntry>,
    /// First row the log's valid prefix covers.
    pub start_row: u64,
    /// One-past the last row the log's valid prefix covers.
    pub end_row: u64,
    /// Count of delete-carrying entries in the log's valid prefix — the
    /// delete-cursor position of a follower caught up through `end_row`.
    pub end_dseq: u64,
}

/// Reads replication entries from `path` starting at `from_row`, without
/// any shared state — safe to run concurrently with a writer appending,
/// because a half-written tail entry fails its checksum and simply ends
/// the scan.  Entries stamped past `upto_seq` (synced but not yet
/// committed) are never returned.  At most `max_entries` entries and
/// roughly `max_bytes` of payload are returned per call.
///
/// The caller decides whether the read *serves* `from_row`: it does when
/// the first returned entry starts exactly there (or the log's coverage
/// shows the caller is caught up); a `from_row` below `start_row` or
/// inside an entry means the follower must resync from a fresh copy.
pub fn read_entries(
    path: &Path,
    from_row: u64,
    from_dseq: u64,
    max_entries: usize,
    max_bytes: usize,
    upto_seq: u64,
) -> io::Result<ReplRead> {
    let mut out = ReplRead::default();
    let mut first = true;
    let mut budget = max_bytes;
    sealed::read_committed::<ReplEntry>(path, upto_seq, |body| {
        // Peek the header words before a full decode: skipping the bulk
        // of already-replicated history costs header reads only.
        let Some(header) = body.get(..28) else {
            return false;
        };
        let first_row = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let n_txns = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
        let n_dels = u32::from_le_bytes(header[24..28].try_into().expect("4 bytes"));
        if first {
            out.start_row = first_row;
            out.end_row = first_row;
        }
        if !first && first_row != out.end_row {
            return false; // discontinuity; open() would truncate here too
        }
        first = false;
        out.end_row = first_row + u64::from(n_txns);
        if n_dels > 0 {
            out.end_dseq += 1;
        }
        // Dual cursor: an entry is news if it advances the follower's row
        // cursor *or* its delete cursor (delete-only entries advance no
        // rows, so `end_row` alone would skip them forever).
        if (out.end_row > from_row || out.end_dseq > from_dseq)
            && out.entries.len() < max_entries
            && budget > 0
        {
            let Some((_, entry)) = ReplEntry::decode(body) else {
                return false;
            };
            budget = budget.saturating_sub(body.len() + 8);
            out.entries.push(entry);
            true
        } else {
            out.entries.len() < max_entries && budget != 0
        }
    })?;
    Ok(out)
}

/// Read-only integrity scan of raw log bytes, for `bbs fsck`.
///
/// A torn tail entry and debris stamped past the committed sequence are
/// *normal* (open truncates them, exactly as it rolls back uncommitted
/// rows) — the problems reported here are the ones open cannot heal: a
/// corrupt or discontinuous entry strictly *inside* the committed
/// stream, detectable because valid committed entries still follow it.
pub(crate) fn scan_problems(bytes: &[u8], committed_seq: u64, committed_rows: u64) -> Vec<String> {
    let mut expected_row: Option<u64> = None;
    sealed::scan(
        bytes,
        |seq, entry: &ReplEntry| seq <= committed_seq && entry.end_row() <= committed_rows,
        |entry, gap| {
            // An entry skipped as corrupt consumed unknown rows.
            let expected = expected_row.replace(entry.end_row()).filter(|_| !gap)?;
            (entry.first_row != expected)
                .then(|| format!("starts at row {} (expected {expected})", entry.first_row))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FileBackend, MemBackend, StorageBackend};
    use std::path::PathBuf;

    fn txn(tid: u64, items: &[u32]) -> Transaction {
        Transaction::new(tid, Itemset::from_values(items))
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bbs_replog_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn roundtrip_and_reopen() {
        let mut mem = MemBackend::new();
        {
            let mut log = ReplLog::open(&mut mem, 0, 0).expect("open");
            log.append_synced(1, 0, &[txn(1, &[1, 2]), txn(2, &[3])], &[(9, 0, 2)], &[])
                .expect("append");
            log.append_synced(2, 2, &[txn(3, &[1])], &[], &[]).expect("append");
            assert_eq!((log.start_row, log.tail_row, log.entries), (0, 3, 2));
        }
        let log = ReplLog::open(&mut mem, 2, 3).expect("reopen");
        assert_eq!((log.start_row, log.tail_row, log.entries), (0, 3, 2));
    }

    #[test]
    fn uncommitted_entries_are_debris_on_open() {
        let mut mem = MemBackend::new();
        {
            let mut log = ReplLog::open(&mut mem, 0, 0).expect("open");
            log.append_synced(1, 0, &[txn(1, &[1])], &[], &[]).expect("a");
            // Stamped for commit 2, but commit 2 "never happened".
            log.append_synced(2, 1, &[txn(2, &[2])], &[], &[]).expect("b");
        }
        let before = mem.len().expect("len");
        let log = ReplLog::open(&mut mem, 1, 1).expect("reopen at seq 1");
        assert_eq!((log.start_row, log.tail_row, log.entries), (0, 1, 1));
        assert!(mem.len().expect("len") < before, "debris truncated");
    }

    #[test]
    fn torn_tail_is_discarded() {
        let mut mem = MemBackend::new();
        {
            let mut log = ReplLog::open(&mut mem, 0, 0).expect("open");
            log.append_synced(1, 0, &[txn(1, &[1])], &[], &[]).expect("a");
            log.append_synced(2, 1, &[txn(2, &[2, 3, 4])], &[], &[]).expect("b");
        }
        let len = mem.len().expect("len");
        mem.set_len(len - 5).expect("tear");
        let log = ReplLog::open(&mut mem, 2, 2).expect("reopen");
        assert_eq!((log.tail_row, log.entries), (1, 1));
    }

    #[test]
    fn coverage_gap_resets_the_log() {
        let mut mem = MemBackend::new();
        let mut log = ReplLog::open(&mut mem, 0, 0).expect("open");
        log.append_synced(1, 0, &[txn(1, &[1])], &[], &[]).expect("a");
        // Rows 1..5 appended through a non-logging path; the next logged
        // batch starts at 5.
        log.append_synced(3, 5, &[txn(9, &[9])], &[], &[]).expect("reset");
        assert_eq!((log.start_row, log.tail_row, log.entries), (5, 6, 1));
        let log = ReplLog::open(&mut mem, 3, 6).expect("reopen");
        assert_eq!((log.start_row, log.tail_row), (5, 6));
    }

    #[test]
    fn stateless_reader_serves_from_row_and_respects_seq_cap() {
        let path = tmp("reader");
        std::fs::remove_file(&path).ok();
        {
            let backend = FileBackend::open(&path).expect("create");
            let mut log = ReplLog::open(backend, 0, 0).expect("open");
            log.append_synced(1, 0, &[txn(0, &[1]), txn(1, &[2])], &[(7, 0, 2)], &[])
                .expect("a");
            log.append_synced(2, 2, &[txn(2, &[3])], &[], &[]).expect("b");
            log.append_synced(3, 3, &[txn(3, &[4])], &[], &[]).expect("c");
        }
        let r = read_entries(&path, 0, 0, 64, usize::MAX, 3).expect("read");
        assert_eq!((r.start_row, r.end_row), (0, 4));
        assert_eq!(r.entries.len(), 3);
        assert_eq!(r.entries[0].receipts, vec![(7, 0, 2)]);

        // From a batch boundary: skip the already-applied prefix.
        let r = read_entries(&path, 2, 0, 64, usize::MAX, 3).expect("read");
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.entries[0].first_row, 2);

        // The seq cap hides entries whose commit has not landed yet.
        let r = read_entries(&path, 0, 0, 64, usize::MAX, 2).expect("read");
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.end_row, 3);

        // Caught up: nothing to send.
        let r = read_entries(&path, 4, 0, 64, usize::MAX, 3).expect("read");
        assert!(r.entries.is_empty());
        assert_eq!(r.end_row, 4);

        // Entry cap.
        let r = read_entries(&path, 0, 0, 1, usize::MAX, 3).expect("read");
        assert_eq!(r.entries.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_on_missing_file_is_empty_not_an_error() {
        let path = tmp("missing");
        std::fs::remove_file(&path).ok();
        let r = read_entries(&path, 0, 0, 64, usize::MAX, u64::MAX).expect("read");
        assert!(r.entries.is_empty());
        assert_eq!((r.start_row, r.end_row), (0, 0));
    }

    #[test]
    fn mid_entry_from_row_is_detectable_by_the_caller() {
        let path = tmp("midentry");
        std::fs::remove_file(&path).ok();
        {
            let backend = FileBackend::open(&path).expect("create");
            let mut log = ReplLog::open(backend, 0, 0).expect("open");
            log.append_synced(1, 0, &[txn(0, &[1]), txn(1, &[2])], &[], &[]).expect("a");
        }
        // Row 1 is inside the first batch: the first served entry starts
        // at 0, not 1 — the caller sees the mismatch and asks for resync.
        let r = read_entries(&path, 1, 0, 64, usize::MAX, 1).expect("read");
        assert_eq!(r.entries[0].first_row, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn delete_entries_roundtrip_and_count() {
        let mut mem = MemBackend::new();
        {
            let mut log = ReplLog::open(&mut mem, 0, 0).expect("open");
            log.append_synced(1, 0, &[txn(0, &[1]), txn(1, &[2])], &[], &[])
                .expect("ins");
            // Delete-only entry: advances no rows.
            log.append_synced(2, 2, &[], &[(77, 0, 1)], &[0]).expect("del");
            log.append_synced(3, 2, &[txn(2, &[3])], &[], &[]).expect("ins2");
            assert_eq!(log.tail_row, 3);
            assert_eq!(log.entries, 3);
            assert_eq!(log.delete_entries(), 1);
        }
        let log = ReplLog::open(&mut mem, 3, 3).expect("reopen");
        assert_eq!((log.tail_row, log.entries, log.delete_entries()), (3, 3, 1));
    }

    #[test]
    fn dual_cursor_serves_delete_only_entries() {
        let path = tmp("dualcursor");
        std::fs::remove_file(&path).ok();
        {
            let backend = FileBackend::open(&path).expect("create");
            let mut log = ReplLog::open(backend, 0, 0).expect("open");
            log.append_synced(1, 0, &[txn(0, &[1]), txn(1, &[2])], &[], &[])
                .expect("ins");
            log.append_synced(2, 2, &[], &[], &[1]).expect("del1");
            log.append_synced(3, 2, &[txn(2, &[3])], &[], &[]).expect("ins2");
            log.append_synced(4, 3, &[], &[], &[0]).expect("del2");
        }
        // A follower's (row, dseq) cursor always names a log prefix (it
        // applies entries in order).  Caught up on rows but behind one
        // delete — prefix after the second insert, i.e. (3, 1): only the
        // trailing delete is news.
        let r = read_entries(&path, 3, 1, 64, usize::MAX, 4).expect("read");
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.entries[0].deletes, vec![0]);
        assert!(r.entries[0].txns.is_empty());
        assert_eq!((r.end_row, r.end_dseq), (3, 2));

        // Prefix (2, 1): the second insert and the trailing delete are
        // served, in log order, and the delete-only entry advances no
        // rows (its first_row equals the follower's row cursor — the
        // same first-entry validation as inserts).
        let r = read_entries(&path, 2, 1, 64, usize::MAX, 4).expect("read");
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.entries[0].txns.len(), 1);
        assert_eq!(r.entries[1].deletes, vec![0]);
        assert_eq!(r.entries[1].first_row, 3);

        // Prefix (2, 0): both deletes and the second insert.
        let r = read_entries(&path, 2, 0, 64, usize::MAX, 4).expect("read");
        assert_eq!(r.entries.len(), 3);
        assert_eq!(r.entries[0].deletes, vec![1]);

        // Fully caught up on both cursors: nothing.
        let r = read_entries(&path, 3, 2, 64, usize::MAX, 4).expect("read");
        assert!(r.entries.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
