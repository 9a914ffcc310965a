//! The durable deletion slice: tombstones for the dynamic workload.
//!
//! The paper's index is append-only; §3.4's constraint-slice trick is what
//! makes deletes cheap anyway — a *deletion bit-slice* (one bit per row,
//! set when the row is tombstoned) is AND-NOTed into every `CountItemSet`,
//! so dead rows stop counting the instant the delete commits, and the
//! slice files themselves are rewritten lazily by compaction.
//!
//! `<base>.del` is the durable form: an append-only log of sealed delete
//! records (`sealed.rs`), replayed into an in-memory bitmap on open.
//! Where its append sits in a commit, and so why a record is durable iff
//! its commit landed, is DESIGN.md §7, "The commit ordering".
//!
//! # Record body
//!
//! ```text
//! seq u64 | n u32 | n × (row u64)
//! ```
//!
//! Rows are *row numbers*, not TIDs: row numbering is contiguous from 0
//! and identical between a primary and its followers (that is the
//! replication invariant), so the log replays byte-for-byte identically on
//! every replica.  Compaction renumbers rows and therefore resets this
//! file to empty together with the heap rewrite.

use crate::backend::StorageBackend;
use crate::sealed::{self, LogRecord};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// An immutable snapshot of the tombstone bitmap, shared with readers.
///
/// `words[row / 64] >> (row % 64) & 1` is 1 iff the row is deleted.  Rows
/// beyond `words.len() * 64` are live (the bitmap only grows as far as the
/// highest tombstoned row).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeadMask {
    /// The bitmap, little-endian within each word (bit `row % 64` of
    /// `words[row / 64]`).
    pub words: Vec<u64>,
    /// Number of set bits — the count of tombstoned rows.
    pub deleted: u64,
}

impl DeadMask {
    /// Is `row` tombstoned?
    pub fn is_dead(&self, row: u64) -> bool {
        self.words
            .get((row / 64) as usize)
            .is_some_and(|w| w >> (row % 64) & 1 == 1)
    }

    /// Tombstones `row`; a row already dead does not count twice.
    fn mark(&mut self, row: u64) {
        let word = (row / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1u64 << (row % 64);
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.deleted += 1;
        }
    }
}

/// One delete record: the rows one commit tombstoned.
struct DeleteRecord(Vec<u64>);

impl LogRecord for DeleteRecord {
    const MAX_BODY: u32 = 64 << 20;
    const FILE: &'static str = "deletion log";
    const RECORD: &'static str = "record";

    fn decode(body: &[u8]) -> Option<(u64, Self)> {
        let seq = u64::from_le_bytes(*body.first_chunk()?);
        let n = u32::from_le_bytes(body.get(8..12)?.try_into().ok()?) as usize;
        if body.len() != 12 + n * 8 {
            return None;
        }
        let rows = body[12..]
            .chunks_exact(8)
            .map(|row| u64::from_le_bytes(row.try_into().expect("8 bytes")))
            .collect();
        Some((seq, DeleteRecord(rows)))
    }
}

fn encode_record(seq: u64, rows: &[u64]) -> Vec<u8> {
    let mut body = Vec::with_capacity(12 + rows.len() * 8);
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for &row in rows {
        body.extend_from_slice(&row.to_le_bytes());
    }
    sealed::frame(&body)
}

/// The write side of one deployment's deletion log, plus the replayed
/// in-memory bitmap.
pub struct DelLog<B: StorageBackend> {
    backend: B,
    /// Append offset: the byte length of the valid prefix.
    tail_offset: u64,
    mask: DeadMask,
}

impl<B: StorageBackend> DelLog<B> {
    /// Opens the log, replaying the longest valid prefix of records
    /// stamped at or before `committed_seq` into the bitmap and truncating
    /// everything past it (a torn tail, or the record of a flush whose
    /// commit never landed).
    pub fn open(mut backend: B, committed_seq: u64) -> io::Result<Self> {
        let mut mask = DeadMask::default();
        let tail_offset = sealed::recover(&mut backend, committed_seq, |DeleteRecord(rows)| {
            rows.iter().for_each(|&row| mask.mark(row));
            true
        })?;
        Ok(DelLog {
            backend,
            tail_offset,
            mask,
        })
    }

    /// Marks rows in the in-memory bitmap only (no I/O) — used by the
    /// delete commit path, which needs the post-commit bitmap *before*
    /// the index flush stamps the counts file, while the durable record
    /// is written later in the flush ordering.  [`DelLog::record_synced`]
    /// re-marks idempotently.
    pub(crate) fn mark_rows(&mut self, rows: &[u64]) {
        rows.iter().for_each(|&row| self.mask.mark(row));
    }

    /// Number of tombstoned rows.
    pub fn deleted(&self) -> u64 {
        self.mask.deleted
    }

    /// Is `row` tombstoned?
    pub fn is_dead(&self, row: u64) -> bool {
        self.mask.is_dead(row)
    }

    /// An immutable snapshot of the current bitmap, for readers.
    pub fn mask(&self) -> Arc<DeadMask> {
        Arc::new(self.mask.clone())
    }

    /// Durably appends the delete record of a flush about to commit as
    /// sequence `seq`, and marks the rows in the bitmap.  Runs in the
    /// commit point's `.del` slot.  Rows already tombstoned are recorded
    /// but do not double-count.
    pub fn record_synced(&mut self, seq: u64, rows: &[u64]) -> io::Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        let buf = encode_record(seq, rows);
        self.backend.write_at(self.tail_offset, &buf)?;
        self.backend.sync()?;
        self.tail_offset += buf.len() as u64;
        self.mark_rows(rows);
        Ok(())
    }
}

/// Replays the committed prefix of a deletion log file into a bitmap,
/// without shared state — the read-side mirror of [`DelLog::open`], safe
/// to run concurrently with a writer appending.  Records stamped past
/// `upto_seq` are ignored.  A missing file is an empty bitmap, not an
/// error.
pub fn read_deletions(path: &Path, upto_seq: u64) -> io::Result<DeadMask> {
    let mut mask = DeadMask::default();
    sealed::read_committed::<DeleteRecord>(path, upto_seq, |body| {
        let Some((_, DeleteRecord(rows))) = DeleteRecord::decode(body) else {
            return false;
        };
        rows.iter().for_each(|&row| mask.mark(row));
        true
    })?;
    Ok(mask)
}

/// Read-only integrity scan of raw deletion-log bytes, for `bbs fsck`:
/// [`sealed::scan`], plus any committed record tombstoning rows at or past
/// the committed row count.
pub(crate) fn scan_del_problems(
    bytes: &[u8],
    committed_seq: u64,
    committed_rows: u64,
) -> Vec<String> {
    sealed::scan(
        bytes,
        |seq, _: &DeleteRecord| seq <= committed_seq,
        |DeleteRecord(rows), _| {
            let bad = rows.iter().find(|&&r| r >= committed_rows)?;
            Some(format!(
                "tombstones row {bad} past committed rows {committed_rows}"
            ))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn roundtrip_and_reopen() {
        let mut mem = MemBackend::new();
        {
            let mut log = DelLog::open(&mut mem, 0).expect("open");
            log.record_synced(1, &[3, 70]).expect("a");
            log.record_synced(2, &[5]).expect("b");
            assert_eq!(log.deleted(), 3);
            assert!(log.is_dead(70) && !log.is_dead(4));
        }
        let log = DelLog::open(&mut mem, 2).expect("reopen");
        assert_eq!(log.deleted(), 3);
        assert!(log.is_dead(3) && log.is_dead(5) && log.is_dead(70));
    }

    #[test]
    fn uncommitted_records_are_debris_on_open() {
        let mut mem = MemBackend::new();
        {
            let mut log = DelLog::open(&mut mem, 0).expect("open");
            log.record_synced(1, &[1]).expect("a");
            log.record_synced(2, &[2]).expect("b"); // commit 2 "never landed"
        }
        let before = mem.len().expect("len");
        let log = DelLog::open(&mut mem, 1).expect("reopen");
        assert_eq!(log.deleted(), 1);
        assert!(!log.is_dead(2));
        assert!(mem.len().expect("len") < before, "debris truncated");
    }

    #[test]
    fn torn_tail_is_discarded() {
        let mut mem = MemBackend::new();
        {
            let mut log = DelLog::open(&mut mem, 0).expect("open");
            log.record_synced(1, &[1]).expect("a");
            log.record_synced(2, &[2, 3, 4]).expect("b");
        }
        let len = mem.len().expect("len");
        mem.set_len(len - 3).expect("tear");
        let log = DelLog::open(&mut mem, 2).expect("reopen");
        assert_eq!(log.deleted(), 1);
    }

    #[test]
    fn repeated_rows_count_once() {
        let mut mem = MemBackend::new();
        let mut log = DelLog::open(&mut mem, 0).expect("open");
        log.record_synced(1, &[7]).expect("a");
        log.record_synced(2, &[7, 8]).expect("b");
        assert_eq!(log.deleted(), 2);
    }

    #[test]
    fn scan_flags_corruption_inside_committed_stream() {
        let mut mem = MemBackend::new();
        {
            let mut log = DelLog::open(&mut mem, 0).expect("open");
            log.record_synced(1, &[1]).expect("a");
            log.record_synced(2, &[2]).expect("b");
        }
        let len = mem.len().expect("len");
        let mut bytes = vec![0u8; len as usize];
        mem.read_at(0, &mut bytes).expect("read");
        // Flip a bit inside the first record's body.
        bytes[6] ^= 1;
        let problems = scan_del_problems(&bytes, 2, 10);
        assert!(
            problems.iter().any(|p| p.contains("corrupt record")),
            "{problems:?}"
        );
        // Clean bytes: no problems, and rows past committed are flagged.
        let mut clean = vec![0u8; len as usize];
        mem.read_at(0, &mut clean).expect("read");
        assert!(scan_del_problems(&clean, 2, 10).is_empty());
        assert!(!scan_del_problems(&clean, 2, 2).is_empty());
    }
}
