//! The exactly-once dedup log: request-ID → committed-row-range receipts,
//! persisted atomically with the commit record.
//!
//! A retried `Insert` whose first attempt actually committed must get the
//! *original* receipt back, not a second copy of its rows.  The server
//! keeps a bounded window of `(request id → first_row, appended)` receipts
//! in `<base>.dedup`; the window is what makes retries after timeouts,
//! dropped connections, and even server crashes idempotent.
//!
//! # Durability contract
//!
//! Entries are appended and synced in the commit point's `.dedup` slot
//! (DESIGN.md §7, "The commit ordering"), stamped with the sequence number
//! the commit is about to take, so a receipt is durable iff its rows are:
//! a crash before the commit record leaves entries stamped past the last
//! committed sequence, dropped as debris on open with the rows they
//! describe; after it, the client's retry is answered from the window.
//!
//! Each 40-byte entry is independently sealed (`sealed.rs`) — fixed
//! size, not length-prefixed, because of the compaction below.  Recovery
//! parses the longest valid prefix (a torn tail append simply vanishes)
//! and truncates the file back to it.  When the file grows past twice the
//! window it is compacted in place down to the live window — all
//! overwrites and a shrinking truncate, so compaction still succeeds on a
//! full disk.

use crate::backend::StorageBackend;
use crate::sealed::{seal, unseal};
use std::collections::{HashMap, VecDeque};
use std::io;

/// Entry size on disk: req_id, first_row, appended, seq, checksum.
const ENTRY_SIZE: usize = 40;

/// A committed insert receipt, as remembered by the dedup window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedupReceipt {
    /// First row of the committed batch.
    pub first_row: u64,
    /// Number of rows the batch appended.
    pub appended: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    req_id: u64,
    receipt: DedupReceipt,
    seq: u64,
}

fn encode(e: &Entry) -> [u8; ENTRY_SIZE] {
    let mut buf = [0u8; ENTRY_SIZE];
    buf[0..8].copy_from_slice(&e.req_id.to_le_bytes());
    buf[8..16].copy_from_slice(&e.receipt.first_row.to_le_bytes());
    buf[16..24].copy_from_slice(&e.receipt.appended.to_le_bytes());
    buf[24..32].copy_from_slice(&e.seq.to_le_bytes());
    seal(&mut buf);
    buf
}

fn decode(buf: &[u8]) -> Option<Entry> {
    let body = unseal(buf.get(..ENTRY_SIZE)?)?;
    let word = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes"));
    Some(Entry {
        req_id: word(0),
        receipt: DedupReceipt {
            first_row: word(8),
            appended: word(16),
        },
        seq: word(24),
    })
}

/// The bounded, persistent request-ID dedup window of one deployment.
pub struct DedupLog<B: StorageBackend> {
    backend: B,
    window: usize,
    /// Insertion order, oldest first (the eviction order).
    order: VecDeque<u64>,
    map: HashMap<u64, Entry>,
    /// Entries currently occupying the file (live + superseded).
    file_entries: u64,
}

impl<B: StorageBackend> DedupLog<B> {
    /// Opens the log, replaying the longest valid prefix of the file and
    /// dropping debris entries stamped past `committed_seq` (receipts of a
    /// flush whose commit record never landed).  The file is truncated
    /// back to what was kept.
    pub fn open(mut backend: B, window: usize, committed_seq: u64) -> io::Result<Self> {
        let len = backend.len()?;
        let mut bytes = vec![0u8; len as usize];
        backend.read_at(0, &mut bytes)?;
        let mut log = DedupLog {
            backend,
            window: window.max(1),
            order: VecDeque::new(),
            map: HashMap::new(),
            file_entries: 0,
        };
        let mut keep = 0u64;
        for chunk in bytes.chunks_exact(ENTRY_SIZE) {
            // A torn tail append fails the checksum: stop at the first
            // invalid entry (appends are strictly sequential).
            let Some(entry) = decode(chunk) else { break };
            if entry.seq > committed_seq {
                // Debris from an interrupted flush — the rows it vouches
                // for were rolled back too.
                break;
            }
            keep += 1;
            log.remember(entry);
        }
        log.file_entries = keep;
        if keep * ENTRY_SIZE as u64 != len {
            log.backend.set_len(keep * ENTRY_SIZE as u64)?;
            log.backend.sync()?;
        }
        Ok(log)
    }

    /// The receipt previously committed for `req_id`, if it is still in
    /// the window.
    pub fn lookup(&self, req_id: u64) -> Option<DedupReceipt> {
        self.map.get(&req_id).map(|e| e.receipt)
    }

    /// Live entries in the window.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// The live window in insertion order (oldest first) — what
    /// compaction carries into the rewritten deployment so retried
    /// requests still answer with their original receipts.
    pub fn entries(&self) -> Vec<(u64, DedupReceipt)> {
        self.order
            .iter()
            .filter_map(|id| self.map.get(id).map(|e| (*id, e.receipt)))
            .collect()
    }

    /// True when no receipt is remembered.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Resizes the window; shrinking evicts the oldest receipts now (the
    /// file catches up at the next compaction).
    pub fn set_window(&mut self, window: usize) {
        self.window = window.max(1);
        self.evict();
    }

    /// Drops the oldest receipts until the window holds.
    fn evict(&mut self) {
        while self.order.len() > self.window {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
        }
    }

    /// Durably records the receipts of a flush that is *about* to commit
    /// as sequence `seq`: appended and synced, compacting the file down
    /// to the live window first when it has grown past twice the window.
    /// Runs in the commit point's `.dedup` slot.
    ///
    /// Compaction rewrites the live window and the new entries in one
    /// write starting at offset 0 followed by a single truncate — on a
    /// steady-state full disk that is an overwrite plus a shrink, so the
    /// window keeps committing receipts with zero free space.
    pub fn record_synced(&mut self, seq: u64, receipts: &[(u64, DedupReceipt)]) -> io::Result<()> {
        if receipts.is_empty() {
            return Ok(());
        }
        let compacting = self.file_entries as usize + receipts.len() > 2 * self.window;
        let mut buf = Vec::with_capacity(
            (if compacting { self.order.len() } else { 0 } + receipts.len()) * ENTRY_SIZE,
        );
        if compacting {
            for req_id in &self.order {
                buf.extend_from_slice(&encode(&self.map[req_id]));
            }
        }
        let mut entries = Vec::with_capacity(receipts.len());
        for &(req_id, receipt) in receipts {
            let e = Entry {
                req_id,
                receipt,
                seq,
            };
            buf.extend_from_slice(&encode(&e));
            entries.push(e);
        }
        let (start, total) = if compacting {
            (0, (buf.len() / ENTRY_SIZE) as u64)
        } else {
            (self.file_entries, self.file_entries + entries.len() as u64)
        };
        self.backend.write_at(start * ENTRY_SIZE as u64, &buf)?;
        if compacting {
            self.backend.set_len(total * ENTRY_SIZE as u64)?;
        }
        self.backend.sync()?;
        // Memory is updated only after the bytes are durable; on a failed
        // commit the writer is reopened from disk anyway.
        self.file_entries = total;
        for e in entries {
            self.remember(e);
        }
        Ok(())
    }

    fn remember(&mut self, entry: Entry) {
        if self.map.insert(entry.req_id, entry).is_none() {
            self.order.push_back(entry.req_id);
        } else {
            // Re-recorded id: refresh its position in the eviction order.
            self.order.retain(|&id| id != entry.req_id);
            self.order.push_back(entry.req_id);
        }
        self.evict();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FaultPlan, MemBackend};

    fn receipt(first_row: u64, appended: u64) -> DedupReceipt {
        DedupReceipt {
            first_row,
            appended,
        }
    }

    #[test]
    fn record_and_lookup_roundtrip() {
        let mut log = DedupLog::open(MemBackend::new(), 8, 0).expect("open");
        log.record_synced(1, &[(10, receipt(0, 5)), (11, receipt(5, 3))])
            .expect("record");
        assert_eq!(log.lookup(10), Some(receipt(0, 5)));
        assert_eq!(log.lookup(11), Some(receipt(5, 3)));
        assert_eq!(log.lookup(12), None);
    }

    #[test]
    fn survives_reopen_and_window_evicts_oldest() {
        let mut mem = MemBackend::new();
        {
            let mut log = DedupLog::open(&mut mem, 3, 0).expect("open");
            for i in 0..5u64 {
                log.record_synced(i + 1, &[(i, receipt(i * 10, 10))])
                    .expect("record");
            }
            assert_eq!(log.len(), 3);
            assert_eq!(log.lookup(0), None, "evicted");
            assert_eq!(log.lookup(1), None, "evicted");
            assert_eq!(log.lookup(4), Some(receipt(40, 10)));
        }
        let log = DedupLog::open(&mut mem, 3, 5).expect("reopen");
        assert_eq!(log.len(), 3);
        assert_eq!(log.lookup(2), Some(receipt(20, 10)));
        assert_eq!(log.lookup(4), Some(receipt(40, 10)));
        assert_eq!(log.lookup(0), None);
    }

    #[test]
    fn uncommitted_entries_are_debris_on_open() {
        let mut mem = MemBackend::new();
        {
            let mut log = DedupLog::open(&mut mem, 8, 0).expect("open");
            log.record_synced(1, &[(7, receipt(0, 4))]).expect("record");
            // Stamped for commit 2, but commit 2 "never happened".
            log.record_synced(2, &[(8, receipt(4, 4))]).expect("record");
        }
        let log = DedupLog::open(&mut mem, 8, 1).expect("reopen at seq 1");
        assert_eq!(log.lookup(7), Some(receipt(0, 4)), "committed survives");
        assert_eq!(log.lookup(8), None, "uncommitted receipt dropped");
        assert_eq!(mem.len().expect("len"), ENTRY_SIZE as u64, "truncated");
    }

    #[test]
    fn torn_tail_is_discarded() {
        let mut mem = MemBackend::new();
        {
            let mut log = DedupLog::open(&mut mem, 8, 0).expect("open");
            log.record_synced(1, &[(1, receipt(0, 2))]).expect("record");
            log.record_synced(2, &[(2, receipt(2, 2))]).expect("record");
        }
        // Tear the second entry in half.
        mem.set_len(ENTRY_SIZE as u64 + 17).expect("tear");
        let log = DedupLog::open(&mut mem, 8, 2).expect("reopen");
        assert_eq!(log.lookup(1), Some(receipt(0, 2)));
        assert_eq!(log.lookup(2), None);
        assert_eq!(mem.len().expect("len"), ENTRY_SIZE as u64);
    }

    #[test]
    fn compaction_keeps_the_window_and_works_on_a_full_disk() {
        let plan = FaultPlan::counting();
        let mut b = plan.wrap("dedup", MemBackend::new());
        let mut log = DedupLog::open(&mut b, 4, 0).expect("open");
        for i in 0..8u64 {
            log.record_synced(i + 1, &[(i, receipt(i, 1))]).expect("record");
        }
        // File is at 2x the window; the next record compacts first.  With
        // the disk full the compaction (overwrite + shrink) must succeed,
        // and the append fits inside the freed extent.
        plan.set_disk_full(true);
        log.record_synced(9, &[(100, receipt(100, 1))]).expect("record");
        plan.set_disk_full(false);
        assert_eq!(log.len(), 4);
        assert_eq!(log.lookup(100), Some(receipt(100, 1)));
        assert_eq!(log.lookup(7), Some(receipt(7, 1)));
        assert_eq!(log.lookup(4), None, "outside the window");
        drop(log);
        let log = DedupLog::open(&mut b, 4, 9).expect("reopen");
        assert_eq!(log.len(), 4);
        assert_eq!(log.lookup(100), Some(receipt(100, 1)));
    }

    #[test]
    fn re_recorded_id_refreshes_instead_of_duplicating() {
        let mut log = DedupLog::open(MemBackend::new(), 2, 0).expect("open");
        log.record_synced(1, &[(5, receipt(0, 1))]).expect("a");
        log.record_synced(2, &[(6, receipt(1, 1))]).expect("b");
        log.record_synced(3, &[(5, receipt(0, 1))]).expect("refresh");
        log.record_synced(4, &[(7, receipt(2, 1))]).expect("c");
        // 6 was the oldest once 5 was refreshed.
        assert_eq!(log.lookup(6), None);
        assert_eq!(log.lookup(5), Some(receipt(0, 1)));
        assert_eq!(log.lookup(7), Some(receipt(2, 1)));
    }
}
