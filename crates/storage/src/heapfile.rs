//! The durable transaction store: an append-only heap file plus a
//! positional index.
//!
//! The paper's Probe refiner assumes "an index … on the database [whose]
//! key is the relative position of the transaction from the beginning of
//! the file" (§3.2).  That is exactly the pair of files here:
//!
//! * `<base>.dat` — records appended back to back (records may span pages):
//!   `tid u64 | item-count u32 | items u32…`
//! * `<base>.idx` — page 0 is a header (magic, record count, data tail);
//!   subsequent pages hold one `u64` byte-offset per record.
//!
//! All access goes through bounded LRU page caches, so sequential scans and
//! random probes exhibit real hit/miss behaviour.

use crate::backend::{FileBackend, StorageBackend};
use crate::bytes;
use crate::cache::{CacheStats, PageCache};
use crate::pager::{PageId, Pager, PAGE_SIZE};
use bbs_tdb::{ItemId, Itemset, Transaction};
use std::io;
use std::path::Path;

const IDX_MAGIC: u64 = 0x4242_5348_4541_5031; // "BBSHEAP1"
/// Header layout in the index file's page 0.
const H_MAGIC: u64 = 0;
const H_COUNT: u64 = 8;
const H_TAIL: u64 = 16;
/// First byte of index entries (page 1).
pub(crate) const IDX_ENTRIES: u64 = PAGE_SIZE as u64;

/// A disk-backed transaction database.
pub struct HeapFile<B: StorageBackend = FileBackend> {
    data: PageCache<B>,
    idx: PageCache<B>,
    count: u64,
    tail: u64,
}

/// Number of index-file pages a committed row count occupies (the header
/// page plus full or partial entry pages).
pub(crate) fn idx_pages_for_rows(rows: u64) -> u64 {
    (IDX_ENTRIES + rows * 8).div_ceil(PAGE_SIZE as u64)
}

impl HeapFile<FileBackend> {
    /// Opens (creating if absent) the heap file at `<base>.dat/.idx` with
    /// the given cache sizes (in pages) for data and index.
    pub fn open(base: &Path, data_cache_pages: usize, idx_cache_pages: usize) -> io::Result<Self> {
        let paths = crate::files::deployment_paths(base);
        HeapFile::open_with(
            FileBackend::open(&paths.dat)?,
            FileBackend::open(&paths.idx)?,
            data_cache_pages,
            idx_cache_pages,
            None,
        )
    }
}

/// The committed boundary of a heap file, as a recovery target.
#[derive(Debug, Clone, Copy)]
pub struct HeapRecoverPoint {
    /// Committed record count.
    pub rows: u64,
    /// Committed data tail in bytes.
    pub tail: u64,
    /// Commit-record digest of the committed data boundary page.
    pub dat_digest: u64,
    /// Commit-record digest of the committed last index entry page.
    pub idx_digest: u64,
}

/// Restores the boundary page of one file to its committed content:
/// reads it raw (its digest may not verify after a torn write), zeroes
/// everything from byte `keep` on — committed bytes are a pure prefix, so
/// this reconstructs exactly the committed page — and checks the result
/// against the digest the commit record vouched for.  A mismatch means
/// the committed prefix itself is damaged (e.g. a flipped bit), which
/// recovery must surface, never re-checksum into validity.
fn restore_boundary_page<B: StorageBackend>(
    pager: &mut Pager<B>,
    last: PageId,
    keep: usize,
    committed_digest: u64,
) -> io::Result<()> {
    let mut page = pager.read_page_raw(last)?;
    page[keep..].fill(0);
    let actual = crate::pager::page_digest(&page);
    if actual != committed_digest {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            crate::pager::ChecksumMismatch {
                page: last.0,
                expected: committed_digest,
                actual,
            },
        ));
    }
    pager.write_page(last, &page)
}

/// Rolls the data and index files back to exactly the committed boundary.
///
/// Idempotent: every step either truncates to a fixed length or rewrites
/// a page to content derived purely from the commit record and committed
/// bytes, so a crash *during* recovery just means recovery runs again.
fn recover<B: StorageBackend>(
    data: &mut Pager<B>,
    idx: &mut Pager<B>,
    to: HeapRecoverPoint,
) -> io::Result<()> {
    // Data file: keep the pages holding bytes [0, tail); restore the
    // boundary page.
    let data_pages = to.tail.div_ceil(PAGE_SIZE as u64);
    data.truncate_logical(data_pages)?;
    if data_pages > 0 {
        let keep = (to.tail - (data_pages - 1) * PAGE_SIZE as u64) as usize;
        restore_boundary_page(data, PageId(data_pages - 1), keep, to.dat_digest)?;
    }

    // Index file: header page + entry pages for `rows` entries.
    let idx_pages = idx_pages_for_rows(to.rows);
    idx.truncate_logical(idx_pages)?;
    if to.rows > 0 {
        let entry_end = IDX_ENTRIES + to.rows * 8;
        let keep = (entry_end - (idx_pages - 1) * PAGE_SIZE as u64) as usize;
        restore_boundary_page(idx, PageId(idx_pages - 1), keep, to.idx_digest)?;
    }

    // The header is rebuilt from the commit record, not trusted from disk
    // (it is rewritten on every append, so a torn write may have hit it).
    let mut header = crate::pager::zeroed_page();
    header[H_MAGIC as usize..H_MAGIC as usize + 8].copy_from_slice(&IDX_MAGIC.to_le_bytes());
    header[H_COUNT as usize..H_COUNT as usize + 8].copy_from_slice(&to.rows.to_le_bytes());
    header[H_TAIL as usize..H_TAIL as usize + 8].copy_from_slice(&to.tail.to_le_bytes());
    idx.write_page(PageId(0), &header)?;
    Ok(())
}

impl<B: StorageBackend> HeapFile<B> {
    /// Opens a heap file over explicit backends.
    ///
    /// With `recover_to` set, the files are first rolled back to that
    /// committed boundary (see [`crate::diskbbs::DiskDeployment`] for
    /// where the boundary comes from).
    pub fn open_with(
        dat: B,
        idxb: B,
        data_cache_pages: usize,
        idx_cache_pages: usize,
        recover_to: Option<HeapRecoverPoint>,
    ) -> io::Result<Self> {
        let mut data_pager = Pager::new(dat)?;
        let mut idx_pager = Pager::new(idxb)?;
        if let Some(to) = recover_to {
            recover(&mut data_pager, &mut idx_pager, to)?;
        }
        let data = PageCache::new(data_pager, data_cache_pages);
        let mut idx = PageCache::new(idx_pager, idx_cache_pages);

        let (count, tail) = if idx.page_count() == 0 {
            bytes::write_u64(&mut idx, H_MAGIC, IDX_MAGIC)?;
            bytes::write_u64(&mut idx, H_COUNT, 0)?;
            bytes::write_u64(&mut idx, H_TAIL, 0)?;
            (0, 0)
        } else {
            let magic = bytes::read_u64(&mut idx, H_MAGIC)?;
            if magic != IDX_MAGIC {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "not a BBS heap-file index",
                ));
            }
            (
                bytes::read_u64(&mut idx, H_COUNT)?,
                bytes::read_u64(&mut idx, H_TAIL)?,
            )
        };
        Ok(HeapFile {
            data,
            idx,
            count,
            tail,
        })
    }

    /// Number of stored transactions.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True if no transactions are stored.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Size of the data file's used portion, in bytes.
    pub fn data_bytes(&self) -> u64 {
        self.tail
    }

    /// Cache statistics of the data file (the interesting ones for probe
    /// vs scan comparisons).
    pub fn data_cache_stats(&self) -> CacheStats {
        self.data.stats()
    }

    /// Appends a transaction; returns its row position.
    pub fn append(&mut self, txn: &Transaction) -> io::Result<u64> {
        let row = self.count;
        let offset = self.tail;
        // Record body.
        bytes::write_u64(&mut self.data, offset, txn.tid.0)?;
        bytes::write_u32(&mut self.data, offset + 8, txn.items.len() as u32)?;
        let mut at = offset + 12;
        for item in txn.items.items() {
            bytes::write_u32(&mut self.data, at, item.0)?;
            at += 4;
        }
        // Index entry + header update.
        bytes::write_u64(&mut self.idx, IDX_ENTRIES + row * 8, offset)?;
        self.count += 1;
        self.tail = at;
        bytes::write_u64(&mut self.idx, H_COUNT, self.count)?;
        bytes::write_u64(&mut self.idx, H_TAIL, self.tail)?;
        Ok(row)
    }

    /// Byte offset of a row in the data file.
    fn offset_of(&mut self, row: u64) -> io::Result<u64> {
        bytes::read_u64(&mut self.idx, IDX_ENTRIES + row * 8)
    }

    fn read_record_at(&mut self, offset: u64) -> io::Result<(Transaction, u64)> {
        let tid = bytes::read_u64(&mut self.data, offset)?;
        let n = bytes::read_u32(&mut self.data, offset + 8)? as usize;
        let mut raw = vec![0u8; n * 4];
        bytes::read_bytes(&mut self.data, offset + 12, &mut raw)?;
        let items: Vec<ItemId> = raw
            .chunks_exact(4)
            .map(|c| ItemId(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
            .collect();
        Ok((
            Transaction::new(tid, Itemset::from_items(items)),
            offset + 12 + (n as u64) * 4,
        ))
    }

    /// Fetches one transaction by row position (a probe: the positional
    /// index resolves the offset, then the record pages are read).
    ///
    /// # Panics
    /// Panics if `row >= len()`.
    pub fn get(&mut self, row: u64) -> io::Result<Transaction> {
        assert!(row < self.count, "row {row} out of range ({})", self.count);
        let offset = self.offset_of(row)?;
        Ok(self.read_record_at(offset)?.0)
    }

    /// Sequentially scans every record in file order.
    pub fn for_each(&mut self, f: impl FnMut(u64, &Transaction)) -> io::Result<()> {
        self.for_each_prefix(self.count, f)
    }

    /// Sequentially scans the first `rows` records in file order — the
    /// snapshot-clamped scan: records are append-only and immutable, so the
    /// prefix is exactly the database as of the moment it was `rows` long.
    ///
    /// # Panics
    /// Panics if `rows > len()`.
    pub fn for_each_prefix(
        &mut self,
        rows: u64,
        mut f: impl FnMut(u64, &Transaction),
    ) -> io::Result<()> {
        assert!(rows <= self.count, "prefix {rows} > {} rows", self.count);
        let mut offset = 0u64;
        for row in 0..rows {
            let (txn, next) = self.read_record_at(offset)?;
            f(row, &txn);
            offset = next;
        }
        Ok(())
    }

    /// Loads the full contents into an in-memory [`bbs_tdb::TransactionDb`]
    /// (the substrate the miners run against).
    pub fn load(&mut self) -> io::Result<bbs_tdb::TransactionDb> {
        self.load_prefix(self.count)
    }

    /// Loads the first `rows` records into an in-memory
    /// [`bbs_tdb::TransactionDb`] (see [`HeapFile::for_each_prefix`]).
    pub fn load_prefix(&mut self, rows: u64) -> io::Result<bbs_tdb::TransactionDb> {
        let mut db = bbs_tdb::TransactionDb::new();
        self.for_each_prefix(rows, |_, txn| {
            db.push(txn.clone());
        })?;
        Ok(db)
    }

    /// Flushes both files.
    pub fn flush(&mut self) -> io::Result<()> {
        self.data.flush()?;
        self.idx.flush()
    }

    /// Digests of the two boundary pages as they stand right now.
    ///
    /// Called at commit time, when the cached content *is* the content
    /// being committed: bytes past the tail (resp. past the last index
    /// entry) inside the boundary page are zero, so these digests equal
    /// what recovery will reconstruct.  Zero when the file is empty.
    pub(crate) fn boundary_digests(&mut self) -> io::Result<(u64, u64)> {
        let dat = if self.tail == 0 {
            0
        } else {
            let last = PageId((self.tail - 1) / PAGE_SIZE as u64);
            self.data.with_page(last, crate::pager::page_digest)?
        };
        let idx = if self.count == 0 {
            0
        } else {
            let entry_end = IDX_ENTRIES + self.count * 8;
            let last = PageId((entry_end - 1) / PAGE_SIZE as u64);
            self.idx.with_page(last, crate::pager::page_digest)?
        };
        Ok((dat, idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn base(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bbs_heap_{}_{}", std::process::id(), name));
        p
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            crate::files::remove_files(&self.0);
        }
    }

    fn txn(tid: u64, items: &[u32]) -> Transaction {
        Transaction::new(tid, Itemset::from_values(items))
    }

    #[test]
    fn append_get_roundtrip() {
        let b = base("roundtrip");
        let _g = Cleanup(b.clone());
        let mut heap = HeapFile::open(&b, 8, 4).expect("open");
        assert!(heap.is_empty());
        heap.append(&txn(100, &[1, 2, 3])).expect("append");
        heap.append(&txn(200, &[9])).expect("append");
        assert_eq!(heap.len(), 2);
        assert_eq!(heap.get(0).expect("get"), txn(100, &[1, 2, 3]));
        assert_eq!(heap.get(1).expect("get"), txn(200, &[9]));
    }

    #[test]
    fn survives_reopen() {
        let b = base("reopen");
        let _g = Cleanup(b.clone());
        {
            let mut heap = HeapFile::open(&b, 8, 4).expect("open");
            for i in 0..50 {
                heap.append(&txn(i, &[i as u32, i as u32 + 1])).expect("append");
            }
            heap.flush().expect("flush");
        }
        let mut heap = HeapFile::open(&b, 8, 4).expect("reopen");
        assert_eq!(heap.len(), 50);
        assert_eq!(heap.get(49).expect("get"), txn(49, &[49, 50]));
        // Appending after reopen continues the sequence.
        heap.append(&txn(50, &[7])).expect("append");
        assert_eq!(heap.len(), 51);
        assert_eq!(heap.get(50).expect("get"), txn(50, &[7]));
    }

    #[test]
    fn records_spanning_pages() {
        let b = base("spanning");
        let _g = Cleanup(b.clone());
        let mut heap = HeapFile::open(&b, 8, 4).expect("open");
        // A record of ~2000 items is ~8 KB: guaranteed to span pages.
        let big: Vec<u32> = (0..2000).collect();
        heap.append(&txn(1, &big)).expect("append");
        heap.append(&txn(2, &[5])).expect("append");
        assert_eq!(heap.get(0).expect("get").items.len(), 2000);
        assert_eq!(heap.get(1).expect("get"), txn(2, &[5]));
    }

    #[test]
    fn scan_visits_in_order() {
        let b = base("scan");
        let _g = Cleanup(b.clone());
        let mut heap = HeapFile::open(&b, 8, 4).expect("open");
        for i in 0..20 {
            heap.append(&txn(i * 10, &[i as u32])).expect("append");
        }
        let mut seen = Vec::new();
        heap.for_each(|row, t| seen.push((row, t.tid.0))).expect("scan");
        assert_eq!(seen.len(), 20);
        assert!(seen.iter().enumerate().all(|(i, &(r, tid))| r == i as u64 && tid == i as u64 * 10));
    }

    #[test]
    fn load_matches_in_memory_db() {
        let b = base("load");
        let _g = Cleanup(b.clone());
        let mut heap = HeapFile::open(&b, 8, 4).expect("open");
        let txns = vec![txn(5, &[1, 2]), txn(6, &[3]), txn(7, &[1, 3, 9])];
        for t in &txns {
            heap.append(t).expect("append");
        }
        let db = heap.load().expect("load");
        assert_eq!(db.transactions(), &txns[..]);
    }

    #[test]
    fn probes_hit_cache_on_repeat() {
        let b = base("probecache");
        let _g = Cleanup(b.clone());
        let mut heap = HeapFile::open(&b, 64, 4).expect("open");
        for i in 0..200 {
            heap.append(&txn(i, &[i as u32, (i + 1) as u32])).expect("append");
        }
        heap.flush().expect("flush");
        let misses_before = heap.data_cache_stats().misses;
        heap.get(100).expect("probe");
        heap.get(100).expect("probe again");
        let stats = heap.data_cache_stats();
        // The second probe must be all hits.
        assert!(stats.misses <= misses_before + 1, "{stats:?}");
        assert!(stats.hits > 0);
    }

    #[test]
    fn rejects_foreign_index_file() {
        let b = base("foreign");
        let _g = Cleanup(b.clone());
        // Two physical pages: the first is read as a checksum page, the
        // second as data — garbage in both means a failed magic check or a
        // checksum mismatch, never silent adoption.
        std::fs::write(b.with_extension("idx"), vec![0xFFu8; 2 * PAGE_SIZE]).expect("write");
        std::fs::write(b.with_extension("dat"), Vec::<u8>::new()).expect("write");
        assert!(HeapFile::open(&b, 4, 4).is_err());
    }
}
