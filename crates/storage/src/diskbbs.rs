//! The durable BBS: a slice file plus persisted exact 1-itemset counts,
//! and the crash-safe deployment that ties it to the heap file.
//!
//! This is the paper's "dynamic and persistent data structure" made
//! literal: the index lives on disk next to the database, transactions
//! append to it incrementally (no reconstruction, ever), and a mining run
//! either loads it into memory once (the memory-resident mode of §4) or
//! queries it in place through the page cache — which is what every
//! request path does: offline, sharded and served mining, and every
//! served count, walk [`DiskCounter`] cursors over the file where it lies.
//! [`DiskBbs::count_itemsets`] is the naive per-query AND beside them, the
//! reference the tests hold the cursor to.
//!
//! # Durability
//!
//! What a [`DiskDeployment`] keeps on disk, how it opens and in what order
//! a commit writes are stated once, in DESIGN.md §7: the file table is
//! `files.rs`, the open sequence `DiskDeployment::open_at`, the
//! commit ordering `DiskDeployment::commit_point`.  In short: appends are
//! buffered in the page caches; a flush syncs every data file **first**
//! and writes the commit record **last**; on open the commit record is the
//! sole authority and everything past it is rolled back, so a reopened
//! deployment is always exactly some committed prefix.  The counts file is
//! a rebuildable cache: if it is missing, corrupt, or stale, it is
//! regenerated by one scan of the heap file.

use crate::backend::{FileBackend, StorageBackend};
use crate::commit::{latest_commit, Commit, CommitFile};
use crate::dedup::{DedupLog, DedupReceipt};
use crate::del::{DeadMask, DelLog};
pub use crate::files::{deployment_paths, DeploymentBackends, DeploymentPaths};
use crate::heapfile::{self, HeapFile, HeapRecoverPoint};
use crate::maintain::PendingSwap;
use crate::pager::{
    chain_digest, checksum_phys_of, logical_pages_for_phys, page_digest, phys_of,
    ChecksumMismatch, CHAIN_SEED, PAGE_SIZE,
};
use crate::replog::ReplLog;
use crate::sealed::{sealed, unseal};
use crate::slicefile::{clear_uncommitted_bits, mask_from, SliceFile, CHUNK_ROWS};
use bbs_core::cursor::union_positions;
use bbs_core::{Bbs, CountSource, Cursor, CursorStats};
use bbs_hash::ItemHasher;
use bbs_tdb::{ItemId, Itemset, Transaction, TransactionDb};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

const CNT_MAGIC: &[u8; 8] = b"BBSCNTS3";

/// A disk-backed BBS index.
///
/// Counting (`count_itemset`, `count_itemsets`) takes `&self`: the
/// slice file and the position cache synchronise internally, so a shared
/// reference — including one shared across scoped threads — can serve
/// `CountItemSet` queries.  For genuine read parallelism (no shared page
/// cache), spawn independent readers with [`DiskBbs::counter`].
pub struct DiskBbs<B: StorageBackend = FileBackend> {
    slices: SliceFile<B>,
    counts: B,
    hasher: Arc<dyn ItemHasher>,
    item_counts: HashMap<ItemId, u64>,
    counts_stale: bool,
    /// Cached deduplicated positions per item (lock-guarded so `&self`
    /// counting can populate it).
    positions: Mutex<HashMap<ItemId, Vec<usize>>>,
    /// A second descriptor on the slice file when file-backed — what
    /// [`DiskBbs::counter`] duplicates for clone-per-worker readers, so
    /// they read the file this index has open even after maintenance
    /// renamed another one over its path.
    reader_file: Option<FileBackend>,
    cache_pages: usize,
    /// Tombstone bitmap AND-NOTed into every count (§3.4's constraint-
    /// slice trick).  `None` = nothing deleted.
    dead: Option<Arc<DeadMask>>,
}

impl DiskBbs<FileBackend> {
    /// Opens (creating if absent) a durable index at `<base>.slices` /
    /// `<base>.counts` with the given slice-cache size in pages.
    pub fn open(
        base: &Path,
        width: usize,
        hasher: Arc<dyn ItemHasher>,
        cache_pages: usize,
    ) -> io::Result<Self> {
        let paths = deployment_paths(base);
        let slices = FileBackend::open(&paths.slices)?;
        let reader_file = slices.try_clone()?;
        let mut bbs = DiskBbs::open_with(
            slices,
            FileBackend::open(&paths.counts)?,
            width,
            hasher,
            cache_pages,
            None,
            None,
        )?;
        bbs.reader_file = Some(reader_file);
        if bbs.counts_stale {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "counts file is missing, corrupt, or stale; \
                 open the full deployment to rebuild it",
            ));
        }
        Ok(bbs)
    }
}

impl<B: StorageBackend> DiskBbs<B> {
    /// Opens an index over explicit backends.
    ///
    /// With `recover_to = Some((rows, slices_digest))`, the slice file is
    /// rolled back to that committed row count (the reconstructed
    /// boundary-chunk pages must match the commit record's digest), and a
    /// counts file that fails validation is tolerated (flagged stale for
    /// the caller to rebuild) instead of rejected.
    ///
    /// With `expected_deleted = Some(d)`, the counts file is additionally
    /// required to be stamped for exactly `d` tombstoned rows — this is
    /// what catches a crash between a delete's counts rewrite and its
    /// commit record, where the row stamp alone would still match.
    pub fn open_with(
        slices: B,
        mut counts: B,
        width: usize,
        hasher: Arc<dyn ItemHasher>,
        cache_pages: usize,
        recover_to: Option<(u64, u64)>,
        expected_deleted: Option<u64>,
    ) -> io::Result<Self> {
        let slices = SliceFile::open_with(slices, width, cache_pages, recover_to)?;
        let (item_counts, counts_stale) = match read_counts(&mut counts) {
            Ok(Some((rows, deleted, map)))
                if rows == slices.rows() && expected_deleted.is_none_or(|d| d == deleted) =>
            {
                (map, false)
            }
            Ok(None) if slices.rows() == 0 => (HashMap::new(), false),
            Ok(_) | Err(_) => (HashMap::new(), true),
        };
        Ok(DiskBbs {
            slices,
            counts,
            hasher,
            item_counts,
            counts_stale,
            positions: Mutex::new(HashMap::new()),
            reader_file: None,
            cache_pages,
            dead: None,
        })
    }

    /// Installs the tombstone bitmap every subsequent count masks out
    /// (`None` = nothing deleted).  The deployment keeps this in lock-step
    /// with its deletion log; snapshot readers receive the mask of the
    /// committed state they were opened at.
    pub fn set_dead_mask(&mut self, dead: Option<Arc<DeadMask>>) {
        self.dead = dead.filter(|d| d.deleted > 0);
    }

    /// The installed tombstone bitmap, if any.
    pub fn dead_mask(&self) -> Option<&Arc<DeadMask>> {
        self.dead.as_ref()
    }

    /// Tombstoned rows (rows the counts no longer include).
    pub fn deleted_rows(&self) -> u64 {
        self.dead.as_ref().map_or(0, |d| d.deleted)
    }

    /// Live rows: appended rows minus tombstoned rows.
    pub fn live_rows(&self) -> u64 {
        self.rows() - self.deleted_rows()
    }

    /// Decrements the exact 1-itemset counts for a tombstoned transaction
    /// (the delete-side mirror of the increment in [`DiskBbs::append`]).
    pub(crate) fn note_deleted(&mut self, txn: &Transaction) {
        for &item in txn.items.items() {
            if let Some(c) = self.item_counts.get_mut(&item) {
                *c = c.saturating_sub(1);
                if *c == 0 {
                    self.item_counts.remove(&item);
                }
            }
        }
    }

    /// Whether the persisted counts failed validation and need a rebuild
    /// (only possible when opened with recovery; see
    /// [`DiskBbs::open_with`]).
    pub fn counts_stale(&self) -> bool {
        self.counts_stale
    }

    /// Replaces the in-memory 1-itemset counts (the deployment's rebuild
    /// path after detecting a stale counts file).
    pub(crate) fn set_item_counts(&mut self, counts: HashMap<ItemId, u64>) {
        self.item_counts = counts;
        self.counts_stale = false;
    }

    /// The item hasher this index positions items with.
    pub fn hasher(&self) -> &Arc<dyn ItemHasher> {
        &self.hasher
    }

    /// Signature width `m`.
    pub fn width(&self) -> usize {
        self.slices.width()
    }

    /// Number of indexed transactions.
    pub fn rows(&self) -> u64 {
        self.slices.rows()
    }

    /// Slice-cache statistics.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.slices.cache_stats()
    }

    /// Physical I/O counters of the slice file's pager.
    pub fn pager_stats(&self) -> crate::pager::PagerStats {
        self.slices.pager_stats()
    }

    fn positions_of_itemset(&self, items: &Itemset) -> Vec<usize> {
        let mut cache = self.positions.lock().unwrap_or_else(|e| e.into_inner());
        let mut all = Vec::new();
        union_positions(&mut all, &mut cache, &*self.hasher, items.items(), self.width());
        all
    }

    /// Appends one transaction to the index.
    pub fn append(&mut self, txn: &Transaction) -> io::Result<u64> {
        let positions = self.positions_of_itemset(&txn.items);
        let row = self.slices.append_row(&positions)?;
        for &item in txn.items.items() {
            *self.item_counts.entry(item).or_insert(0) += 1;
        }
        Ok(row)
    }

    /// Exact support of a 1-itemset.
    pub fn actual_singleton_count(&self, item: ItemId) -> u64 {
        self.item_counts.get(&item).copied().unwrap_or(0)
    }

    /// `CountItemSet` directly against the disk layout, through the page
    /// cache: a batch of one for [`DiskBbs::count_itemsets`].
    pub fn count_itemset(&self, items: &Itemset) -> io::Result<u64> {
        Ok(self.count_itemsets(std::slice::from_ref(items), None)?[0])
    }

    /// Batched `CountItemSet` by the naive AND: each itemset's slices are
    /// ANDed and popcounted on their own (see
    /// [`SliceFile::count_selected_many_masked`]).  This is the reference
    /// the cursor is tested against, and unlike a [`DiskCounter`] it sees
    /// this index's unflushed appends.  Every answer is exact, so `tau`
    /// changes nothing: an exact answer meets the τ contract.
    pub fn count_itemsets(
        &self,
        itemsets: &[Itemset],
        tau: Option<u64>,
    ) -> io::Result<Vec<u64>> {
        // One lock over the whole batch, and merged position lists built
        // straight from the cached per-item vectors — no per-item relock
        // or clone, which at wire-batch sizes is a measurable share of the
        // per-itemset cost.
        let mut cache = self.positions.lock().unwrap_or_else(|e| e.into_inner());
        let width = self.slices.width();
        let queries: Vec<(Vec<usize>, Option<u64>)> = itemsets
            .iter()
            .map(|items| {
                let mut all = Vec::new();
                union_positions(&mut all, &mut cache, &*self.hasher, items.items(), width);
                (all, tau)
            })
            .collect();
        drop(cache);
        self.slices
            .count_selected_many_masked(&queries, self.dead.as_deref())
    }

    /// The deduplicated slice positions a query itemset selects.
    pub fn query_positions(&self, items: &Itemset) -> Vec<usize> {
        self.positions_of_itemset(items)
    }

    /// Exact 1-itemset supports (what the counts file persists).
    pub fn item_counts(&self) -> &HashMap<ItemId, u64> {
        &self.item_counts
    }

    /// All items ever appended, sorted — the mining vocabulary.
    pub fn vocabulary(&self) -> Vec<ItemId> {
        let mut v: Vec<ItemId> = self.item_counts.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Loads one slice as an in-memory bit vector (through the cache).
    pub fn load_slice(&self, slice: usize) -> io::Result<bbs_bitslice::BitVec> {
        self.slices.load_slice(slice)
    }

    /// Opens an independent read-only counting handle on the slice file
    /// this index has open — its own page cache, position cache and
    /// depth-first cursor, so workers count in parallel without sharing a
    /// lock.  The handle is a duplicate of this index's descriptor, not a
    /// reopen by name: a reader of an old snapshot keeps reading the old
    /// file after a compaction or fold renamed a new one into place.
    ///
    /// The reader sees the *flushed* state of the file, clamped to this
    /// index's own row count (rows a later commit appended never count),
    /// with this index's tombstones masked out; flush the deployment
    /// before spawning counters.  Errors with `Unsupported` when the index
    /// is not file-backed.
    pub fn counter(&self) -> io::Result<DiskCounter> {
        let file = self.reader_file.as_ref().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::Unsupported,
                "counter() needs a file-backed slice file",
            )
        })?;
        let mut slices =
            SliceFile::open_with(file.try_clone()?, self.slices.width(), self.cache_pages, None)?;
        slices.clamp_rows(self.slices.rows());
        // Every row the reader may count: the snapshot clamp (no bit at or
        // past `rows`) and the tombstones, folded in once.
        let rows = slices.rows() as usize;
        let mut root = vec![u64::MAX; bbs_bitslice::words_for(rows)];
        if let Some(dead) = self.dead.as_deref() {
            bbs_bitslice::ops::and_not_assign(&mut root, &dead.words);
        }
        mask_from(&mut root, rows);
        Ok(DiskCounter {
            cursor: Cursor::new(slices, Arc::clone(&self.hasher), root),
            fence: None,
        })
    }

    /// Loads the index into memory as a [`bbs_core::Bbs`] — the paper's
    /// memory-resident mode: one sequential pass over the slice file, then
    /// every `CountItemSet` is a RAM operation.
    pub fn load(&self) -> io::Result<Bbs> {
        let width = self.slices.width();
        let rows = self.slices.rows() as usize;
        let mut slices = Vec::with_capacity(width);
        for j in 0..width {
            slices.push(self.slices.load_slice(j)?);
        }
        let counts: Vec<(ItemId, u64)> =
            self.item_counts.iter().map(|(&i, &c)| (i, c)).collect();
        Bbs::from_raw_parts(Arc::clone(&self.hasher), width, rows, slices, counts)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Flushes slices and persists the item counts (stamped with the row
    /// count they describe, trailed by a checksum).
    pub fn flush(&mut self) -> io::Result<()> {
        self.slices.flush()?;
        let deleted = self.deleted_rows();
        write_counts(&mut self.counts, self.slices.rows(), deleted, &self.item_counts)
    }

    /// Chained digest of the boundary-chunk slice pages (what the next
    /// commit record must vouch for).
    pub(crate) fn boundary_digest(&mut self) -> io::Result<u64> {
        self.slices.boundary_digest()
    }
}

/// An independent read-only `CountItemSet` handle over a flushed slice
/// file — its own page cache and position cache — that is a
/// [`bbs_core::Cursor`] into the enumeration tree, over the file's pages.
/// Created by [`DiskBbs::counter`]; this is the clone-per-worker reader
/// behind parallel disk mining (see [`crate::mine::mine_in_place`]),
/// behind a served MINE (see [`crate::snapshot::Snapshot::counter`]), and
/// behind every served count ([`DiskCounter::count_many`], which a
/// [`crate::snapshot::Snapshot`] keeps one of).  What it adds to the
/// cursor is the commit fence.
pub struct DiskCounter {
    cursor: Cursor<SliceFile<FileBackend>>,
    /// The commit fence of the deployment this reader serves beside, if
    /// any: held shared around each [`bbs_core::CountSource`] call and
    /// each [`DiskCounter::count_many`] batch, never across the walk.
    fence: Option<Arc<RwLock<()>>>,
}

impl DiskCounter {
    /// Makes every [`bbs_core::CountSource`] call and every
    /// [`DiskCounter::count_many`] batch of this reader hold `fence`
    /// shared while it reads pages — a reader that runs beside a
    /// committing writer (see [`crate::snapshot`]).
    pub(crate) fn fenced_by(mut self, fence: Arc<RwLock<()>>) -> Self {
        self.fence = Some(fence);
        self
    }

    /// Rows visible to this reader (the flushed row count at open time,
    /// or the row count of the index that spawned it if that is lower).
    pub fn rows(&self) -> u64 {
        self.cursor.source().rows()
    }

    /// Exact `CountItemSet` for a batch, as one walk of the batch's prefix
    /// trie ([`Cursor::count_many`]) over the live rows.
    pub fn count_many(&mut self, itemsets: &[Itemset]) -> io::Result<Vec<u64>> {
        let _reading = self.fence.as_deref().map(read_fence);
        self.cursor.count_many(itemsets)
    }

    /// What the cursor's walk has done so far.
    pub fn cursor_stats(&self) -> CursorStats {
        self.cursor.stats()
    }

    /// Level buffers the cursor holds, spare ones included.
    #[cfg(test)]
    pub(crate) fn levels_held(&self) -> usize {
        self.cursor.levels_held()
    }

    /// Cache statistics of this reader's private page cache.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cursor.source().cache_stats()
    }

    /// Physical I/O counters of this reader's pager.
    pub fn pager_stats(&self) -> crate::pager::PagerStats {
        self.cursor.source().pager_stats()
    }
}

impl CountSource for DiskCounter {
    fn count_itemset(&mut self, itemset: &Itemset, tau: u64) -> io::Result<u64> {
        let _reading = self.fence.as_deref().map(read_fence);
        self.cursor.count_itemset(itemset, tau)
    }

    fn count_extensions(
        &mut self,
        prefix: &Itemset,
        extensions: &[ItemId],
        tau: u64,
    ) -> io::Result<Vec<u64>> {
        let _reading = self.fence.as_deref().map(read_fence);
        self.cursor.count_extensions(prefix, extensions, tau)
    }
}

/// Takes a commit fence shared (a poisoned fence guards nothing a reader
/// could corrupt, so poisoning is ignored).
pub(crate) fn read_fence(fence: &RwLock<()>) -> RwLockReadGuard<'_, ()> {
    fence.read().unwrap_or_else(|e| e.into_inner())
}

fn write_counts<B: StorageBackend>(
    backend: &mut B,
    rows: u64,
    deleted: u64,
    counts: &HashMap<ItemId, u64>,
) -> io::Result<()> {
    let mut buf = Vec::with_capacity(40 + counts.len() * 12);
    buf.extend_from_slice(CNT_MAGIC);
    buf.extend_from_slice(&rows.to_le_bytes());
    buf.extend_from_slice(&deleted.to_le_bytes());
    buf.extend_from_slice(&(counts.len() as u64).to_le_bytes());
    let mut sorted: Vec<(&ItemId, &u64)> = counts.iter().collect();
    sorted.sort_unstable();
    for (item, count) in sorted {
        buf.extend_from_slice(&item.0.to_le_bytes());
        buf.extend_from_slice(&count.to_le_bytes());
    }
    let buf = sealed(buf);
    backend.write_at(0, &buf)?;
    backend.set_len(buf.len() as u64)?;
    backend.sync()
}

/// A decoded counts file: the `(rows, deleted)` stamp the persisted
/// counts describe, plus the per-item support table itself.
type CountsFile = (u64, u64, HashMap<ItemId, u64>);

/// Reads and validates a counts file.  `Ok(None)` means the file is empty
/// (never written); any structural or checksum failure is an error.  The
/// stamp is `(rows, deleted)`: the row count *and* tombstone count the
/// persisted counts describe.
fn read_counts<B: StorageBackend>(backend: &mut B) -> io::Result<Option<CountsFile>> {
    let len = backend.len()?;
    if len == 0 {
        return Ok(None);
    }
    let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    if len < 40 || (len - 40) % 12 != 0 {
        return Err(invalid("counts file has an impossible length"));
    }
    let mut buf = vec![0u8; len as usize];
    backend.read_at(0, &mut buf)?;
    let Some(body) = unseal(&buf) else {
        return Err(invalid("counts file checksum mismatch"));
    };
    if &body[0..8] != CNT_MAGIC {
        return Err(invalid("not a BBS counts file"));
    }
    let rows = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
    let deleted = u64::from_le_bytes(body[16..24].try_into().expect("8 bytes"));
    let n = u64::from_le_bytes(body[24..32].try_into().expect("8 bytes"));
    if n != (len - 40) / 12 {
        return Err(invalid("counts file entry count disagrees with length"));
    }
    let mut out = HashMap::with_capacity(n as usize);
    for entry in body[32..].chunks_exact(12) {
        let item = ItemId(u32::from_le_bytes(entry[0..4].try_into().expect("4 bytes")));
        let count = u64::from_le_bytes(entry[4..12].try_into().expect("8 bytes"));
        out.insert(item, count);
    }
    Ok(Some((rows, deleted, out)))
}

/// Materialises the live rows among the first `rows` of `heap`, and the
/// index over exactly them, in memory.  With nothing tombstoned that is the
/// heap prefix and the slices as they stand; otherwise every survivor is
/// re-inserted into a fresh index — bit for bit what an offline rebuild
/// from only the surviving transactions produces (inserting a survivor
/// sets the same slice bits whatever dead rows lay between them).
pub(crate) fn load_live<B: StorageBackend>(
    heap: &mut HeapFile<B>,
    index: &DiskBbs<B>,
    rows: u64,
) -> io::Result<(TransactionDb, Bbs)> {
    let Some(dead) = index.dead_mask() else {
        return Ok((heap.load_prefix(rows)?, index.load()?));
    };
    let mut db = TransactionDb::new();
    let mut bbs = Bbs::new(index.width(), Arc::clone(index.hasher()));
    let mut stats = bbs_tdb::IoStats::new();
    heap.for_each_prefix(rows, |row, txn| {
        if !dead.is_dead(row) {
            db.push(txn.clone());
            bbs.insert(txn, &mut stats);
        }
    })?;
    Ok((db, bbs))
}

/// A complete durable deployment: the transaction heap file and its BBS
/// index, kept row-aligned by the commit protocol (see the module docs).
pub struct DiskDeployment<B: StorageBackend = FileBackend> {
    /// The transaction database.
    pub db: HeapFile<B>,
    /// The index.
    pub index: DiskBbs<B>,
    commit: CommitFile<B>,
    dedup: DedupLog<B>,
    replog: ReplLog<B>,
    del: DelLog<B>,
    /// Lazily-built TID → heap rows map for resolving DELETE requests;
    /// built by one heap scan on first use, maintained by appends.
    tid_rows: Option<HashMap<u64, Vec<u64>>>,
}

/// Default bound of the persistent request-ID dedup window (receipts).
pub const DEFAULT_DEDUP_WINDOW: usize = 4096;

impl DiskDeployment<FileBackend> {
    /// Opens (creating if absent) a deployment at `<base>.*`, rolling the
    /// files back to the last committed state first.  `width` is a
    /// statement, not a hint: a deployment whose slice file has another
    /// width is refused.
    pub fn open(
        base: &Path,
        width: usize,
        hasher: Arc<dyn ItemHasher>,
        cache_pages: usize,
    ) -> io::Result<Self> {
        let dep = Self::open_adopting(base, width, hasher, cache_pages)?;
        let stored = dep.index.width();
        if stored != width {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("slice file width {stored} != requested {width}"),
            ));
        }
        Ok(dep)
    }

    /// [`DiskDeployment::open`] that keeps the width an existing slice
    /// file holds; `width` only lays out a slice file that is not there.
    pub(crate) fn open_adopting(
        base: &Path,
        width: usize,
        hasher: Arc<dyn ItemHasher>,
        cache_pages: usize,
    ) -> io::Result<Self> {
        let mut reader_file = None;
        let mut dep = Self::open_at(base, width, hasher, cache_pages, |tag, path| {
            let file = FileBackend::open(path)?;
            if tag == "slices" {
                reader_file = Some(file.try_clone()?);
            }
            Ok(file)
        })?;
        dep.index.reader_file = reader_file;
        Ok(dep)
    }

    /// Removes all backing files.
    pub fn remove_files(base: &Path) -> io::Result<()> {
        crate::files::remove_files(base);
        Ok(())
    }

    /// Read-only integrity check of a deployment's files — the engine
    /// behind `bbs fsck`.
    ///
    /// Verifies the commit record, every committed page's checksum in all
    /// three paged files, the header fields against the commit, and the
    /// counts file.  Nothing is repaired or modified; corruption is
    /// *reported*, and a subsequent [`DiskDeployment::open`] performs the
    /// actual rollback (which only heals damage *past* the commit point —
    /// damage inside it means lost data and stays visible here).
    pub fn verify(base: &Path) -> io::Result<VerifyReport> {
        verify_deployment(base)
    }
}

impl<B: StorageBackend> DiskDeployment<B> {
    /// The open sequence (DESIGN.md §7, "The open sequence") — the one way
    /// a deployment on disk is opened, offline or served, which differ in
    /// the `factory` that opens each file of the table by `(tag, path)`.
    ///
    /// `width` is the width to create the slice file at; one that exists
    /// keeps its own (a fold may have halved it since the caller was
    /// configured), read only once the swap below is resolved, so a reopen
    /// after a half-done width-changing swap adopts the width that won.
    pub(crate) fn open_at(
        base: &Path,
        width: usize,
        hasher: Arc<dyn ItemHasher>,
        cache_pages: usize,
        factory: impl FnMut(&'static str, &Path) -> io::Result<B>,
    ) -> io::Result<Self> {
        let paths = deployment_paths(base);
        // Before anything below creates, renames or repairs a file.
        crate::commit::refuse_format_v1(&paths.commit)?;
        // Resolve any maintenance swap a crashed process left half-done:
        // roll a committed one forward, clean an uncommitted one up.
        crate::maintain::finish_pending_swap(base)?;
        let width = crate::slicefile::header_width(&paths.slices)?.unwrap_or(width);
        let has_data = [&paths.dat, &paths.idx, &paths.slices]
            .iter()
            .any(|p| std::fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false));
        if has_data && !paths.commit.exists() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "deployment has data files but no commit record \
                 (created by a pre-durability version?)",
            ));
        }
        let backends = DeploymentBackends::open(base, factory)?;
        DiskDeployment::open_with(backends, width, hasher, cache_pages)
    }

    /// Opens a deployment over explicit backends, running crash recovery
    /// against the commit record.
    pub fn open_with(
        backends: DeploymentBackends<B>,
        width: usize,
        hasher: Arc<dyn ItemHasher>,
        cache_pages: usize,
    ) -> io::Result<Self> {
        let commit = CommitFile::new(backends.commit)?;
        // No commit yet means nothing is durable: recover to the empty
        // state.
        let point = commit.last().unwrap_or_default();
        let rows = point.rows;
        // Sidecar records stamped past the committed sequence vouch for
        // rows the recovery below rolls back: each log drops them as debris
        // of a flush whose commit record never landed.
        let dedup = DedupLog::open(backends.dedup, DEFAULT_DEDUP_WINDOW, point.seq)?;
        let replog = ReplLog::open(backends.log, point.seq, rows)?;
        let del = DelLog::open(backends.del, point.seq)?;
        let mut db = HeapFile::open_with(
            backends.dat,
            backends.idx,
            cache_pages,
            cache_pages.div_ceil(4).max(2),
            Some(HeapRecoverPoint {
                rows,
                tail: point.heap_tail,
                dat_digest: point.dat_digest,
                idx_digest: point.idx_digest,
            }),
        )?;
        let mut index = DiskBbs::open_with(
            backends.slices,
            backends.counts,
            width,
            hasher,
            cache_pages,
            Some((rows, point.slices_digest)),
            Some(del.deleted()),
        )?;
        index.set_dead_mask(Some(del.mask()));
        if index.counts_stale() {
            // The counts file is a cache; rebuild it from the recovered
            // heap, skipping committed tombstones (it is persisted again
            // on the next flush).
            let mut fresh: HashMap<ItemId, u64> = HashMap::new();
            db.for_each(|row, txn| {
                if !del.is_dead(row) {
                    for &item in txn.items.items() {
                        *fresh.entry(item).or_insert(0) += 1;
                    }
                }
            })?;
            index.set_item_counts(fresh);
        }
        debug_assert_eq!(db.len(), rows);
        debug_assert_eq!(index.rows(), rows);
        Ok(DiskDeployment {
            db,
            index,
            commit,
            dedup,
            replog,
            del,
            tid_rows: None,
        })
    }

    /// Appends one transaction to both structures (durable after the next
    /// [`DiskDeployment::flush`]).
    pub fn append(&mut self, txn: &Transaction) -> io::Result<u64> {
        let row = self.db.append(txn)?;
        let irow = self.index.append(txn)?;
        debug_assert_eq!(row, irow);
        if let Some(map) = &mut self.tid_rows {
            map.entry(txn.tid.0).or_default().push(row);
        }
        Ok(row)
    }

    /// Appends a batch of transactions and makes the whole batch durable
    /// with one [`DiskDeployment::flush`] — the group-commit write path:
    /// however many producers contributed to `txns`, the batch costs one
    /// sync per file and one commit record.  Returns the half-open row
    /// range the batch occupies.
    ///
    /// Atomicity is the commit protocol's: a crash before the final commit
    /// record lands rolls the *entire* batch back on reopen (plus any
    /// earlier unflushed rows), never a prefix of it.
    pub fn append_batch(&mut self, txns: &[Transaction]) -> io::Result<std::ops::Range<u64>> {
        let first = self.db.len();
        for txn in txns {
            self.append(txn)?;
        }
        self.flush_logged(first, txns, &[])?;
        Ok(first..self.db.len())
    }

    /// Rows made durable by the last completed flush.
    pub fn committed_rows(&self) -> u64 {
        self.commit.last().map_or(0, |c| c.rows)
    }

    /// Sequence number of the last completed commit (0 before the first).
    pub fn committed_seq(&self) -> u64 {
        self.commit.last().map_or(0, |c| c.seq)
    }

    /// Whether a [`DiskDeployment::flush`] would make anything durable
    /// that is not: rows appended since the last commit, or no commit at
    /// all yet.  (Deletes commit synchronously, so tombstones are never
    /// pending.)  Readers that only need the flushed state — in-place
    /// mining — skip the flush when this is false and so write nothing.
    pub fn has_uncommitted(&self) -> bool {
        self.commit.last().is_none_or(|c| c.rows != self.db.len())
    }

    /// The receipt a previous flush committed for `req_id`, if it is
    /// still inside the dedup window — the exactly-once lookup a retried
    /// insert is answered from.
    pub fn dedup_lookup(&self, req_id: u64) -> Option<DedupReceipt> {
        self.dedup.lookup(req_id)
    }

    /// Resizes the dedup window (default [`DEFAULT_DEDUP_WINDOW`]);
    /// shrinking evicts the oldest receipts immediately.
    pub fn set_dedup_window(&mut self, window: usize) {
        self.dedup.set_window(window);
    }

    /// Flushes everything, then writes the commit record — the
    /// durability protocol of `DiskDeployment::commit_point`.
    pub fn flush(&mut self) -> io::Result<()> {
        self.flush_with_receipts(&[])
    }

    /// [`DiskDeployment::flush`] that also records insert receipts
    /// (`request id → committed row range`) in the dedup window,
    /// atomically with the commit: a crash anywhere leaves receipts and
    /// rows agreeing — either both committed or both rolled back on
    /// reopen.
    pub fn flush_with_receipts(&mut self, receipts: &[(u64, DedupReceipt)]) -> io::Result<()> {
        self.flush_logged(self.db.len(), &[], receipts)
    }

    /// [`DiskDeployment::flush_with_receipts`] that also appends the
    /// batch being committed (`txns`, occupying rows from `first_row`) to
    /// the replication log — the log entry is durable exactly when its
    /// commit is.  An empty `txns` logs nothing (a bare flush has nothing
    /// to replicate).
    pub fn flush_logged(
        &mut self,
        first_row: u64,
        txns: &[Transaction],
        receipts: &[(u64, DedupReceipt)],
    ) -> io::Result<()> {
        self.commit_point(first_row, txns, &[], receipts)
    }

    /// The commit point (DESIGN.md §7, "The commit ordering") — the one
    /// place the durability ordering is written down.  Data pages and
    /// their checksums reach stable storage *before* anything that vouches
    /// for them; the sidecars (`.dedup` receipts, `.del` tombstones, one
    /// `.log` entry for the batch or the deletes) are appended and synced
    /// next, each stamped with the sequence number this commit is about to
    /// take, so open drops them with their rows if the commit record —
    /// which lands last — never did.  The record carries the digests of
    /// the boundary pages, the only pages later appends modify in place,
    /// so recovery can tell heal-able torn writes from real corruption.
    fn commit_point(
        &mut self,
        first_row: u64,
        txns: &[Transaction],
        deletes: &[u64],
        receipts: &[(u64, DedupReceipt)],
    ) -> io::Result<()> {
        self.db.flush()?;
        self.index.flush()?;
        let (dat_digest, idx_digest) = self.db.boundary_digests()?;
        let slices_digest = self.index.boundary_digest()?;
        let seq = self.commit.next_seq();
        self.dedup.record_synced(seq, receipts)?;
        self.del.record_synced(seq, deletes)?;
        // Logged receipts are `(req_id, offset into the batch, count)`.
        // Without appended rows the offset is meaningless and stored as 0:
        // followers rebuild a delete's sentinel receipt from the entry kind.
        let triples: Vec<(u64, u64, u64)> = receipts
            .iter()
            .map(|&(req_id, r)| {
                let offset = if txns.is_empty() { 0 } else { r.first_row - first_row };
                (req_id, offset, r.appended)
            })
            .collect();
        self.replog.append_synced(seq, first_row, txns, &triples, deletes)?;
        self.commit.commit(Commit {
            seq: 0, // assigned by the commit file
            rows: self.db.len(),
            heap_tail: self.db.data_bytes(),
            dat_digest,
            idx_digest,
            slices_digest,
        })
    }

    /// The live dedup window in insertion order — what compaction
    /// carries into the rewritten deployment.
    pub fn dedup_entries(&self) -> Vec<(u64, DedupReceipt)> {
        self.dedup.entries()
    }

    /// The decoded current commit record, if any.
    pub(crate) fn last_commit(&self) -> Option<Commit> {
        self.commit.last()
    }

    /// Committed delete-entry count in the replication log — the delete
    /// cursor (`dseq`) a caught-up follower should hold.
    pub fn log_delete_entries(&self) -> u64 {
        self.replog.delete_entries()
    }

    /// Tombstoned rows (committed plus staged-in-memory; equal between
    /// commits because deletes commit synchronously).
    pub fn deleted_rows(&self) -> u64 {
        self.del.deleted()
    }

    /// Live rows: appended minus tombstoned.
    pub fn live_rows(&self) -> u64 {
        self.db.len() - self.del.deleted()
    }

    /// Is `row` tombstoned?
    pub fn is_dead(&self, row: u64) -> bool {
        self.del.is_dead(row)
    }

    /// An immutable snapshot of the tombstone bitmap.
    pub fn dead_mask(&self) -> Arc<DeadMask> {
        self.del.mask()
    }

    /// Materialises the live rows and the index over exactly them in
    /// memory — the substrate of a memory-resident mining run (see
    /// [`crate::snapshot::Snapshot::load`] for the served twin).
    pub fn load(&mut self) -> io::Result<(TransactionDb, Bbs)> {
        let rows = self.db.len();
        load_live(&mut self.db, &self.index, rows)
    }

    /// Resolves TIDs to the live heap rows holding them, sorted and
    /// deduplicated.  TIDs with no live row resolve to nothing (deleting
    /// an absent or already-deleted TID is a no-op, not an error).  The
    /// first call scans the heap once to build the TID map; appends keep
    /// it current afterwards.
    pub fn resolve_tids(&mut self, tids: &[u64]) -> io::Result<Vec<u64>> {
        if self.tid_rows.is_none() {
            let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
            self.db.for_each(|row, txn| {
                map.entry(txn.tid.0).or_default().push(row);
            })?;
            self.tid_rows = Some(map);
        }
        let map = self.tid_rows.as_ref().expect("just built");
        let mut rows: Vec<u64> = tids
            .iter()
            .filter_map(|tid| map.get(tid))
            .flatten()
            .copied()
            .filter(|&r| !self.del.is_dead(r))
            .collect();
        rows.sort_unstable();
        rows.dedup();
        Ok(rows)
    }

    /// Tombstones `rows` and commits the deletion durably — the delete
    /// mirror of [`DiskDeployment::append_batch`].  Rows already dead or
    /// out of range are skipped.  Exact 1-itemset counts are decremented,
    /// the counts file is re-stamped for the new tombstone count, the
    /// delete record and a delete replication-log entry ride the commit
    /// point, and `receipts` enter the dedup window so a retried DELETE
    /// answers without re-deleting.  Returns how many rows this call
    /// actually tombstoned.
    ///
    /// Deletes commit synchronously and uncoalesced: they are rare next
    /// to inserts, and a dedicated commit keeps the recovery story
    /// identical to inserts (a crash anywhere rolls the whole delete
    /// back; an error poisons the writer, which the caller reopens).
    pub fn commit_deletes(
        &mut self,
        rows: &[u64],
        receipts: &[(u64, DedupReceipt)],
    ) -> io::Result<u64> {
        let tail = self.db.len();
        let mut rows: Vec<u64> = rows
            .iter()
            .copied()
            .filter(|&r| r < tail && !self.del.is_dead(r))
            .collect();
        rows.sort_unstable();
        rows.dedup();
        if rows.is_empty() && receipts.is_empty() {
            return Ok(0);
        }
        for &row in &rows {
            let txn = self.db.get(row)?;
            self.index.note_deleted(&txn);
        }
        // Stage the post-commit bitmap so the index flush below stamps
        // the counts file for it and masks subsequent counts; the durable
        // delete record follows in its slot of the flush ordering.  A
        // crash in between leaves a counts file stamped ahead of the
        // committed tombstone count — caught as stale on reopen and
        // rebuilt from the heap.
        self.del.mark_rows(&rows);
        self.index.set_dead_mask(Some(self.del.mask()));
        self.commit_point(tail, &[], &rows, receipts)?;
        Ok(rows.len() as u64)
    }
}

/// One corrupt page found by [`DiskDeployment::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageCorruption {
    /// Which file (`dat`, `idx`, or `slices`).
    pub file: &'static str,
    /// The digest disagreement.
    pub mismatch: ChecksumMismatch,
}

/// The outcome of [`DiskDeployment::verify`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Committed row count from the commit record.
    pub committed_rows: u64,
    /// Tombstoned rows replayed from the committed deletion log.
    pub deleted_rows: u64,
    /// Committed heap tail (bytes) from the commit record.
    pub heap_tail: u64,
    /// Pages whose checksum was verified.
    pub pages_checked: u64,
    /// Pages whose bytes do not match their stored digest.
    pub corrupt_pages: Vec<PageCorruption>,
    /// Structural problems: missing files, bad headers, invalid counts.
    pub problems: Vec<String>,
}

impl VerifyReport {
    /// True when no corruption or structural problem was found.
    pub fn is_clean(&self) -> bool {
        self.corrupt_pages.is_empty() && self.problems.is_empty()
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "committed: {} rows ({} live, {} tombstoned), heap tail {} bytes; {} pages verified",
            self.committed_rows,
            self.committed_rows - self.deleted_rows.min(self.committed_rows),
            self.deleted_rows,
            self.heap_tail,
            self.pages_checked
        )?;
        for c in &self.corrupt_pages {
            writeln!(f, "corrupt: {} file, {}", c.file, c.mismatch)?;
        }
        for p in &self.problems {
            writeln!(f, "problem: {p}")?;
        }
        if self.is_clean() {
            writeln!(f, "clean")?;
        }
        Ok(())
    }
}

/// A read-only page source for verification (no creation, no repair).
struct RawFile {
    bytes: Vec<u8>,
}

impl RawFile {
    fn open(path: &Path) -> io::Result<RawFile> {
        Ok(RawFile {
            bytes: std::fs::read(path)?,
        })
    }

    fn logical_pages(&self) -> u64 {
        logical_pages_for_phys(self.bytes.len() as u64 / PAGE_SIZE as u64)
    }

    fn phys_page(&self, phys: u64) -> Option<&[u8; PAGE_SIZE]> {
        let start = (phys * PAGE_SIZE as u64) as usize;
        self.bytes.get(start..start + PAGE_SIZE)?.try_into().ok()
    }

    fn read_u64_at(&self, page: u64, offset: usize) -> Option<u64> {
        let p = self.phys_page(phys_of(page))?;
        Some(u64::from_le_bytes(
            p[offset..offset + 8].try_into().expect("8 bytes"),
        ))
    }

    /// Checks the stored digests of logical pages `from..to`, appending
    /// mismatches to the report.  Pages past the physical end are only an
    /// error when `must_exist` (heap pages are always materialised up to
    /// the committed tail; slice pages may legitimately be sparse).
    fn check_page_range(
        &self,
        file: &'static str,
        from: u64,
        to: u64,
        must_exist: bool,
        report: &mut VerifyReport,
    ) {
        for logical in from..to {
            let Some(data) = self.phys_page(phys_of(logical)) else {
                if must_exist {
                    report.problems.push(format!(
                        "{file} file is shorter than the committed extent"
                    ));
                    return;
                }
                continue;
            };
            let group = logical / (PAGE_SIZE as u64 / 8);
            let slot = (logical % (PAGE_SIZE as u64 / 8)) as usize;
            let expected = match self.phys_page(checksum_phys_of(group)) {
                Some(cp) => {
                    u64::from_le_bytes(cp[slot * 8..slot * 8 + 8].try_into().expect("8 bytes"))
                }
                None => 0,
            };
            let actual = page_digest(data);
            report.pages_checked += 1;
            if actual != expected {
                report.corrupt_pages.push(PageCorruption {
                    file,
                    mismatch: ChecksumMismatch {
                        page: logical,
                        expected,
                        actual,
                    },
                });
            }
        }
    }

    /// Committed content of one logical page: the on-disk bytes (zeros if
    /// the page is missing) with everything from byte `keep` on zeroed.
    fn reconstructed(&self, logical: u64, keep: usize) -> Box<[u8; PAGE_SIZE]> {
        let mut page = crate::pager::zeroed_page();
        if let Some(data) = self.phys_page(phys_of(logical)) {
            page.copy_from_slice(data);
        }
        page[keep..].fill(0);
        page
    }

    /// Checks a boundary page against the digest the commit record vouches
    /// for.  The *stored* checksum entry may legitimately describe
    /// post-commit debris that `open()` rolls back, so it is not consulted;
    /// the reconstruction of the committed prefix must match the commit.
    fn check_boundary(
        &self,
        file: &'static str,
        logical: u64,
        keep: usize,
        committed_digest: u64,
        report: &mut VerifyReport,
    ) {
        let actual = page_digest(&self.reconstructed(logical, keep));
        report.pages_checked += 1;
        if actual != committed_digest {
            report.corrupt_pages.push(PageCorruption {
                file,
                mismatch: ChecksumMismatch {
                    page: logical,
                    expected: committed_digest,
                    actual,
                },
            });
        }
    }
}

fn verify_deployment(base: &Path) -> io::Result<VerifyReport> {
    let paths = deployment_paths(base);
    let mut report = VerifyReport::default();

    // A half-done maintenance swap is its own finding.  While a committed
    // one waits to be rolled forward the live names hold a mix of old and
    // new files, which no page check can judge: name it and stop.  Debris
    // of an uncommitted one sits beside intact old files, checked below.
    match crate::maintain::pending_swap(base)? {
        PendingSwap::None => {}
        PendingSwap::Committed(exts) => {
            report.problems.push(format!(
                "pending maintenance swap: a committed swap of [{}] is half-done; \
                 the next open rolls it forward",
                exts.join(", ")
            ));
            return Ok(report);
        }
        PendingSwap::Debris => report.problems.push(
            "pending maintenance swap: an uncommitted swap left a torn marker or \
             staging files; the next open removes them"
                .to_string(),
        ),
    }

    let commit_bytes = std::fs::read(&paths.commit).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("cannot read commit record {}: {e}", paths.commit.display()),
        )
    })?;
    let Some(commit) = latest_commit(&commit_bytes)? else {
        report
            .problems
            .push("commit record holds no valid slot (nothing is committed)".to_string());
        return Ok(report);
    };
    report.committed_rows = commit.rows;
    report.heap_tail = commit.heap_tail;
    let rows = commit.rows;

    // Heap data file: every page up to the committed tail must verify.
    // The boundary page (which later appends extend in place) is checked
    // against the commit record's digest of its committed prefix.
    match RawFile::open(&paths.dat) {
        Ok(dat) => {
            let extent = commit.heap_tail.div_ceil(PAGE_SIZE as u64);
            if extent > 0 {
                dat.check_page_range("dat", 0, extent - 1, true, &mut report);
                let keep = (commit.heap_tail - (extent - 1) * PAGE_SIZE as u64) as usize;
                dat.check_boundary("dat", extent - 1, keep, commit.dat_digest, &mut report);
            }
        }
        Err(e) => report.problems.push(format!("dat file: {e}")),
    }

    // Positional index: the entry pages for `rows` entries.  Page 0 (the
    // header) is rebuilt from the commit record on every open and never
    // trusted, so it is not checked here.
    match RawFile::open(&paths.idx) {
        Ok(idx) => {
            let idx_pages = heapfile::idx_pages_for_rows(rows);
            idx.check_page_range("idx", 1, idx_pages.saturating_sub(1), true, &mut report);
            if rows > 0 {
                let entry_end = heapfile::IDX_ENTRIES + rows * 8;
                let keep = (entry_end - (idx_pages - 1) * PAGE_SIZE as u64) as usize;
                idx.check_boundary("idx", idx_pages - 1, keep, commit.idx_digest, &mut report);
            }
        }
        Err(e) => report.problems.push(format!("idx file: {e}")),
    }

    // Slice file: full committed chunks verify against stored digests
    // (sparse pages allowed); the boundary chunk — whose pages later
    // appends OR bits into — verifies as a reconstruction chain against
    // the commit record, exactly as recovery would rebuild it.  The header
    // page is rebuilt on open and not checked.
    match RawFile::open(&paths.slices) {
        Ok(slices) => match slices.read_u64_at(0, 8) {
            Some(width) if width > 0 && width < u32::MAX as u64 => {
                let whole_chunks = rows / CHUNK_ROWS as u64;
                let full_extent = (1 + whole_chunks * width).min(slices.logical_pages());
                slices.check_page_range("slices", 1, full_extent, false, &mut report);
                let within = rows % CHUNK_ROWS as u64;
                if within != 0 {
                    let mut digest = CHAIN_SEED;
                    for slice in 0..width {
                        let mut page =
                            slices.reconstructed(1 + whole_chunks * width + slice, PAGE_SIZE);
                        clear_uncommitted_bits(&mut page, within);
                        digest = chain_digest(digest, page_digest(&page));
                    }
                    report.pages_checked += width;
                    if digest != commit.slices_digest {
                        report.corrupt_pages.push(PageCorruption {
                            file: "slices",
                            mismatch: ChecksumMismatch {
                                page: 1 + whole_chunks * width,
                                expected: commit.slices_digest,
                                actual: digest,
                            },
                        });
                    }
                }
            }
            _ if rows == 0 => {} // nothing committed; debris is rolled back on open
            _ => report
                .problems
                .push("slice file has no plausible header".to_string()),
        },
        Err(e) => report.problems.push(format!("slices file: {e}")),
    }

    // Replication log: absent is fine (nothing was ever logged); torn
    // tails and uncommitted debris are healed on open; corruption inside
    // the committed stream would silently starve followers, so report it.
    if let Ok(bytes) = std::fs::read(&paths.log) {
        report
            .problems
            .extend(crate::replog::scan_problems(&bytes, commit.seq, rows));
    }

    // Deletion log: replay the committed tombstones (checksummed records;
    // corruption inside the committed stream is reported below) to learn
    // the live/dead split and to validate the counts stamp against it.
    let committed_deleted = match crate::del::read_deletions(&paths.del, commit.seq) {
        Ok(mask) => {
            report.deleted_rows = mask.deleted;
            mask.deleted
        }
        Err(e) => {
            report.problems.push(format!("del file: {e}"));
            0
        }
    };
    match std::fs::read(&paths.del) {
        Ok(bytes) => report
            .problems
            .extend(crate::del::scan_del_problems(&bytes, commit.seq, rows)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => report.problems.push(format!("del file: {e}")),
    }

    // Counts file: rebuildable, but corruption is still worth reporting.
    match std::fs::read(&paths.counts) {
        Ok(bytes) if bytes.is_empty() && rows == 0 => {}
        Ok(bytes) => {
            let mut mem = crate::backend::MemBackend::new();
            mem.write_at(0, &bytes)?;
            match read_counts(&mut mem) {
                Ok(Some((stamped, sdel, _))) if stamped == rows && sdel == committed_deleted => {}
                Ok(Some((stamped, sdel, _))) => report.problems.push(format!(
                    "counts file is stale: stamped for {stamped} rows / {sdel} tombstones,                      commit says {rows} rows / {committed_deleted} tombstones"
                )),
                Ok(None) => report
                    .problems
                    .push("counts file is empty but rows are committed".to_string()),
                Err(e) => report.problems.push(format!("counts file: {e}")),
            }
        }
        Err(e) => report.problems.push(format!("counts file: {e}")),
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use bbs_core::{BbsMiner, CountSource, Scheme, EXACT};
    use bbs_hash::Md5BloomHasher;
    use bbs_tdb::{FrequentPatternMiner, IoStats, NaiveMiner, SupportThreshold};

    fn base(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bbs_diskbbs_{}_{}", std::process::id(), name));
        p
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            DiskDeployment::remove_files(&self.0).ok();
        }
    }

    fn txn(tid: u64, items: &[u32]) -> Transaction {
        Transaction::new(tid, Itemset::from_values(items))
    }

    fn hasher() -> Arc<dyn ItemHasher> {
        Arc::new(Md5BloomHasher::new(4))
    }

    #[test]
    fn disk_count_matches_memory_count() {
        let b = base("counts");
        let _g = Cleanup(b.clone());
        let mut dep = DiskDeployment::open(&b, 64, hasher(), 256).expect("open");
        let txns = vec![
            txn(1, &[1, 2, 3]),
            txn(2, &[2, 3]),
            txn(3, &[1, 3, 9]),
            txn(4, &[1, 2]),
        ];
        for t in &txns {
            dep.append(t).expect("append");
        }
        let mem = dep.index.load().expect("load");
        let mut io = IoStats::new();
        for q in [&[1u32][..], &[2, 3], &[1, 2, 3], &[9], &[7]] {
            let items = Itemset::from_values(q);
            assert_eq!(
                dep.index.count_itemset(&items).expect("disk count"),
                mem.est_count(&items, &mut io),
                "{items:?}"
            );
        }
    }

    #[test]
    fn survives_restart_and_keeps_appending() {
        let b = base("restart");
        let _g = Cleanup(b.clone());
        {
            let mut dep = DiskDeployment::open(&b, 64, hasher(), 256).expect("open");
            dep.append(&txn(1, &[1, 2])).expect("append");
            dep.append(&txn(2, &[2, 3])).expect("append");
            dep.flush().expect("flush");
        }
        // "Restart": reopen from the files alone.
        let mut dep = DiskDeployment::open(&b, 64, hasher(), 256).expect("reopen");
        assert_eq!(dep.db.len(), 2);
        assert_eq!(dep.index.rows(), 2);
        assert_eq!(dep.committed_rows(), 2);
        assert_eq!(dep.index.actual_singleton_count(ItemId(2)), 2);
        dep.append(&txn(3, &[1, 2, 3])).expect("append");
        assert_eq!(
            dep.index
                .count_itemset(&Itemset::from_values(&[1, 2]))
                .expect("count"),
            2
        );
    }

    #[test]
    fn unflushed_appends_roll_back_on_reopen() {
        let b = base("rollback");
        let _g = Cleanup(b.clone());
        {
            let mut dep = DiskDeployment::open(&b, 64, hasher(), 256).expect("open");
            dep.append(&txn(1, &[1, 2])).expect("append");
            dep.flush().expect("flush");
            dep.append(&txn(2, &[3, 4])).expect("append");
            dep.flush().expect("flush");
            dep.append(&txn(3, &[5, 6])).expect("append");
            // No flush: row 3 must not survive, rows 1-2 must.  (The cache
            // Drop writes pages back, but without a commit record they are
            // rolled back on reopen — the commit is the authority.)
        }
        let mut dep = DiskDeployment::open(&b, 64, hasher(), 256).expect("reopen");
        assert_eq!(dep.db.len(), 2);
        assert_eq!(dep.index.rows(), 2);
        assert_eq!(dep.db.get(1).expect("get"), txn(2, &[3, 4]));
        assert_eq!(dep.index.actual_singleton_count(ItemId(5)), 0);
        // And the deployment keeps working.
        dep.append(&txn(3, &[7])).expect("append");
        dep.flush().expect("flush");
        assert_eq!(dep.committed_rows(), 3);
    }

    #[test]
    fn mining_from_disk_matches_oracle() {
        let b = base("mine");
        let _g = Cleanup(b.clone());
        let quest = bbs_datagen::QuestConfig::tiny();
        let source = bbs_datagen::generate_db(quest);
        let mut dep = DiskDeployment::open(&b, 128, hasher(), 1024).expect("open");
        for t in source.transactions() {
            dep.append(t).expect("append");
        }
        dep.flush().expect("flush");

        // Load both structures back and mine.
        let db = dep.db.load().expect("load db");
        let bbs = dep.index.load().expect("load index");
        let threshold = SupportThreshold::percent(5.0);
        let result = BbsMiner::with_index(Scheme::Dfp, bbs).mine(&db, threshold);
        let oracle = NaiveMiner::new().mine(&source, threshold).patterns;
        assert_eq!(result.patterns.len(), oracle.len());
        for (items, support) in result.patterns.iter() {
            let truth = oracle.support(items).expect("pattern in oracle");
            if result.approx_supports.contains(items) {
                assert!(support >= truth);
            } else {
                assert_eq!(support, truth, "{items:?}");
            }
        }
    }

    #[test]
    fn out_of_sync_files_are_repaired_to_the_commit_point() {
        let b = base("oos");
        let _g = Cleanup(b.clone());
        {
            let mut dep = DiskDeployment::open(&b, 64, hasher(), 64).expect("open");
            dep.append(&txn(1, &[1])).expect("append");
            dep.flush().expect("flush");
        }
        {
            // Append to the heap file only, bypassing the index *and* the
            // commit protocol.
            let mut heap = HeapFile::open(&b, 64, 4).expect("open heap");
            heap.append(&txn(2, &[2])).expect("append");
            heap.flush().expect("flush");
        }
        // Recovery rolls the heap back to the committed boundary instead
        // of rejecting the deployment.
        let mut dep = DiskDeployment::open(&b, 64, hasher(), 64).expect("reopen");
        assert_eq!(dep.db.len(), 1);
        assert_eq!(dep.index.rows(), 1);
        assert_eq!(dep.db.get(0).expect("get"), txn(1, &[1]));
    }

    #[test]
    fn legacy_files_without_commit_record_are_rejected() {
        let b = base("legacy");
        let _g = Cleanup(b.clone());
        {
            let mut heap = HeapFile::open(&b, 8, 4).expect("open");
            heap.append(&txn(1, &[1])).expect("append");
            heap.flush().expect("flush");
        }
        let err = match DiskDeployment::open(&b, 64, hasher(), 64) {
            Ok(_) => panic!("legacy files must be rejected"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("commit record"), "{err}");
    }

    #[test]
    fn corrupt_counts_file_is_rebuilt_from_the_heap() {
        let b = base("counts_rebuild");
        let _g = Cleanup(b.clone());
        {
            let mut dep = DiskDeployment::open(&b, 64, hasher(), 64).expect("open");
            dep.append(&txn(1, &[1, 2])).expect("append");
            dep.append(&txn(2, &[2])).expect("append");
            dep.flush().expect("flush");
        }
        let counts_path = deployment_paths(&b).counts;
        std::fs::write(&counts_path, b"garbage").expect("corrupt");
        let dep = DiskDeployment::open(&b, 64, hasher(), 64).expect("reopen");
        assert_eq!(dep.index.actual_singleton_count(ItemId(2)), 2);
        assert_eq!(dep.index.actual_singleton_count(ItemId(1)), 1);
    }

    #[test]
    fn verify_reports_clean_and_flipped_bit() {
        let b = base("verify");
        let _g = Cleanup(b.clone());
        {
            let mut dep = DiskDeployment::open(&b, 64, hasher(), 64).expect("open");
            for i in 0..20 {
                dep.append(&txn(i, &[i as u32, (i + 1) as u32])).expect("append");
            }
            dep.flush().expect("flush");
        }
        let report = DiskDeployment::verify(&b).expect("verify");
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.committed_rows, 20);
        assert!(report.pages_checked > 0);

        // Flip one bit in the heap data file (physical page 1 = logical 0).
        let dat = deployment_paths(&b).dat;
        let mut bytes = std::fs::read(&dat).expect("read");
        bytes[PAGE_SIZE + 100] ^= 0x10;
        std::fs::write(&dat, &bytes).expect("write");
        let report = DiskDeployment::verify(&b).expect("verify");
        assert!(!report.is_clean());
        assert_eq!(report.corrupt_pages.len(), 1, "{report}");
        assert_eq!(report.corrupt_pages[0].file, "dat");
        assert_eq!(report.corrupt_pages[0].mismatch.page, 0);

        // And recovery refuses to adopt the damaged committed page: open
        // itself surfaces the mismatch instead of ever serving the bytes.
        let err = match DiskDeployment::open(&b, 64, hasher(), 64) {
            Ok(_) => panic!("open must surface the corruption"),
            Err(e) => e,
        };
        assert!(crate::pager::checksum_mismatch(&err).is_some(), "{err}");
    }

    #[test]
    fn shared_reference_counting_across_threads() {
        let b = base("shared_count");
        let _g = Cleanup(b.clone());
        let mut dep = DiskDeployment::open(&b, 64, hasher(), 256).expect("open");
        for i in 0..300 {
            dep.append(&txn(i, &[(i % 20) as u32, ((i * 3) % 20) as u32]))
                .expect("append");
        }
        let queries: Vec<Itemset> = (0..20u32)
            .map(|v| Itemset::from_values(&[v, (v + 1) % 20]))
            .collect();
        let serial: Vec<u64> = queries
            .iter()
            .map(|q| dep.index.count_itemset(q).expect("serial"))
            .collect();
        // Two scoped threads counting concurrently on a *shared* &DiskBbs
        // must both reproduce the serial answers exactly.
        let index = &dep.index;
        let (a, b2) = std::thread::scope(|s| {
            let worker = || {
                queries
                    .iter()
                    .map(|q| index.count_itemset(q).expect("threaded"))
                    .collect::<Vec<u64>>()
            };
            let h1 = s.spawn(worker);
            let h2 = s.spawn(worker);
            (h1.join().expect("join1"), h2.join().expect("join2"))
        });
        assert_eq!(a, serial);
        assert_eq!(b2, serial);
    }

    #[test]
    fn counter_reader_matches_index_and_respects_flush_boundary() {
        let b = base("counter");
        let _g = Cleanup(b.clone());
        let mut dep = DiskDeployment::open(&b, 64, hasher(), 256).expect("open");
        for i in 0..100 {
            dep.append(&txn(i, &[(i % 10) as u32])).expect("append");
        }
        dep.flush().expect("flush");
        // Unflushed rows are invisible to a fresh reader.
        dep.append(&txn(100, &[0])).expect("append");
        let mut reader = dep.index.counter().expect("counter");
        assert_eq!(reader.rows(), 100);
        for v in 0..10u32 {
            let q = Itemset::from_values(&[v]);
            // The live index counts 101 rows; re-derive the flushed answer
            // from a second reader to compare independent readers instead.
            let mut other = dep.index.counter().expect("counter2");
            assert_eq!(
                reader.count_itemset(&q, EXACT).expect("reader"),
                other.count_itemset(&q, EXACT).expect("other"),
                "item {v}"
            );
        }
        // Bounded counting never undercounts below an achievable tau and is
        // exact at tau = 1 whenever the true count is >= 1.
        let q = Itemset::from_values(&[3]);
        let exact = reader.count_itemset(&q, EXACT).expect("exact");
        assert!(exact >= 10); // 10 true occurrences, estimates never undercount
        assert_eq!(reader.count_itemset(&q, 1).expect("bounded"), exact);
    }

    #[test]
    fn in_place_counting_under_tiny_cache() {
        let b = base("tinycache");
        let _g = Cleanup(b.clone());
        // Cache of 4 pages over a 64-slice file: every count evicts.
        let mut dep = DiskDeployment::open(&b, 64, hasher(), 4).expect("open");
        for i in 0..500 {
            dep.append(&txn(i, &[(i % 40) as u32, ((i * 7) % 40) as u32]))
                .expect("append");
        }
        let mem = dep.index.load().expect("load");
        let mut io = IoStats::new();
        for v in 0..40u32 {
            let items = Itemset::from_values(&[v]);
            assert_eq!(
                dep.index.count_itemset(&items).expect("count"),
                mem.est_count(&items, &mut io),
                "item {v}"
            );
        }
        assert!(dep.index.cache_stats().evictions > 0);
    }
}
