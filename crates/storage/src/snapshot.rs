//! Snapshot-isolated concurrent access to a [`DiskDeployment`] — the
//! storage substrate of the `bbs-server` daemon.
//!
//! A [`SharedDeployment`] splits the deployment into one **writer** (the
//! mutable [`DiskDeployment`], serialised behind a mutex — in the server
//! this is only ever touched by the committer thread) and a published
//! chain of immutable **[`Snapshot`]s**.  Each snapshot is an independent
//! read-only handle pair (a [`DiskBbs`] over the slice/counts files and a
//! [`HeapFile`] over the data/index files) opened at a committed row
//! count, stamped with a monotonically increasing *epoch*.
//!
//! # Isolation protocol
//!
//! Three mechanisms compose into snapshot isolation:
//!
//! 1. **Commit-fenced file I/O.**  The on-disk files only change inside
//!    [`SharedDeployment::commit`], which holds the write side of an
//!    `RwLock` while it appends, flushes and syncs.  Every snapshot read
//!    (a page fetch during a count, probe, load or mining call) holds the
//!    read side, so a reader can never see a page and its checksum
//!    mid-update — no spurious [`crate::ChecksumMismatch`], no torn page
//!    content.  A mining run takes it once per `CountItemSet` call of its
//!    cursors and once for its refinement scan, never across the walk: a
//!    commit waits for one call, not for the mine.
//! 2. **Append-only content + the snapshot clamp.**  Between commits a
//!    snapshot's pages are stable, but a *later* commit does extend the
//!    shared boundary pages in place (appends only OR bits into slice
//!    pages and extend the heap tail).  Committed bytes/bits are never
//!    rewritten, so a record or row below the snapshot's row count is
//!    immutable forever; and the slice-file reader clamps counting to the
//!    row count its header carried when it was opened, so newer bits in a
//!    re-read boundary page are invisible.  A snapshot therefore stays
//!    exact — not just "roughly consistent" — for as long as the caller
//!    keeps its `Arc` alive.
//! 3. **Publish-after-commit.**  A new snapshot is opened only after the
//!    commit record for its rows has landed, so every published epoch is
//!    durable: what a query observed is what a crash-recovered reopen
//!    would also serve.
//!
//! Queries on old snapshots keep answering from their epoch's prefix
//! while new commits land — the paper's "dynamic index" claim, made
//! mechanically checkable (see `tests/concurrent.rs`).
//!
//! # Counting a snapshot
//!
//! Every count a snapshot answers ([`Snapshot::count_many`]; a single
//! [`Snapshot::count`] is a batch of one) goes through the same
//! depth-first cursor that mines: one [`DiskCounter`] per snapshot, built
//! on the first count and kept behind a mutex, whose level 0 is the
//! snapshot's rows AND-NOT its tombstones — the clamp and the dead mask
//! are applied once per snapshot, not once per count.  A batch takes the
//! commit fence once and walks its prefix trie
//! ([`DiskCounter::count_many`]), holding at most three levels however
//! long its itemsets are, so the memory a snapshot keeps for counting
//! does not depend on what a request asks.
//!
//! # Mining a snapshot
//!
//! A snapshot is mined **in place** (`tests/snapshot_mining.rs`): it hands
//! out the two things the one enumerator of `bbs_core::filter` needs.
//! [`Snapshot::counter`] is a depth-first disk cursor for one worker — a
//! private reader on a duplicate of the descriptor the snapshot itself
//! holds (so it is the snapshot's file even after a compaction or fold
//! renamed another over the name), clamped to the snapshot's rows with its
//! tombstones folded into level 0 (mechanism 2, for a reader that opens
//! after later commits), fenced per call (mechanism 1).  A reader that
//! outlives commits re-reads a boundary page whose digest slot it cached
//! before the commit; the pager's stale-digest recovery re-fetches the
//! slot and the clamp discards the new bits.  [`Snapshot::tally`] is the
//! refinement scan: the heap prefix, dead rows skipped.
//! [`Snapshot::load`] still materialises a snapshot for the
//! memory-resident miners, off the request path.

use crate::backend::{DynBackend, FileBackend, SharedFaultPlan};
use crate::cache::CacheStats;
use crate::dedup::DedupReceipt;
use crate::diskbbs::{
    load_live, read_fence, DiskBbs, DiskCounter, DiskDeployment, DEFAULT_DEDUP_WINDOW,
};
use crate::heapfile::HeapFile;
use crate::maintain::MaintainReport;
use crate::mine::tally_live;
use crate::pager::PagerStats;
use bbs_core::Bbs;
use bbs_hash::ItemHasher;
use bbs_tdb::{ItemId, Itemset, Transaction, TransactionDb};
use std::collections::HashMap;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Opens one physical backend of the writer deployment: called once per
/// file of the table (`tag` is the file's extension — `commit`, `dat`,
/// `idx`, `slices`, `counts`, `dedup`, `log`, `del`) at open and again
/// whenever a poisoned writer is healed.  This is how the chaos tests
/// interpose a [`crate::FaultInjector`] under a live server.
pub type BackendFactory =
    Arc<dyn Fn(&'static str, &Path) -> io::Result<DynBackend> + Send + Sync>;

/// An immutable, epoch-stamped read view of a deployment.
///
/// All methods take `&self`; internal synchronisation (the serving
/// cursor's mutex, the heap handle's mutex, the shared I/O fence) makes a
/// shared `Arc<Snapshot>` safe to query from any number of threads.
pub struct Snapshot {
    epoch: u64,
    rows: u64,
    index: DiskBbs,
    /// The cursor every count walks, built on the first count.
    cursor: Mutex<Option<DiskCounter>>,
    heap: Mutex<HeapFile>,
    io: Arc<RwLock<()>>,
}

impl Snapshot {
    /// The commit epoch this snapshot observes (0 = the state at open).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Committed rows visible to this snapshot.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    fn heap(&self) -> MutexGuard<'_, HeapFile> {
        self.heap.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The item hasher this snapshot's index positions items with — the
    /// deployment's, whatever it was opened with.
    pub fn hasher(&self) -> &Arc<dyn ItemHasher> {
        self.index.hasher()
    }

    /// `CountItemSet` at this epoch: the BBS estimate (an upper bound on
    /// the exact support, exact for the rows this snapshot covers) — a
    /// batch of one for [`Snapshot::count_many`].
    pub fn count(&self, items: &Itemset) -> io::Result<u64> {
        Ok(self.count_many(std::slice::from_ref(items))?[0])
    }

    /// Batched [`Snapshot::count`]: the snapshot's serving cursor walks
    /// the batch's prefix trie ([`DiskCounter::count_many`]).  Every
    /// itemset is counted at this snapshot's epoch, and supports come back
    /// in request order, identical to counting them one at a time.
    ///
    /// The commit fence is taken once for the batch, and before the
    /// cursor's mutex.  The cursor is built with the unfenced
    /// [`DiskBbs::counter`]: taking the read fence a second time while a
    /// writer waits for it would deadlock.
    pub fn count_many(&self, itemsets: &[Itemset]) -> io::Result<Vec<u64>> {
        let _fence = read_fence(&self.io);
        let mut cursor = self.cursor.lock().unwrap_or_else(|e| e.into_inner());
        let cursor = match &mut *cursor {
            Some(cursor) => cursor,
            slot => slot.insert(self.index.counter()?),
        };
        cursor.count_many(itemsets)
    }

    /// Tombstoned rows within this snapshot's prefix.
    pub fn deleted_rows(&self) -> u64 {
        self.index.deleted_rows()
    }

    /// Live (non-tombstoned) rows visible to this snapshot.
    pub fn live_rows(&self) -> u64 {
        self.rows - self.deleted_rows()
    }

    /// Is `row` tombstoned at this epoch?
    pub fn is_dead(&self, row: u64) -> bool {
        self.index.dead_mask().is_some_and(|d| d.is_dead(row))
    }

    /// Fetches one transaction by row position (`None` when the row is
    /// beyond this snapshot's committed prefix or tombstoned).
    pub fn probe(&self, row: u64) -> io::Result<Option<Transaction>> {
        if row >= self.rows || self.is_dead(row) {
            return Ok(None);
        }
        let _fence = read_fence(&self.io);
        self.heap().get(row).map(Some)
    }

    /// Materialises this snapshot in memory: the transaction database and
    /// the BBS index, both clamped to the snapshot's rows.  No request
    /// path calls this any more — a served MINE runs the cursor of
    /// [`Snapshot::counter`] in place; it remains what hands a consistent
    /// cut to the memory-resident miners and baselines (the benchmark's
    /// `storage.snapshot_load_s` and `core.mine_*` rows measure it).
    ///
    /// Tombstoned rows are excluded: the result is exactly what an
    /// offline rebuild from only the surviving transactions would
    /// produce, bit-for-bit (inserting a survivor sets the same slice
    /// bits regardless of the dead rows between them being skipped).
    pub fn load(&self) -> io::Result<(TransactionDb, Bbs)> {
        let _fence = read_fence(&self.io);
        load_live(&mut self.heap(), &self.index, self.rows)
    }

    /// Exact supports of the 1-itemsets over this snapshot's live rows —
    /// the vocabulary and the `CheckCount` inputs of a mining run.
    pub fn item_counts(&self) -> &HashMap<ItemId, u64> {
        self.index.item_counts()
    }

    /// A depth-first cursor over this snapshot for one mining worker: an
    /// independent reader (own page cache) on the slice file **this
    /// snapshot has open** — a duplicated descriptor, so a compaction or
    /// fold that has since renamed another file over the path changes
    /// nothing — whose level 0 is `min(header rows, snapshot rows)` AND-NOT
    /// this snapshot's tombstones, so rows committed after the pin never
    /// count.  Each `CountSource` call of the reader holds the commit
    /// fence shared while it reads pages and releases it on return: a
    /// mine, however long, delays a commit by one call at most.
    pub fn counter(&self) -> io::Result<DiskCounter> {
        let _fence = read_fence(&self.io);
        Ok(self.index.counter()?.fenced_by(Arc::clone(&self.io)))
    }

    /// Exact supports of `cands` at this epoch: one sequential scan of the
    /// heap, clamped to the snapshot's rows and skipping tombstoned ones —
    /// the refinement pass of a mining run.  The fence is held for the
    /// scan.
    pub fn tally(&self, cands: &[Itemset]) -> io::Result<Vec<u64>> {
        let _fence = read_fence(&self.io);
        let dead = self.index.dead_mask().map(|d| &**d);
        tally_live(&mut self.heap(), self.rows, dead, cands)
    }

    /// Measures the live false-positive rate of the filter at this epoch:
    /// `samples` deterministic pseudo-random item pairs (seeded by `seed`)
    /// are counted through the index (the BBS estimate, an upper bound)
    /// and exactly (one heap scan over the live rows); the FPR is the
    /// fraction of non-matching live rows that the filter wrongly passed,
    /// `Σ(est − exact) / Σ(live − exact)`.  Returns `0.0` when there is
    /// nothing meaningful to probe.
    pub fn measure_fpr(&self, samples: usize, seed: u64) -> io::Result<f64> {
        let vocab = self.index.vocabulary();
        let live = self.live_rows();
        if vocab.len() < 2 || live == 0 || samples == 0 {
            return Ok(0.0);
        }
        let queries = fpr_probes(&vocab, samples, seed);
        let estimates = self.count_many(&queries)?;
        let exact = self.tally(&queries)?;
        let mut false_pos = 0u64;
        let mut negatives = 0u64;
        for (est, ex) in estimates.iter().zip(&exact) {
            false_pos += est.saturating_sub(*ex);
            negatives += live - ex;
        }
        if negatives == 0 {
            return Ok(0.0);
        }
        Ok(false_pos as f64 / negatives as f64)
    }
}

/// The item pairs [`Snapshot::measure_fpr`] probes: `samples` pairs of
/// distinct items of `vocab` (at least two), drawn by a xorshift stream
/// seeded by `seed`.  When both draws land on the same position the second
/// item is the next one in `vocab`.
fn fpr_probes(vocab: &[ItemId], samples: usize, seed: u64) -> Vec<Itemset> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % vocab.len() as u64) as usize
    };
    (0..samples)
        .map(|_| {
            let a = next();
            let mut b = next();
            if b == a {
                b = (a + 1) % vocab.len();
            }
            Itemset::from_items(vec![vocab[a], vocab[b]])
        })
        .collect()
}

/// Write-side counters published after every commit (copies of the
/// writer deployment's cache/pager stats, plus commit accounting).
#[derive(Debug, Clone, Copy, Default)]
pub struct WriterProfile {
    /// Slice-cache counters of the writer's index.
    pub cache: CacheStats,
    /// Physical I/O counters of the writer's slice pager.
    pub pager: PagerStats,
    /// Group commits performed.
    pub commits: u64,
    /// Transactions appended across all commits.
    pub appended: u64,
    /// Rows durable as of the last commit.
    pub committed_rows: u64,
    /// Rows tombstoned as of the last commit.
    pub deleted_rows: u64,
    /// Delete commits performed.
    pub deletes: u64,
}

/// The receipt of one group commit.
pub struct CommitReceipt {
    /// Row range the batch occupies.
    pub rows: Range<u64>,
    /// Epoch of the snapshot that first shows the batch.
    pub epoch: u64,
    /// That snapshot.
    pub snapshot: Arc<Snapshot>,
}

/// The receipt of one tombstone commit.
pub struct DeleteReceipt {
    /// Rows this commit actually tombstoned (already-dead and unknown
    /// TIDs are skipped).
    pub deleted: u64,
    /// Epoch of the snapshot that first hides them.
    pub epoch: u64,
    /// That snapshot.
    pub snapshot: Arc<Snapshot>,
}

/// A deployment shared between one committing writer and any number of
/// snapshot readers (see the module docs for the isolation protocol).
///
/// The writer slot is `None` while **poisoned**: a failed commit (torn
/// I/O, injected fault, disk full) discards the writer outright rather
/// than trusting its in-memory state, and the next write-side operation
/// *heals* it by reopening through the [`BackendFactory`] — which runs
/// the ordinary crash recovery, rolling the files back to the last
/// commit.  Snapshot readers never notice: they hold their own handles
/// and the committed prefix on disk is untouched by a failed commit.
pub struct SharedDeployment {
    writer: Mutex<Option<DiskDeployment<DynBackend>>>,
    factory: BackendFactory,
    io: Arc<RwLock<()>>,
    current: Mutex<Arc<Snapshot>>,
    epoch: AtomicU64,
    profile: Mutex<WriterProfile>,
    base: PathBuf,
    /// Signature width `m` — atomic because a fold halves it while
    /// readers and the stats path observe it.
    width: AtomicUsize,
    hasher: Arc<dyn ItemHasher>,
    cache_pages: usize,
    dedup_window: AtomicUsize,
    writer_heals: AtomicU64,
    /// Mirror of the writer's committed commit-sequence number, readable
    /// without the writer mutex — the cap the replication-log reader uses
    /// to hide entries whose commit record has not landed yet.
    committed_seq: AtomicU64,
}

impl SharedDeployment {
    /// Opens (creating or crash-recovering as needed) the deployment at
    /// `base` and publishes the initial snapshot (epoch 0).  `width` and
    /// `hasher` lay out a deployment that does not exist yet; an existing
    /// one is served at the width and hash family its slice header
    /// records.
    ///
    /// The deployment is flushed once on open so the on-disk files are in
    /// a committed state before the first snapshot reader touches them.
    pub fn open(
        base: &Path,
        width: usize,
        hasher: Arc<dyn ItemHasher>,
        cache_pages: usize,
    ) -> io::Result<Arc<Self>> {
        let files: BackendFactory =
            Arc::new(|_tag, path| Ok(Box::new(FileBackend::open(path)?) as DynBackend));
        Self::open_with_factory(base, width, hasher, cache_pages, files)
    }

    /// [`SharedDeployment::open`] with every *writer* backend wrapped in a
    /// [`crate::FaultInjector`] driven by `plan` — the chaos harness's
    /// entry point.  Snapshot readers keep using plain file backends: the
    /// faults model a failing write path, and reads must keep serving.
    pub fn open_faulty(
        base: &Path,
        width: usize,
        hasher: Arc<dyn ItemHasher>,
        cache_pages: usize,
        plan: SharedFaultPlan,
    ) -> io::Result<Arc<Self>> {
        let factory: BackendFactory = Arc::new(move |tag, path| {
            Ok(Box::new(plan.wrap(tag, FileBackend::open(path)?)) as DynBackend)
        });
        Self::open_with_factory(base, width, hasher, cache_pages, factory)
    }

    /// [`SharedDeployment::open`] over an arbitrary [`BackendFactory`].
    pub fn open_with_factory(
        base: &Path,
        width: usize,
        hasher: Arc<dyn ItemHasher>,
        cache_pages: usize,
        factory: BackendFactory,
    ) -> io::Result<Arc<Self>> {
        let mut dep = DiskDeployment::open_at(base, width, hasher, cache_pages, &*factory)?;
        dep.flush()?;
        let io = Arc::new(RwLock::new(()));
        let mut profile = WriterProfile::default();
        refresh_profile(&dep, &mut profile);
        let shared = SharedDeployment {
            current: Mutex::new(open_snapshot(&dep, base, cache_pages, &io, 0)?),
            io,
            epoch: AtomicU64::new(0),
            profile: Mutex::new(profile),
            base: base.to_path_buf(),
            // A fold may have halved the on-disk width since this
            // deployment was configured: the slice-file header wins.
            width: AtomicUsize::new(dep.index.width()),
            // Likewise the hash family the header records, whatever the
            // caller passed: every heal and reopen then agrees with it.
            hasher: Arc::clone(dep.index.hasher()),
            cache_pages,
            dedup_window: AtomicUsize::new(DEFAULT_DEDUP_WINDOW),
            writer_heals: AtomicU64::new(0),
            committed_seq: AtomicU64::new(dep.committed_seq()),
            writer: Mutex::new(Some(dep)),
            factory,
        };
        Ok(Arc::new(shared))
    }

    /// Current signature width `m` (changes when a fold runs).
    pub fn width(&self) -> usize {
        self.width.load(Ordering::Acquire)
    }

    /// The latest published snapshot (cheap: one mutex lock + `Arc` clone).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// The latest published epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Base path of the deployment's files (`<base>.*`).
    pub fn base(&self) -> &Path {
        &self.base
    }

    /// Sequence number of the last completed commit — readable without
    /// the writer mutex.  Entries of the replication log stamped past
    /// this are synced-but-uncommitted and must not be served.
    pub fn committed_seq(&self) -> u64 {
        self.committed_seq.load(Ordering::Acquire)
    }

    /// The published write-side counters.
    pub fn writer_profile(&self) -> WriterProfile {
        *self.profile.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Group-commits a batch of transactions: appends them all, makes them
    /// durable with one flush, then opens and publishes the next epoch's
    /// snapshot.
    ///
    /// Readers are excluded only while file bytes actually change (the
    /// append+flush under the I/O fence); the snapshot open afterwards
    /// runs concurrently with reads — the files are stable again by then,
    /// and no other commit can interleave because the writer mutex is
    /// still held.
    pub fn commit(&self, txns: &[Transaction]) -> io::Result<CommitReceipt> {
        self.commit_with(txns, &[])
    }

    /// [`SharedDeployment::commit`] that also records exactly-once
    /// receipts: each `(req_id, offset, len)` names the sub-batch of
    /// `txns` one producer contributed (`offset`/`len` in transactions,
    /// relative to the start of the batch).  The receipts become durable
    /// dedup-window entries atomically with the commit record; a retry of
    /// `req_id` is answered by [`SharedDeployment::dedup_lookup`].
    ///
    /// On any I/O failure the writer is poisoned and the error returned;
    /// nothing is published, already-committed rows stay served, and the
    /// next write-side call heals the writer by reopening (= rolling the
    /// files back to the last commit).
    pub fn commit_with(
        &self,
        txns: &[Transaction],
        receipts: &[(u64, u64, u64)],
    ) -> io::Result<CommitReceipt> {
        let (rows, snapshot) = self.publish(
            |guard| {
                let writer = self.writer_or_heal(guard)?;
                let first = writer.db.len();
                for t in txns {
                    writer.append(t)?;
                }
                let entries: Vec<(u64, DedupReceipt)> = receipts
                    .iter()
                    .filter(|&&(req_id, _, _)| req_id != 0)
                    .map(|&(req_id, offset, appended)| {
                        let first_row = first + offset;
                        (req_id, DedupReceipt { first_row, appended })
                    })
                    .collect();
                // The batch rides into the replication log with its
                // receipts, durable atomically with the commit record.
                writer.flush_logged(first, txns, &entries)?;
                Ok(first..writer.db.len())
            },
            |p| {
                p.commits += 1;
                p.appended += txns.len() as u64;
            },
        )?;
        debug_assert_eq!(snapshot.index.rows(), rows.end);
        Ok(CommitReceipt {
            rows,
            epoch: snapshot.epoch,
            snapshot,
        })
    }

    /// Tombstones the live rows holding `tids` and durably commits the
    /// deletion, then publishes the next epoch's snapshot (which masks
    /// them out of every count, probe and mine).  `req_id != 0` records
    /// an exactly-once receipt: a retried DELETE is answered from the
    /// dedup window without re-resolving (see
    /// [`SharedDeployment::dedup_lookup`] — delete receipts carry the
    /// sentinel row `u64::MAX` and the deleted count).
    ///
    /// Deletes commit synchronously and uncoalesced: they are rare next
    /// to inserts, and a dedicated commit record keeps recovery identical
    /// to the insert path.
    pub fn delete_tids(&self, tids: &[u64], req_id: u64) -> io::Result<DeleteReceipt> {
        self.delete_with(|writer| {
            let rows = writer.resolve_tids(tids)?;
            commit_deletes(writer, &rows, &[(req_id, rows.len() as u64)])
        })
    }

    /// Row-addressed delete — the follower-apply path: tombstones `rows`
    /// exactly as a replicated delete entry dictates, recording the
    /// entry's receipts (pairs of `req_id, deleted-count`) so a promoted
    /// follower answers retried DELETEs with the original receipts.
    pub fn delete_rows(
        &self,
        rows: &[u64],
        receipts: &[(u64, u64)],
    ) -> io::Result<DeleteReceipt> {
        self.delete_with(|writer| commit_deletes(writer, rows, receipts))
    }

    /// Shared shell of the delete paths: `op` on the healed writer, then
    /// the next epoch's snapshot with the post-commit tombstone bitmap.
    fn delete_with(
        &self,
        op: impl FnOnce(&mut DiskDeployment<DynBackend>) -> io::Result<u64>,
    ) -> io::Result<DeleteReceipt> {
        let (deleted, snapshot) =
            self.publish(|guard| op(self.writer_or_heal(guard)?), |p| p.deletes += 1)?;
        Ok(DeleteReceipt {
            deleted,
            epoch: snapshot.epoch,
            snapshot,
        })
    }

    /// Wipes every backing file and reopens empty — the follower
    /// wipe-resync path after the primary compacted (its row numbering
    /// restarted, so row-addressed replication cannot continue).  Readers
    /// holding old snapshots keep their file handles and stay consistent;
    /// a fresh (empty) snapshot is published at the next epoch.
    pub fn reset_files(&self) -> io::Result<()> {
        self.publish(
            |guard| {
                **guard = None;
                DiskDeployment::remove_files(&self.base)?;
                self.writer_or_heal(guard)?.flush()
            },
            |_| {},
        )?;
        Ok(())
    }

    /// Compacts the deployment online: rewrites the files with only the
    /// live rows (optionally re-hashed at `target_width`) behind the
    /// crash-safe staged swap of [`crate::maintain`], then reopens the
    /// writer and publishes the next epoch's snapshot.  Row numbering
    /// restarts, so followers of this deployment must wipe-resync.
    ///
    /// Reads are fenced out for the duration: the swap replaces files by
    /// rename, and a concurrent per-query reader opening the new files
    /// under an old snapshot's row clamp would count garbage.  Snapshots
    /// taken before the call stay pinned to the old file handles and
    /// must be discarded by the caller once this returns (see the
    /// engine's stale-pin accounting).
    pub fn compact(&self, target_width: Option<usize>) -> io::Result<MaintainReport> {
        self.maintain_with(|base, width, hasher, cache_pages| {
            crate::maintain::compact_deployment(base, width, hasher, target_width, cache_pages)
        })
    }

    /// Halves the slice width online by folding each slice `j` into
    /// `j + m/2` (bit-for-bit what re-hashing at `m/2` would build),
    /// behind the same crash-safe swap as [`SharedDeployment::compact`].
    /// Rows keep their numbers, so followers are unaffected.
    pub fn fold(&self) -> io::Result<MaintainReport> {
        self.maintain_with(|base, _width, hasher, cache_pages| {
            crate::maintain::fold_deployment(base, hasher, cache_pages)
        })
    }

    /// Shared shell of the online maintenance paths: flush and close the
    /// writer (the maintenance functions open the files themselves), run
    /// `op`, reopen the writer — which adopts the resulting width — and
    /// publish the next epoch's snapshot.  A failure leaves the writer
    /// poisoned like a failed commit; the heal that follows reopens, which
    /// resolves a swap that failed half-way to the old or the new state.
    fn maintain_with(
        &self,
        op: impl FnOnce(&Path, usize, Arc<dyn ItemHasher>, usize) -> io::Result<MaintainReport>,
    ) -> io::Result<MaintainReport> {
        let (report, _) = self.publish(
            |guard| {
                self.writer_or_heal(guard)?.flush()?;
                **guard = None;
                let report = op(
                    &self.base,
                    self.width(),
                    Arc::clone(&self.hasher),
                    self.cache_pages,
                )?;
                // Reopen directly (not via the heal path): maintenance is
                // not a poisoning failure and must not inflate that counter.
                **guard = Some(self.open_writer(report.width)?);
                Ok(report)
            },
            |_| {},
        )?;
        Ok(report)
    }

    /// The one way an epoch is published.  Under the writer mutex and the
    /// I/O write fence, `write` changes the files and leaves a live writer
    /// in the slot; any failure poisons the slot — the in-memory writer may
    /// hold half a batch, and reopening later re-runs crash recovery
    /// against the commit record, which a failed write never moved.  Then,
    /// the files stable again and no other commit able to interleave, the
    /// next epoch's snapshot is opened, the write-side counters refreshed
    /// (`account` adds what this kind of write counts), and the snapshot
    /// becomes current.
    fn publish<T>(
        &self,
        write: impl FnOnce(&mut WriterSlot<'_>) -> io::Result<T>,
        account: impl FnOnce(&mut WriterProfile),
    ) -> io::Result<(T, Arc<Snapshot>)> {
        let mut guard = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let out = {
            let _fence = self.io.write().unwrap_or_else(|e| e.into_inner());
            match write(&mut guard) {
                Ok(out) => out,
                Err(e) => {
                    *guard = None;
                    return Err(e);
                }
            }
        };
        let writer = guard.as_ref().expect("a successful write leaves a writer");
        self.committed_seq
            .store(writer.committed_seq(), Ordering::Release);
        let epoch = self.epoch.load(Ordering::Acquire) + 1;
        let snapshot = open_snapshot(writer, &self.base, self.cache_pages, &self.io, epoch)?;
        {
            let mut p = self.profile.lock().unwrap_or_else(|e| e.into_inner());
            refresh_profile(writer, &mut p);
            account(&mut p);
        }
        let mut current = self.current.lock().unwrap_or_else(|e| e.into_inner());
        *current = Arc::clone(&snapshot);
        self.epoch.store(epoch, Ordering::Release);
        drop(current);
        Ok((out, snapshot))
    }

    /// The receipt a previous commit recorded for `req_id` (0 = never
    /// deduplicated), if it is still inside the dedup window.  Heals a
    /// poisoned writer first — the window lives in the writer.
    pub fn dedup_lookup(&self, req_id: u64) -> io::Result<Option<DedupReceipt>> {
        if req_id == 0 {
            return Ok(None);
        }
        self.with_writer(|writer| writer.dedup_lookup(req_id))
    }

    /// Resizes the writer's dedup window (applied again after each heal).
    pub fn set_dedup_window(&self, window: usize) {
        let window = window.max(1);
        self.dedup_window.store(window, Ordering::Release);
        let mut guard = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(writer) = guard.as_mut() {
            writer.set_dedup_window(window);
        }
    }

    /// True while the writer is poisoned (the last commit failed and no
    /// write-side call has healed it yet).  Reads are unaffected.
    pub fn writer_poisoned(&self) -> bool {
        self.writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_none()
    }

    /// Times the writer has been healed after a poisoning failure.
    pub fn writer_heals(&self) -> u64 {
        self.writer_heals.load(Ordering::Relaxed)
    }

    /// Count of delete-carrying entries in this deployment's replication
    /// log — the delete cursor (`dseq`) a caught-up follower of this
    /// node holds, and the cursor this node (as a follower itself)
    /// resumes pulling from after a restart.
    pub fn log_delete_entries(&self) -> io::Result<u64> {
        self.with_writer(|writer| writer.log_delete_entries())
    }

    /// Reads from the writer, healing a poisoned one first (the fence is
    /// only for the heal: a live writer is read from memory).
    fn with_writer<T>(
        &self,
        read: impl FnOnce(&DiskDeployment<DynBackend>) -> T,
    ) -> io::Result<T> {
        let mut guard = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_none() {
            let _fence = self.io.write().unwrap_or_else(|e| e.into_inner());
            self.writer_or_heal(&mut guard)?;
        }
        Ok(read(guard.as_ref().expect("writer alive")))
    }

    /// Reopens a poisoned writer through the factory.  Caller must hold
    /// the writer lock *and* the I/O write fence (recovery rolls files
    /// back in place, which must not race snapshot reads).
    fn writer_or_heal<'g>(
        &self,
        guard: &'g mut WriterSlot<'_>,
    ) -> io::Result<&'g mut DiskDeployment<DynBackend>> {
        if guard.is_none() {
            **guard = Some(self.open_writer(self.width())?);
            self.writer_heals.fetch_add(1, Ordering::Relaxed);
        }
        Ok(guard.as_mut().expect("writer alive"))
    }

    /// The served open: the one open sequence over the factory's backends.
    /// Adopts the width found on disk (a fold, or a width-changing
    /// compaction that a failed swap left for recovery to finish, may have
    /// changed it) and the committed sequence.
    fn open_writer(&self, width: usize) -> io::Result<DiskDeployment<DynBackend>> {
        let hasher = Arc::clone(&self.hasher);
        let mut dep =
            DiskDeployment::open_at(&self.base, width, hasher, self.cache_pages, &*self.factory)?;
        dep.set_dedup_window(self.dedup_window.load(Ordering::Acquire));
        self.width.store(dep.index.width(), Ordering::Release);
        self.committed_seq
            .store(dep.committed_seq(), Ordering::Release);
        Ok(dep)
    }
}

/// The writer slot as its holder sees it: `None` while poisoned.
type WriterSlot<'a> = MutexGuard<'a, Option<DiskDeployment<DynBackend>>>;

/// Commits `rows` as tombstones with their delete receipts, pairs of
/// `(req_id, deleted count)`: in the dedup window a delete's receipt
/// carries the sentinel row `u64::MAX`; `req_id == 0` records none.
fn commit_deletes(
    writer: &mut DiskDeployment<DynBackend>,
    rows: &[u64],
    receipts: &[(u64, u64)],
) -> io::Result<u64> {
    let entries: Vec<(u64, DedupReceipt)> = receipts
        .iter()
        .filter(|&&(req_id, _)| req_id != 0)
        .map(|&(req_id, appended)| {
            let first_row = u64::MAX;
            (req_id, DedupReceipt { first_row, appended })
        })
        .collect();
    writer.commit_deletes(rows, &entries)
}

/// Opens a snapshot of the committed on-disk state at `epoch`: the files
/// by name, clamped to `writer`'s rows and masking its tombstones (call
/// while holding the writer mutex, so the mask matches the files).
fn open_snapshot(
    writer: &DiskDeployment<DynBackend>,
    base: &Path,
    cache_pages: usize,
    io: &Arc<RwLock<()>>,
    epoch: u64,
) -> io::Result<Arc<Snapshot>> {
    let hasher = Arc::clone(writer.index.hasher());
    let mut index = DiskBbs::open(base, writer.index.width(), hasher, cache_pages)?;
    index.set_dead_mask(Some(writer.dead_mask()));
    let heap = HeapFile::open(base, cache_pages, cache_pages.div_ceil(4).max(2))?;
    Ok(Arc::new(Snapshot {
        epoch,
        rows: writer.db.len(),
        index,
        cursor: Mutex::new(None),
        heap: Mutex::new(heap),
        io: Arc::clone(io),
    }))
}

/// Brings the published write-side counters up to `writer`'s state.
fn refresh_profile(writer: &DiskDeployment<DynBackend>, p: &mut WriterProfile) {
    p.cache = writer.index.cache_stats();
    p.pager = writer.index.pager_stats();
    p.committed_rows = writer.db.len();
    p.deleted_rows = writer.deleted_rows();
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_hash::Md5BloomHasher;

    fn base(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bbs_snapshot_{}_{}", std::process::id(), name));
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
    fn snapshots_are_immutable_while_commits_land() {
        let b = base("immutable");
        let _g = Cleanup(b.clone());
        let shared = SharedDeployment::open(&b, 64, hasher(), 256).expect("open");
        let empty = shared.snapshot();
        assert_eq!((empty.epoch(), empty.rows()), (0, 0));

        let r1 = shared
            .commit(&[txn(0, &[1, 2]), txn(1, &[1, 2, 3])])
            .expect("commit 1");
        assert_eq!(r1.rows, 0..2);
        assert_eq!(r1.epoch, 1);
        let snap1 = shared.snapshot();
        assert_eq!(snap1.rows(), 2);
        let q = Itemset::from_values(&[1, 2]);
        assert_eq!(snap1.count(&q).expect("count"), 2);

        let r2 = shared.commit(&[txn(2, &[1, 2, 9])]).expect("commit 2");
        assert_eq!(r2.rows, 2..3);
        // The old snapshot still answers from its epoch...
        assert_eq!(snap1.count(&q).expect("old count"), 2);
        assert_eq!(snap1.probe(2).expect("old probe"), None);
        // ...while the new one sees the batch.
        assert_eq!(r2.snapshot.count(&q).expect("new count"), 3);
        assert_eq!(
            r2.snapshot.probe(2).expect("new probe"),
            Some(txn(2, &[1, 2, 9]))
        );
        // And the empty snapshot still stands at zero.
        assert_eq!(empty.count(&q).expect("empty count"), 0);
    }

    #[test]
    fn snapshot_load_is_clamped_to_its_epoch() {
        let b = base("load_clamp");
        let _g = Cleanup(b.clone());
        let shared = SharedDeployment::open(&b, 64, hasher(), 256).expect("open");
        shared
            .commit(&(0..10).map(|i| txn(i, &[1, (i % 3) as u32 + 10])).collect::<Vec<_>>())
            .expect("commit");
        let snap = shared.snapshot();
        shared
            .commit(&(10..25).map(|i| txn(i, &[1, 99])).collect::<Vec<_>>())
            .expect("commit 2");
        let (db, bbs) = snap.load().expect("load");
        assert_eq!(db.len(), 10);
        assert_eq!(bbs.rows(), 10);
        let mut io = bbs_tdb::IoStats::new();
        assert_eq!(bbs.est_count(&Itemset::from_values(&[1]), &mut io), 10);
        // The newest snapshot loads the full 25.
        let (db2, bbs2) = shared.snapshot().load().expect("load 2");
        assert_eq!((db2.len(), bbs2.rows()), (25, 25));
    }

    #[test]
    fn commit_with_records_receipts_that_survive_reopen() {
        let b = base("receipts");
        let _g = Cleanup(b.clone());
        {
            let shared = SharedDeployment::open(&b, 64, hasher(), 256).expect("open");
            let r = shared
                .commit_with(
                    &[txn(0, &[1]), txn(1, &[2]), txn(2, &[3])],
                    &[(77, 0, 2), (78, 2, 1), (0, 0, 3)],
                )
                .expect("commit");
            assert_eq!(r.rows, 0..3);
            let d = shared.dedup_lookup(77).expect("lookup").expect("hit");
            assert_eq!((d.first_row, d.appended), (0, 2));
            let d = shared.dedup_lookup(78).expect("lookup").expect("hit");
            assert_eq!((d.first_row, d.appended), (2, 1));
            assert_eq!(shared.dedup_lookup(0).expect("lookup"), None, "0 = no id");
            assert_eq!(shared.dedup_lookup(99).expect("lookup"), None);
        }
        // The window is durable: a fresh process answers the retry too.
        let shared = SharedDeployment::open(&b, 64, hasher(), 256).expect("reopen");
        let d = shared.dedup_lookup(77).expect("lookup").expect("hit");
        assert_eq!((d.first_row, d.appended), (0, 2));
        assert_eq!(shared.snapshot().rows(), 3);
    }

    #[test]
    fn disk_full_commit_poisons_writer_then_heals_without_duplicates() {
        let b = base("diskfull");
        let _g = Cleanup(b.clone());
        let plan = crate::FaultPlan::counting();
        let shared =
            SharedDeployment::open_faulty(&b, 64, hasher(), 256, plan.clone()).expect("open");
        shared
            .commit_with(&[txn(0, &[1]), txn(1, &[1])], &[(5, 0, 2)])
            .expect("commit 1");

        plan.set_disk_full(true);
        let err = match shared.commit_with(&[txn(2, &[1])], &[(6, 0, 1)]) {
            Ok(_) => panic!("commit must fail with the disk full"),
            Err(e) => e,
        };
        assert!(crate::is_disk_full(&err), "typed StorageFull, got {err}");
        assert!(shared.writer_poisoned());

        // Reads keep serving the committed prefix while the writer is
        // down, and the published epoch never moved.
        let snap = shared.snapshot();
        assert_eq!(snap.rows(), 2);
        assert_eq!(snap.count(&Itemset::from_values(&[1])).expect("count"), 2);
        assert_eq!(shared.epoch(), 1);

        // The dedup window healed along with the writer: the receipt of
        // the *successful* commit is still there, the failed one is not.
        let d = shared.dedup_lookup(5).expect("lookup").expect("hit");
        assert_eq!((d.first_row, d.appended), (0, 2));
        assert_eq!(shared.dedup_lookup(6).expect("lookup"), None);

        plan.set_disk_full(false);
        let r = shared
            .commit_with(&[txn(2, &[1])], &[(6, 0, 1)])
            .expect("space came back");
        assert_eq!(r.rows, 2..3, "failed attempt left no rows behind");
        assert!(!shared.writer_poisoned());
        assert!(shared.writer_heals() >= 1);
        assert_eq!(r.snapshot.count(&Itemset::from_values(&[1])).expect("count"), 3);
    }

    #[test]
    fn fpr_probes_always_name_two_items() {
        // Two items: about half the draws collide, and the fallback must
        // still pick the other item, never the first one again.
        let vocab = [ItemId(1), ItemId(2)];
        for seed in [0, 7, 2002] {
            for probe in fpr_probes(&vocab, 64, seed) {
                assert_eq!(probe.len(), 2, "seed {seed}: {probe:?}");
            }
        }
    }

    #[test]
    fn a_long_itemset_costs_the_serving_cursor_no_extra_levels() {
        let b = base("long_itemset");
        let _g = Cleanup(b.clone());
        let shared = SharedDeployment::open(&b, 256, hasher(), 256).expect("open");
        let long: Vec<u32> = (0..3000).collect();
        let sibling: Vec<u32> = (1..3000).chain([5000]).collect();
        shared
            .commit(&[
                txn(0, &long),
                txn(1, &long[..1500]),
                txn(2, &sibling),
                txn(3, &[1, 2]),
                txn(4, &[2999, 5000]),
            ])
            .expect("commit");
        let snap = shared.snapshot();
        // Two itemsets that share 2 999 items, a duplicate, short ones
        // and the empty itemset: one batch.
        let batch: Vec<Itemset> = [&long[..], &sibling, &long, &[], &[1, 2], &[1, 2999]]
            .into_iter()
            .map(Itemset::from_values)
            .collect();
        let got = snap.count_many(&batch).expect("count_many");
        assert_eq!(got, snap.index.count_itemsets(&batch, None).expect("naive AND"));
        assert!(got[0] >= 1 && got[1] >= 2 && got[3] == 5, "{got:?}");
        let cursor = snap.cursor.lock().expect("cursor");
        let held = cursor.as_ref().expect("built on the first count").levels_held();
        assert!(held <= 3, "{held} levels for a {}-item itemset", long.len());
    }

    #[test]
    fn reopen_resumes_epochs_from_committed_state() {
        let b = base("reopen");
        let _g = Cleanup(b.clone());
        {
            let shared = SharedDeployment::open(&b, 64, hasher(), 256).expect("open");
            shared.commit(&[txn(0, &[5]), txn(1, &[5])]).expect("commit");
        }
        let shared = SharedDeployment::open(&b, 64, hasher(), 256).expect("reopen");
        let snap = shared.snapshot();
        assert_eq!(snap.rows(), 2);
        assert_eq!(snap.count(&Itemset::from_values(&[5])).expect("count"), 2);
        let p = shared.writer_profile();
        assert_eq!(p.committed_rows, 2);
    }
}
