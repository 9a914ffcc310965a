//! Offline deployment maintenance: tombstone **compaction** and slice
//! **folding**, both crash-safe via a staged-files-plus-marker swap.
//!
//! # The swap protocol
//!
//! Both operations build a complete replacement for some subset of a
//! deployment's files under a hidden staging base (`.cpt-<name>` next to
//! the live files), sync everything, and only then write a checksummed
//! **swap marker** (`.swap-<name>`) listing the extensions to install.
//! The marker is the commit point:
//!
//! * no marker (or a torn one, caught by its checksum) → the swap never
//!   happened; staging debris is deleted and the old files stay live;
//! * a valid marker → the swap *has* happened; the renames are replayed
//!   (each one idempotent — already-moved files are skipped) and the
//!   marker is removed.
//!
//! [`finish_pending_swap`] performs that resolution and is a step of the
//! one open sequence (DESIGN.md §7, "The open sequence") — offline open,
//! served open and every writer heal alike — so a crash at *any* point
//! leaves a deployment that reopens to exactly the old or exactly the new
//! state: the same guarantee the page-level commit protocol gives single
//! flushes, lifted to whole-file rewrites.  Which files there are to swap,
//! and in what order, is the file table (`files.rs`).
//!
//! # Compaction
//!
//! [`compact_deployment`] rewrites the deployment with only its live
//! (non-tombstoned) rows, re-appending them through the normal write path
//! so every invariant (heap/index row alignment, replication log, counts
//! file) is rebuilt from first principles.  Rows are *renumbered*: the
//! dedup window is carried over with each receipt's row range remapped by
//! rank over the tombstone bitmap, so retried requests still answer
//! exactly-once; the replication log restarts as a bootstrap stream of
//! the surviving rows (followers of a compacted primary wipe and resync).
//!
//! # Folding
//!
//! [`fold_deployment`] halves the slice width `m` without touching the
//! heap: both hash families position items by `value % m`, so an item
//! hashed at `p` under width `m` lands at `p % (m/2)` under width `m/2` —
//! which is exactly bit-OR of slice `j` and slice `j + m/2`.  The folded
//! file is bit-for-bit identical to re-hashing every transaction at the
//! halved width, at the cost of a sequential page pass instead of a full
//! rebuild.  Row numbering, the heap, tombstones, and the replication log
//! are untouched, so followers are unaffected; only `{slices, commit}`
//! are swapped, the staged commit being the successor record (`seq + 1`)
//! vouching for the folded file's boundary digest.

use crate::backend::FileBackend;
use crate::commit::{self, Commit};
use crate::dedup::DedupReceipt;
use crate::del::DeadMask;
use crate::diskbbs::{deployment_paths, DiskDeployment};
use crate::files::{swap_order, TableFile, FILES};
use crate::pager::{chain_digest, page_digest, PageId, Pager, CHAIN_SEED};
use crate::sealed::{sealed, unseal};
use crate::slicefile::{self, clear_uncommitted_bits, CHUNK_ROWS};
use bbs_hash::ItemHasher;
use bbs_tdb::Transaction;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic prefix of the swap-marker file.
const MARKER_MAGIC: &[u8; 8] = b"BBSSWAP1";

/// Rows re-appended per staged batch (and per staging commit) during
/// compaction — the group-commit granularity of the rewrite.
const COMPACT_BATCH: usize = 4096;

/// Observation hook for crash-torture tests: called with a step label
/// after each durable point of the swap (`"build"`, `"marker"`,
/// `"rename-<ext>"`, `"unmark"`); returning an error abandons the
/// operation at that exact point, simulating a crash.
pub type SwapHook<'a> = &'a mut dyn FnMut(&'static str) -> io::Result<()>;

/// What a maintenance operation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintainReport {
    /// `"compact"` or `"fold"`.
    pub action: &'static str,
    /// Slice width of the deployment after the operation.
    pub width: usize,
    /// Total rows (live + tombstoned) before.
    pub rows_before: u64,
    /// Total rows after (compaction drops tombstones; fold keeps rows).
    pub rows_after: u64,
    /// Tombstoned rows reclaimed (zero for fold).
    pub reclaimed: u64,
    /// Commit sequence of the new state.
    pub seq: u64,
}

fn invalid(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// `dir/<prefix><name>` for a deployment at `dir/<name>`.
fn sibling(base: &Path, prefix: &str) -> PathBuf {
    let name = base.file_name().unwrap_or_default().to_string_lossy();
    base.with_file_name(format!("{prefix}{name}"))
}

/// The hidden base the staged replacement files are built under:
/// `dir/.cpt-<name>` for a deployment at `dir/<name>`.  A prefix on the
/// file *name* (not an extra extension) so that [`deployment_paths`] of
/// the staging base can never collide with a live file.
pub fn staging_base(base: &Path) -> PathBuf {
    sibling(base, ".cpt-")
}

/// The swap-marker path of a deployment: `dir/.swap-<name>`.
pub fn swap_marker_path(base: &Path) -> PathBuf {
    sibling(base, ".swap-")
}

fn encode_marker(exts: &[&str]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    buf.extend_from_slice(MARKER_MAGIC);
    buf.extend_from_slice(&(exts.len() as u32).to_le_bytes());
    for ext in exts {
        buf.push(ext.len() as u8);
        buf.extend_from_slice(ext.as_bytes());
    }
    sealed(buf)
}

fn decode_marker(bytes: &[u8]) -> Option<Vec<String>> {
    let body = unseal(bytes).filter(|body| body.len() >= 12 && &body[0..8] == MARKER_MAGIC)?;
    let n = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes")) as usize;
    let mut exts = Vec::with_capacity(n);
    let mut at = 12;
    for _ in 0..n {
        let len = *body.get(at)? as usize;
        at += 1;
        let ext = body.get(at..at + len)?;
        at += len;
        exts.push(String::from_utf8(ext.to_vec()).ok()?);
    }
    (at == body.len()).then_some(exts)
}

/// Renames the staged file with extension `ext` over the live one.  A
/// file already renamed is gone from staging and skipped, so replaying
/// after a crash mid-swap is idempotent.
fn install(base: &Path, ext: &str) -> io::Result<()> {
    let Some(file) = FILES.iter().find(|file| file.ext == ext) else {
        return Err(invalid(format!("swap marker names unknown file: {ext:?}")));
    };
    match std::fs::rename(file.at(&staging_base(base)), file.at(base)) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// The extensions the swap marker at `base` lists, when there is a valid
/// one: a swap that committed and has not finished.  A torn marker never
/// committed.
fn committed_swap(base: &Path) -> io::Result<Option<Vec<String>>> {
    match std::fs::read(swap_marker_path(base)) {
        Ok(bytes) => Ok(decode_marker(&bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// What a previous process left of a swap at `base`.
pub(crate) enum PendingSwap {
    /// No marker, no staged file.
    None,
    /// A valid marker: the swap of these extensions committed.
    Committed(Vec<String>),
    /// A torn marker, or staged files without a valid marker: the swap
    /// never committed and the live files are the old state.
    Debris,
}

/// Looks for a half-done swap at `base` without touching anything.
pub(crate) fn pending_swap(base: &Path) -> io::Result<PendingSwap> {
    if let Some(exts) = committed_swap(base)? {
        return Ok(PendingSwap::Committed(exts));
    }
    let staging = staging_base(base);
    let debris =
        swap_marker_path(base).exists() || FILES.iter().any(|file| file.at(&staging).exists());
    Ok(if debris {
        PendingSwap::Debris
    } else {
        PendingSwap::None
    })
}

/// Resolves any swap a previous process left behind at `base`: rolls a
/// committed swap (valid marker) forward by replaying its renames, or
/// cleans up the debris of an uncommitted one.  Idempotent; a step of the
/// open sequence.  Returns whether a committed swap was completed.
pub fn finish_pending_swap(base: &Path) -> io::Result<bool> {
    let committed = committed_swap(base)?;
    for ext in committed.iter().flatten() {
        install(base, ext)?;
    }
    match std::fs::remove_file(swap_marker_path(base)) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    crate::files::remove_files(&staging_base(base));
    Ok(committed.is_some())
}

/// Commits the staged `files`: marker (the commit point), renames,
/// cleanup — with `hook` observing each durable step.
fn commit_swap(
    base: &Path,
    files: impl Iterator<Item = &'static TableFile>,
    hook: SwapHook,
) -> io::Result<()> {
    use std::io::Write;
    hook("build")?;
    let files: Vec<&TableFile> = files.collect();
    let exts: Vec<&str> = files.iter().map(|file| file.ext).collect();
    let marker = swap_marker_path(base);
    let mut f = std::fs::File::create(&marker)?;
    f.write_all(&encode_marker(&exts))?;
    f.sync_all()?;
    hook("marker")?;
    for file in files {
        install(base, file.ext)?;
        hook(file.renamed)?;
    }
    std::fs::remove_file(marker)?;
    crate::files::remove_files(&staging_base(base));
    hook("unmark")?;
    Ok(())
}

/// Rank structure over the tombstone bitmap: `rank(row)` = dead rows
/// strictly below `row` — the amount compaction shifts `row` down by.
struct DeadRank {
    words: Vec<u64>,
    cum: Vec<u64>,
}

impl DeadRank {
    fn new(mask: &DeadMask) -> Self {
        let mut cum = Vec::with_capacity(mask.words.len() + 1);
        let mut total = 0u64;
        cum.push(0);
        for &w in &mask.words {
            total += u64::from(w.count_ones());
            cum.push(total);
        }
        DeadRank {
            words: mask.words.clone(),
            cum,
        }
    }

    fn rank(&self, row: u64) -> u64 {
        let wi = (row / 64) as usize;
        if wi >= self.words.len() {
            return *self.cum.last().expect("cum is never empty");
        }
        let below = self.words[wi] & ((1u64 << (row % 64)) - 1);
        self.cum[wi] + u64::from(below.count_ones())
    }
}

/// Remaps a dedup receipt from pre-compaction to post-compaction row
/// numbering.  Delete receipts (sentinel `first_row == u64::MAX`) carry
/// no row range and pass through unchanged.
fn remap_receipt(rank: &DeadRank, r: DedupReceipt) -> DedupReceipt {
    if r.first_row == u64::MAX {
        return r;
    }
    let first = r.first_row - rank.rank(r.first_row);
    let dead_inside = rank.rank(r.first_row + r.appended) - rank.rank(r.first_row);
    DedupReceipt {
        first_row: first,
        appended: r.appended - dead_inside,
    }
}

/// Rewrites the deployment at `base` with only its live rows (optionally
/// at a different slice width), then atomically swaps the rewrite in.
/// See the module docs for the crash-safety argument.
///
/// `width_hint` and `hasher` lay the source out when its slice file has
/// no header yet (an empty deployment); an on-disk header always wins,
/// and the rewrite re-hashes every row under the source's own family.
/// `target_width` defaults to the source width.
pub fn compact_deployment(
    base: &Path,
    width_hint: usize,
    hasher: Arc<dyn ItemHasher>,
    target_width: Option<usize>,
    cache_pages: usize,
) -> io::Result<MaintainReport> {
    compact_deployment_hooked(
        base,
        width_hint,
        hasher,
        target_width,
        cache_pages,
        &mut |_| Ok(()),
    )
}

/// [`compact_deployment`] with a [`SwapHook`] observing every durable
/// step — the crash-torture entry point.
pub fn compact_deployment_hooked(
    base: &Path,
    width_hint: usize,
    hasher: Arc<dyn ItemHasher>,
    target_width: Option<usize>,
    cache_pages: usize,
    hook: SwapHook,
) -> io::Result<MaintainReport> {
    if target_width == Some(0) {
        return Err(invalid("compact: target width must be positive"));
    }
    let staging = staging_base(base);
    let mut src = DiskDeployment::open_at(base, width_hint, hasher, cache_pages, |_, path| {
        FileBackend::open(path)
    })?;
    let new_width = target_width.unwrap_or(src.index.width());
    let rows_before = src.db.len();
    let reclaimed = src.deleted_rows();
    let mask = src.dead_mask();
    let rank = DeadRank::new(&mask);
    let receipts: Vec<(u64, DedupReceipt)> = src
        .dedup_entries()
        .into_iter()
        .map(|(req_id, r)| (req_id, remap_receipt(&rank, r)))
        .collect();

    // Replay every live row through the staged deployment's normal write
    // path, batch by batch: the heap, index, counts, and replication log
    // are all rebuilt from first principles, and the staged log doubles
    // as the bootstrap stream a wiped follower resyncs from.
    let family = Arc::clone(src.index.hasher());
    let mut dst = DiskDeployment::open(&staging, new_width, family, cache_pages)?;
    let mut batch: Vec<Transaction> = Vec::with_capacity(COMPACT_BATCH);
    let mut deferred: Option<io::Error> = None;
    {
        let dst = &mut dst;
        let batch = &mut batch;
        let deferred = &mut deferred;
        let mask = &mask;
        src.db.for_each(|row, txn| {
            if deferred.is_some() || mask.is_dead(row) {
                return;
            }
            batch.push(txn.clone());
            if batch.len() >= COMPACT_BATCH {
                if let Err(e) = dst.append_batch(batch) {
                    *deferred = Some(e);
                }
                batch.clear();
            }
        })?;
    }
    if let Some(e) = deferred {
        return Err(e);
    }
    if !batch.is_empty() {
        dst.append_batch(&batch)?;
    }
    // One final flush carries the remapped dedup window, so a retried
    // request from before the compaction still answers exactly-once.
    dst.flush_with_receipts(&receipts)?;
    let rows_after = dst.db.len();
    let seq = dst.committed_seq();
    drop(src);
    drop(dst);

    commit_swap(base, swap_order(), hook)?;
    Ok(MaintainReport {
        action: "compact",
        width: new_width,
        rows_before,
        rows_after,
        reclaimed,
        seq,
    })
}

/// Halves the deployment's slice width by OR-ing each slice `j` with
/// slice `j + m/2` — bit-for-bit what re-hashing every row at `m/2`
/// would build (both hash families position by `value % m`) — and swaps
/// in the folded file plus its successor commit.  Rows, the heap, the
/// tombstone log, and the replication log are untouched, and the folded
/// header records the hash family the deployment's header records,
/// whatever `hasher` is.
pub fn fold_deployment(
    base: &Path,
    hasher: Arc<dyn ItemHasher>,
    cache_pages: usize,
) -> io::Result<MaintainReport> {
    fold_deployment_hooked(base, hasher, cache_pages, &mut |_| Ok(()))
}

/// [`fold_deployment`] with a [`SwapHook`] observing every durable step.
pub fn fold_deployment_hooked(
    base: &Path,
    hasher: Arc<dyn ItemHasher>,
    cache_pages: usize,
    hook: SwapHook,
) -> io::Result<MaintainReport> {
    finish_pending_swap(base)?;
    let paths = deployment_paths(base);
    let Some(width) = slicefile::header_width(&paths.slices)? else {
        return Err(invalid("fold: deployment has no slice file to fold"));
    };
    if width < 2 || width % 2 != 0 {
        return Err(invalid(format!("fold requires an even width, got {width}")));
    }
    let half = width / 2;

    // A clean reopen-and-flush first: recovery repairs any boundary-page
    // debris *on disk*, so the page pass below reads exactly the committed
    // bits, and the flush stamps the commit record the staged successor
    // record (seq + 1) chains from.
    let (parent, family) = {
        let mut dep = DiskDeployment::open_adopting(base, width, hasher, cache_pages)?;
        dep.flush()?;
        let family = dep.index.hasher().id();
        (dep.last_commit().expect("flush wrote a commit"), family)
    };
    let rows = parent.rows;
    let staging = staging_base(base);
    let spaths = deployment_paths(&staging);

    let mut src = Pager::new(FileBackend::open(&paths.slices)?)?;
    let mut dst = Pager::new(FileBackend::open(&spaths.slices)?)?;
    dst.write_page(PageId(0), &slicefile::encoded_header(half, rows, &family))?;
    let chunks = (rows as usize).div_ceil(CHUNK_ROWS) as u64;
    let within = rows % CHUNK_ROWS as u64;
    let boundary_chunk = (within != 0).then(|| rows / CHUNK_ROWS as u64);
    // Boundary digest of the folded file, chained in slice order exactly
    // as recovery recomputes it; zero when the row count is chunk-aligned.
    let mut slices_digest = if boundary_chunk.is_some() { CHAIN_SEED } else { 0 };
    for c in 0..chunks {
        for j in 0..half {
            let mut lo = src.read_page(PageId(1 + c * width as u64 + j as u64))?;
            let hi = src.read_page(PageId(1 + c * width as u64 + (j + half) as u64))?;
            for (l, h) in lo.iter_mut().zip(hi.iter()) {
                *l |= *h;
            }
            if boundary_chunk == Some(c) {
                clear_uncommitted_bits(&mut lo, within);
                slices_digest = chain_digest(slices_digest, page_digest(&lo));
            }
            dst.write_page(PageId(1 + c * half as u64 + j as u64), &lo)?;
        }
    }
    dst.sync()?;
    drop(src);
    drop(dst);

    let mut commit_backend = FileBackend::open(&spaths.commit)?;
    commit::write_explicit(
        &mut commit_backend,
        Commit {
            seq: parent.seq + 1,
            rows,
            heap_tail: parent.heap_tail,
            dat_digest: parent.dat_digest,
            idx_digest: parent.idx_digest,
            slices_digest,
        },
    )?;
    drop(commit_backend);

    // A fold swaps the folded slice file and the successor commit record
    // that vouches for it.
    let folded = swap_order().filter(|file| matches!(file.ext, "slices" | "commit"));
    commit_swap(base, folded, hook)?;
    Ok(MaintainReport {
        action: "fold",
        width: half,
        rows_before: rows,
        rows_after: rows,
        reclaimed: 0,
        seq: parent.seq + 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_roundtrip_and_torn_rejection() {
        let exts = &["slices", "commit"];
        let bytes = encode_marker(exts);
        assert_eq!(
            decode_marker(&bytes).as_deref(),
            Some(&["slices".to_string(), "commit".to_string()][..])
        );
        // Any truncation or flip must invalidate the marker.
        for cut in 0..bytes.len() {
            assert_eq!(decode_marker(&bytes[..cut]), None, "cut at {cut}");
        }
        for i in 0..bytes.len() {
            let mut torn = bytes.clone();
            torn[i] ^= 0x40;
            assert_eq!(decode_marker(&torn), None, "flip at {i}");
        }
    }

    #[test]
    fn staging_paths_never_collide_with_live() {
        let base = Path::new("/tmp/store/bbs");
        for file in swap_order() {
            let (l, s) = (file.at(base), file.at(&staging_base(base)));
            assert_ne!(l, s);
            assert_eq!(s.parent(), l.parent());
        }
        assert_ne!(swap_marker_path(base), staging_base(base));
    }

    #[test]
    fn dead_rank_counts_strictly_below() {
        let mask = DeadMask {
            words: vec![0b1010, 0, 1],
            deleted: 3,
        };
        let rank = DeadRank::new(&mask);
        assert_eq!(rank.rank(0), 0);
        assert_eq!(rank.rank(1), 0);
        assert_eq!(rank.rank(2), 1);
        assert_eq!(rank.rank(4), 2);
        assert_eq!(rank.rank(128), 2);
        assert_eq!(rank.rank(129), 3);
        assert_eq!(rank.rank(100_000), 3);
    }

    #[test]
    fn receipt_remap_shifts_by_rank_and_keeps_sentinels() {
        let mask = DeadMask {
            words: vec![0b0110], // rows 1 and 2 dead
            deleted: 2,
        };
        let rank = DeadRank::new(&mask);
        // Batch [0, 4): rows 1,2 dead inside → shrinks to [0, 2).
        let r = remap_receipt(
            &rank,
            DedupReceipt {
                first_row: 0,
                appended: 4,
            },
        );
        assert_eq!((r.first_row, r.appended), (0, 2));
        // Batch [3, 5): fully live, shifted down by the 2 dead below.
        let r = remap_receipt(
            &rank,
            DedupReceipt {
                first_row: 3,
                appended: 2,
            },
        );
        assert_eq!((r.first_row, r.appended), (1, 2));
        // Delete sentinel passes through.
        let s = DedupReceipt {
            first_row: u64::MAX,
            appended: 7,
        };
        assert_eq!(remap_receipt(&rank, s), s);
    }
}
