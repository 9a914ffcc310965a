//! The on-disk BBS slice file.
//!
//! The paper stores the signature file "as slices" so that `CountItemSet`
//! reads only the columns a query selects.  A literal slice-major layout
//! would make insertion O(m) page writes (every slice grows by one bit per
//! transaction), so this file uses the standard compromise, a
//! **chunk-major** layout: rows are grouped into chunks of `32768`
//! (= 4096·8) rows, and within a chunk each slice owns one whole page:
//!
//! ```text
//! page 0                  header (magic, width, rows)
//! page 1 + c·m + j        bits of slice j for rows [c·32768, (c+1)·32768)
//! ```
//!
//! Reading slice `j` touches `ceil(rows / 32768)` pages at stride `m`;
//! appending a transaction performs one read-modify-write per set bit, all
//! within the current chunk's pages (which stay hot in the cache).
//!
//! # Counting path
//!
//! A request counts through one executor,
//! [`SliceFile::count_selected_many_masked`]; a single `COUNT` is a batch
//! of one.  It walks the batch's selected slices chunk-by-chunk in row
//! order: each chunk's cold pages are prefetched as a batch, the slices
//! every query selects are ANDed once into a shared prefix, and each
//! query's own slices are ANDed **in place** on a copy of it (64-bit words
//! decoded straight out of the cache-resident page bytes into a reused
//! one-page accumulator — no per-slice `BitVec` is ever materialised) and
//! popcounted with the tiered kernels of `bbs_bitslice::ops`.  Slices that
//! keep being selected are promoted into a pinned **hot-slice cache** of
//! decoded `u64` words (invalidated on append), and a per-query `tau`
//! budget retires a query early once its running upper bound drops below
//! the threshold.  Mining does not come here: it walks the depth-first
//! cursor ([`crate::DiskCounter`]) over `SliceFile::and_page`.
//!
//! All read-side state (page cache, hot slices, scratch buffers) lives
//! behind a `Mutex`, so counting needs only `&self` — shared references
//! can count concurrently, and independent readers over the same file get
//! genuine parallelism (see `DiskBbs::counter`).

use crate::backend::{FileBackend, StorageBackend};
use crate::cache::{CacheStats, PageCache};
use crate::del::DeadMask;
use crate::pager::{
    chain_digest, page_digest, zeroed_page, ChecksumMismatch, PageId, Pager, PagerStats,
    CHAIN_SEED, PAGE_SIZE,
};
use bbs_bitslice::{ops, BitVec};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

const MAGIC: u64 = 0x4242_5353_4c49_4345; // "BBSSLICE"

/// Reads the width field of an existing slice file's header page without
/// opening the file as a deployment (`Ok(None)` = absent, empty, or not a
/// slice file).  This is how reopen paths adopt the on-disk width after a
/// fold halved it, instead of failing the width check against a stale
/// configured value.
pub fn header_width(path: &Path) -> io::Result<Option<usize>> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut head = [0u8; 16];
    let off = crate::pager::phys_of(0) * PAGE_SIZE as u64;
    if f.seek(SeekFrom::Start(off)).is_err() {
        return Ok(None);
    }
    match f.read_exact(&mut head) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let magic = u64::from_le_bytes(head[0..8].try_into().expect("8 bytes"));
    let width = u64::from_le_bytes(head[8..16].try_into().expect("8 bytes"));
    if magic != MAGIC || width == 0 || width >= u32::MAX as u64 {
        return Ok(None);
    }
    Ok(Some(width as usize))
}
/// Rows per chunk: one page of bits.
pub const CHUNK_ROWS: usize = PAGE_SIZE * 8;
/// `u64` words per page.
pub const PAGE_WORDS: usize = PAGE_SIZE / 8;

/// How many times a slice must be selected before it is pinned.
const PROMOTE_AFTER: u32 = 3;
/// Maximum number of pinned (fully decoded) hot slices.
const HOT_SLICE_LIMIT: usize = 16;

/// Counters of the pinned hot-slice cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotStats {
    /// Slices currently pinned (decoded to words).
    pub pinned: usize,
    /// Selected-slice lookups served from pinned words.
    pub hits: u64,
    /// Slices decoded for pinning.
    pub decodes: u64,
    /// Times the pinned set was invalidated by an append.
    pub invalidations: u64,
}

/// The pinned hot-slice cache: decoded `u64` words for the most-selected
/// slices.  Appends invalidate the pinned words (a pinned slice would
/// otherwise go stale); selection counts survive, so the working set is
/// re-promoted quickly once counting resumes.
///
/// # Invalidation contract
///
/// * Every [`SliceFile::append_row`] call invalidates the pinned set
///   **before** any bit of the new row is written, and it does so **at
///   most once**: `invalidations` increments by exactly 1 when anything
///   was pinned and by 0 when the set was already empty (consecutive
///   appends with no interleaved counting pay a single invalidation).
/// * Counting never observes a pinned slice that predates an append:
///   within one `SliceFile`, appends take `&mut self`, so no count can
///   interleave with the invalidate-then-write sequence; across
///   independent readers over the same path, pinned words are decoded at
///   the reader's own row count and the snapshot clamp (see
///   [`mask_from`]) discards any newer bits.
struct HotSlices {
    capacity: usize,
    select_counts: HashMap<usize, u32>,
    pinned: HashMap<usize, Vec<u64>>,
    hits: u64,
    decodes: u64,
    invalidations: u64,
}

impl HotSlices {
    fn new(capacity: usize) -> Self {
        HotSlices {
            capacity,
            select_counts: HashMap::new(),
            pinned: HashMap::new(),
            hits: 0,
            decodes: 0,
            invalidations: 0,
        }
    }

    fn invalidate(&mut self) {
        if !self.pinned.is_empty() {
            self.pinned.clear();
            self.invalidations += 1;
        }
    }

    fn stats(&self) -> HotStats {
        HotStats {
            pinned: self.pinned.len(),
            hits: self.hits,
            decodes: self.decodes,
            invalidations: self.invalidations,
        }
    }
}

/// All mutable read-side state: the page cache plus the hot-slice cache and
/// the reusable counting scratch.  Guarded by one mutex in [`SliceFile`] so
/// that counting works on `&self`.
struct ReadState<B: StorageBackend> {
    cache: PageCache<B>,
    hot: HotSlices,
    /// One-page `u64` per-query accumulator, reused across chunks and
    /// calls: accumulation across chunks lives in the running totals,
    /// never in an accumulator, so one chunk-sized buffer serves every
    /// query in the batch — re-seeded per query per chunk — instead of a
    /// batch-sized pool of them thrashing the cache.
    acc: Vec<u64>,
    /// Scratch list of the current chunk's cold page ids.
    cold_ids: Vec<PageId>,
    /// One-page accumulator of the batch's shared prefix, reused across
    /// chunks and calls.
    prefix_acc: Vec<u64>,
    /// Dense pool of decoded shared-slice segments, indexed by the slot
    /// number in [`ReadState::batch_slots`]; buffers are reused across
    /// chunks and calls.
    batch_segs: Vec<Vec<u64>>,
    /// Width-indexed slice → segment-slot map (`NO_SLOT` = not shared).
    /// Plain-array lookups here replace per-query hash-map probes on the
    /// batched hot path.  Only entries named by [`ReadState::batch_union`]
    /// are ever non-default; the rest stay `NO_SLOT` by invariant.
    batch_slots: Vec<u32>,
    /// Width-indexed active-query selection multiplicities; same validity
    /// rule as [`ReadState::batch_slots`].
    batch_mult: Vec<u32>,
    /// The distinct slices the current batch's active queries select,
    /// sorted — names exactly the non-default entries of
    /// `batch_slots` / `batch_mult` / `batch_pfx`, which is what lets a
    /// rebuild reset them in `O(|union|)` instead of `O(width)`.
    batch_union: Vec<usize>,
    /// Width-indexed membership in the *effective* prefix: every slice
    /// selected by all active queries (hoisted automatically, so
    /// overlapping batches pay their common slices once per chunk).
    batch_pfx: Vec<bool>,
}

/// Sentinel in [`ReadState::batch_slots`]: this slice has no decoded
/// shared segment (it is hot, unshared, or not selected at all).
const NO_SLOT: u32 = u32::MAX;

/// Zeroes every bit at position `>= rows` in a word buffer (the snapshot
/// clamp): a reader whose header said `rows = N` must never count bits a
/// newer append OR'd into the shared boundary pages after it opened.
pub(crate) fn mask_from(words: &mut [u64], rows: usize) {
    let whole = rows / 64;
    if whole < words.len() {
        let rem = rows % 64;
        if rem != 0 {
            words[whole] &= (1u64 << rem) - 1;
            words[whole + 1..].fill(0);
        } else {
            words[whole..].fill(0);
        }
    }
}

impl<B: StorageBackend> ReadState<B> {
    /// Decodes a whole slice into little-endian `u64` words (`words_for(rows)`
    /// of them) through the page cache, with bits `>= rows` masked off.
    fn decode_slice(&mut self, width: usize, rows: u64, slice: usize) -> io::Result<Vec<u64>> {
        let rows = rows as usize;
        let chunks = rows.div_ceil(CHUNK_ROWS);
        let mut words: Vec<u64> = Vec::with_capacity(chunks * PAGE_WORDS);
        for c in 0..chunks {
            let page = page_of(width, c as u64, slice);
            self.cache.with_page(page, |buf| {
                for w in buf.chunks_exact(8) {
                    words.push(u64::from_le_bytes(w.try_into().expect("8 bytes")));
                }
            })?;
        }
        words.truncate(bbs_bitslice::words_for(rows));
        mask_from(&mut words, rows);
        Ok(words)
    }

    /// Bumps selection counts and pins newly hot slices (decoding them).
    fn promote(&mut self, width: usize, rows: u64, slices: &[usize]) -> io::Result<()> {
        // Once the pinned set is full no count bump can change it, so the
        // bookkeeping is pure overhead on every subsequent query — skip it.
        // After an append invalidates the pinned set, counting resumes from
        // the preserved counts and re-pins the proven hot slices at once.
        if self.hot.pinned.len() >= self.hot.capacity {
            return Ok(());
        }
        for &s in slices {
            let n = self.hot.select_counts.entry(s).or_insert(0);
            *n += 1;
            if *n >= PROMOTE_AFTER
                && self.hot.pinned.len() < self.hot.capacity
                && !self.hot.pinned.contains_key(&s)
            {
                let words = self.decode_slice(width, rows, s)?;
                self.hot.pinned.insert(s, words);
                self.hot.decodes += 1;
            }
        }
        Ok(())
    }

    /// Shared-scan batched counting (see
    /// [`SliceFile::count_selected_many_masked`]).
    ///
    /// The per-chunk loop decodes each distinct selected slice **once** —
    /// from the pinned hot words or from its cache-resident page — and then
    /// drives every still-active query's accumulator from those shared
    /// segments: the page fetch + decode cost is paid once per chunk for
    /// the whole batch, not once per query, which is what amortises
    /// concurrent hot-slice queries.
    ///
    /// Slices every active query selects are hoisted: their AND is
    /// materialised once per chunk and copied into each query's
    /// accumulator, so what a served batch has in common is paid once per
    /// batch instead of once per query.
    fn count_selected_many(
        &mut self,
        width: usize,
        rows: u64,
        queries: &[(Vec<usize>, Option<u64>)],
        dead: Option<(&[u64], u64)>,
    ) -> io::Result<Vec<u64>> {
        let chunks = (rows as usize).div_ceil(CHUNK_ROWS) as u64;
        let live = rows - dead.map_or(0, |(_, deleted)| deleted);
        let mut totals = vec![0u64; queries.len()];
        let mut done = vec![false; queries.len()];
        let mut active = 0usize;
        for (i, (slices, _)) in queries.iter().enumerate() {
            if slices.is_empty() {
                totals[i] = live;
                done[i] = true;
            } else if chunks == 0 {
                done[i] = true;
            } else {
                active += 1;
                self.promote(width, rows, slices)?;
            }
        }
        if active == 0 {
            return Ok(totals);
        }
        let ReadState {
            cache,
            hot,
            acc,
            cold_ids,
            prefix_acc,
            batch_segs,
            batch_slots,
            batch_mult,
            batch_union,
            batch_pfx,
        } = self;
        // Reusable scratch: accumulation across chunks lives in `totals`,
        // never in an accumulator (every chunk re-seeds), so one
        // chunk-sized accumulator serves all the batch's queries in turn —
        // it stays L1-resident instead of a batch-sized pool of buffers
        // streaming through the cache once per chunk.
        acc.resize(PAGE_WORDS, 0);
        prefix_acc.resize(PAGE_WORDS, 0);
        let segs = batch_segs;
        let slots = batch_slots;
        let mult = batch_mult;
        let union = batch_union;
        let pfx = batch_pfx;
        slots.resize(width, NO_SLOT);
        mult.resize(width, 0);
        pfx.resize(width, false);
        // Cold (non-pinned) slices of the union, the shared subset that
        // gets a decoded segment per chunk, and the effective prefix.
        // All rebuilt with the union.
        let mut cold_slices: Vec<usize> = Vec::new();
        let mut shared_slices: Vec<usize> = Vec::new();
        let mut eff_prefix: Vec<usize> = Vec::new();
        let mut stale = true;
        for c in 0..chunks {
            if stale {
                // Reset exactly the entries the previous union named (from
                // this call or the last one) — the maps stay all-default
                // elsewhere, so a rebuild costs O(|union|), not O(width).
                for &s in union.iter() {
                    slots[s] = NO_SLOT;
                    mult[s] = 0;
                    pfx[s] = false;
                }
                union.clear();
                for (i, (slices, _)) in queries.iter().enumerate() {
                    if !done[i] {
                        union.extend_from_slice(slices);
                        for &s in slices {
                            mult[s] += 1;
                        }
                    }
                }
                union.sort_unstable();
                union.dedup();
                // The effective prefix: every slice that all active
                // queries select (`mult == active` — each query's slice
                // list is deduped, so it contributes at most 1).  Hoisted
                // slices are ANDed once per chunk into the prefix
                // accumulator instead of once per query, which is where an
                // overlapping batch saves arithmetic, not just I/O.  A
                // batch of one hoists all its slices.
                eff_prefix.clear();
                for &s in union.iter() {
                    if mult[s] as usize == active {
                        pfx[s] = true;
                        eff_prefix.push(s);
                    }
                }
                // A non-prefix slice selected by ≥ 2 active queries (and
                // not already pinned hot) earns a decoded-segment slot.  A
                // slice unique to one query never does — it is ANDed
                // straight from its cache-resident page bytes, so a batch
                // of disjoint queries costs no more than counting them one
                // at a time.
                cold_slices.clear();
                shared_slices.clear();
                let mut next = 0u32;
                for &s in union.iter() {
                    if hot.pinned.contains_key(&s) {
                        continue;
                    }
                    cold_slices.push(s);
                    if mult[s] >= 2 && !pfx[s] {
                        slots[s] = next;
                        shared_slices.push(s);
                        if segs.len() <= next as usize {
                            segs.push(Vec::new());
                        }
                        next += 1;
                    }
                }
                stale = false;
            }
            cold_ids.clear();
            for &s in cold_slices.iter() {
                cold_ids.push(page_of(width, c, s));
            }
            // Batched fetch: the chunk's cold pages become resident in one
            // row-order pass before any is ANDed (all hits below when the
            // cache can hold the whole batch).
            if cold_ids.len() < cache.capacity() {
                cache.prefetch(cold_ids)?;
            }
            // Decode each *shared* cold slice once for the whole batch.
            for &s in shared_slices.iter() {
                let seg = &mut segs[slots[s] as usize];
                seg.clear();
                cache.with_page(page_of(width, c, s), |buf| {
                    for w in buf.chunks_exact(8) {
                        seg.push(u64::from_le_bytes(w.try_into().expect("8 bytes")));
                    }
                })?;
            }
            let lo = (c as usize) * PAGE_WORDS;
            let within = rows as usize - (c as usize) * CHUNK_ROWS;
            // ANDs `$s`'s words for this chunk into `$acc` (the shared
            // decoded segment, hot words, or zero-copy off the page),
            // seeding on first use.  The slot test is a plain array read,
            // so the per-query inner loop probes a hash map at most once
            // per slice (the pinned-set lookup).
            macro_rules! apply {
                ($acc:expr, $seeded:expr, $s:expr) => {{
                    let acc: &mut [u64] = $acc;
                    let slot = slots[$s];
                    if slot != NO_SLOT {
                        // Decoded this chunk: the pass above covers exactly
                        // the slotted slices, so a segment left over from an
                        // earlier chunk (a sharer τ-exited) or an earlier
                        // call is never mistaken for current data.
                        let seg: &[u64] = &segs[slot as usize];
                        if $seeded {
                            ops::and_assign(acc, seg);
                        } else {
                            acc[..seg.len()].copy_from_slice(seg);
                            acc[seg.len()..].fill(0);
                        }
                    } else if let Some(words) = hot.pinned.get(&$s) {
                        hot.hits += 1;
                        let hi = words.len().min(lo + PAGE_WORDS);
                        let seg: &[u64] = if lo < hi { &words[lo..hi] } else { &[] };
                        if $seeded {
                            ops::and_assign(acc, seg);
                        } else {
                            acc[..seg.len()].copy_from_slice(seg);
                            acc[seg.len()..].fill(0);
                        }
                    } else if $seeded {
                        cache.with_page(page_of(width, c, $s), |buf| {
                            for (a, b) in acc.iter_mut().zip(buf.chunks_exact(8)) {
                                *a &= u64::from_le_bytes(b.try_into().expect("8 bytes"));
                            }
                        })?;
                    } else {
                        cache.with_page(page_of(width, c, $s), |buf| {
                            for (a, b) in acc.iter_mut().zip(buf.chunks_exact(8)) {
                                *a = u64::from_le_bytes(b.try_into().expect("8 bytes"));
                            }
                        })?;
                    }
                    $seeded = true;
                }};
            }
            // The shared projection: AND the effective prefix (the hoisted
            // common slices) once per chunk.  The tombstone mask rides it
            // as an implicit member — seeded with the chunk's *live* rows
            // (`!dead`, live beyond the bitmap's tail), so the whole batch
            // pays one masked copy per chunk.  AND+popcount is
            // position-invariant, which makes the masked count equal, bit
            // for bit, to counting a compacted rewrite of only the
            // surviving rows.
            let mut prefix_seeded = false;
            if let Some((dead_words, _)) = dead {
                for (i, a) in prefix_acc.iter_mut().enumerate() {
                    *a = !dead_words.get(lo + i).copied().unwrap_or(0);
                }
                prefix_seeded = true;
            }
            for &s in eff_prefix.iter() {
                apply!(prefix_acc, prefix_seeded, s);
            }
            for (i, (slices, tau)) in queries.iter().enumerate() {
                if done[i] {
                    continue;
                }
                let mut seeded = false;
                if prefix_seeded {
                    acc.copy_from_slice(prefix_acc);
                    seeded = true;
                }
                for &s in slices {
                    // Hoisted into the effective prefix: already ANDed in.
                    if pfx[s] {
                        continue;
                    }
                    apply!(acc, seeded, s);
                }
                // Snapshot clamp: in the boundary chunk, bits at row
                // positions `>= rows` are discarded before counting.  In
                // the single-owner case those bits are zero anyway (pages
                // start zeroed); for a reader that opened at `rows = N`
                // while a writer keeps appending to the same file, this is
                // what guarantees the count reflects exactly the first N
                // rows — never a half-appended newer batch.
                if c == chunks - 1 && within < CHUNK_ROWS {
                    mask_from(acc, within);
                }
                totals[i] += ops::count_ones(acc) as u64;
                if let Some(tau) = tau {
                    // Every remaining chunk can contribute at most
                    // CHUNK_ROWS bits; once even that cannot reach tau, the
                    // exact count cannot either.  The bound never
                    // undercounts.
                    let bound = totals[i] + (chunks - 1 - c) * CHUNK_ROWS as u64;
                    if bound < *tau {
                        totals[i] = bound;
                        done[i] = true;
                        active -= 1;
                        stale = true;
                    }
                }
            }
            if active == 0 {
                break;
            }
        }
        Ok(totals)
    }
}

fn page_of(width: usize, chunk: u64, slice: usize) -> PageId {
    PageId(1 + chunk * width as u64 + slice as u64)
}

/// A durable, chunk-major bit-slice file.
///
/// Writes (`append_row`, `flush`) take `&mut self`; the counting path takes
/// `&self` and synchronises internally, so a shared reference suffices to
/// run `CountItemSet` queries (including from multiple threads, serialised
/// on this file's cache — use independent `SliceFile`s over the same path
/// for parallel reads).
pub struct SliceFile<B: StorageBackend = FileBackend> {
    read: Mutex<ReadState<B>>,
    width: usize,
    rows: u64,
}

impl SliceFile<FileBackend> {
    /// Opens (creating if absent) a slice file of signature width `width`.
    ///
    /// An existing file must have been created with the same width.
    pub fn open(path: &Path, width: usize, cache_pages: usize) -> io::Result<Self> {
        SliceFile::open_with(FileBackend::open(path)?, width, cache_pages, None)
    }
}

/// Clears the bits of rows `within..` from a boundary-chunk slice page,
/// reconstructing its committed content (committed bits are never lost to
/// a torn write because appends only OR bits in).
pub(crate) fn clear_uncommitted_bits(page: &mut [u8; PAGE_SIZE], within: u64) {
    let whole = (within / 8) as usize;
    let rem = (within % 8) as u32;
    if rem == 0 {
        page[whole..].fill(0);
    } else {
        page[whole] &= (1u8 << rem) - 1;
        page[whole + 1..].fill(0);
    }
}

/// Rolls a slice file back to exactly `rows` committed rows, whose
/// boundary-chunk pages' digests must chain to `slices_digest` (from the
/// commit record).
///
/// Pages of whole uncommitted chunks are dropped.  In the boundary chunk,
/// every slice page's committed content is reconstructed by clearing the
/// bits of uncommitted rows (committed bits survive any torn write because
/// appends only OR bits in; never-materialised pages reconstruct to
/// zeros).  The reconstructions are chain-digested in slice order and
/// checked against the commit record before anything is written back: a
/// mismatch means committed bits were lost or flipped — real corruption,
/// surfaced rather than re-checksummed into validity.
fn recover<B: StorageBackend>(
    pager: &mut Pager<B>,
    width: usize,
    rows: u64,
    slices_digest: u64,
) -> io::Result<()> {
    let chunks = (rows as usize).div_ceil(CHUNK_ROWS) as u64;
    let target = 1 + chunks * width as u64;
    let keep = pager.page_count().min(target);
    pager.truncate_logical(keep)?;

    let within = rows % CHUNK_ROWS as u64;
    if within != 0 {
        let chunk = rows / CHUNK_ROWS as u64;
        let mut digest = CHAIN_SEED;
        let mut repaired = Vec::with_capacity(width);
        for slice in 0..width as u64 {
            let id = PageId(1 + chunk * width as u64 + slice);
            // Past-the-end pages read as zeros, which is also their
            // reconstruction.
            let mut page = pager.read_page_raw(id)?;
            clear_uncommitted_bits(&mut page, within);
            digest = chain_digest(digest, page_digest(&page));
            repaired.push((id, page));
        }
        if digest != slices_digest {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                ChecksumMismatch {
                    page: 1 + chunk * width as u64,
                    expected: slices_digest,
                    actual: digest,
                },
            ));
        }
        for (id, page) in repaired {
            if id.0 < keep {
                pager.write_page(id, &page)?;
            }
        }
    }

    // Rebuild the header from the commit record rather than trusting disk.
    pager.write_page(PageId(0), &encoded_header(width, rows))?;
    // The repair is complete on the file, digests included: independent
    // readers of a just-recovered deployment (in-place mining opens one
    // per worker) verify its pages without a flush in between.
    pager.write_checksums()
}

/// Encodes a slice-file header page (magic, width, rows) — shared by
/// recovery and the offline fold, which stages a new file directly.
pub(crate) fn encoded_header(width: usize, rows: u64) -> crate::pager::PageBuf {
    let mut header = zeroed_page();
    header[0..8].copy_from_slice(&MAGIC.to_le_bytes());
    header[8..16].copy_from_slice(&(width as u64).to_le_bytes());
    header[16..24].copy_from_slice(&rows.to_le_bytes());
    header
}

impl<B: StorageBackend> SliceFile<B> {
    /// Opens a slice file over an explicit backend.
    ///
    /// With `recover_to = Some((rows, slices_digest))`, the file is first
    /// rolled back to that committed row count; the reconstructed
    /// boundary-chunk pages must match the commit record's digest.
    pub fn open_with(
        backend: B,
        width: usize,
        cache_pages: usize,
        recover_to: Option<(u64, u64)>,
    ) -> io::Result<Self> {
        assert!(width > 0, "width must be positive");
        let mut pager = Pager::new(backend)?;
        // A width mismatch must be reported as such, not as the boundary
        // digest mismatch recovery would trip over — but only when the
        // header page actually verifies (a torn header is rebuilt by
        // recovery and cannot be trusted to hold anything).
        if pager.page_count() > 0 {
            if let Ok(header) = pager.read_page(PageId(0)) {
                let stored = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
                let magic = u64::from_le_bytes(header[0..8].try_into().expect("8 bytes"));
                if magic == MAGIC && stored != width as u64 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("slice file width {stored} != requested {width}"),
                    ));
                }
            }
        }
        if let Some((rows, slices_digest)) = recover_to {
            recover(&mut pager, width, rows, slices_digest)?;
        }
        let mut cache = PageCache::new(pager, cache_pages);
        let (stored_width, rows) = if cache.page_count() == 0 {
            crate::bytes::write_u64(&mut cache, 0, MAGIC)?;
            crate::bytes::write_u64(&mut cache, 8, width as u64)?;
            crate::bytes::write_u64(&mut cache, 16, 0)?;
            (width as u64, 0)
        } else {
            let magic = crate::bytes::read_u64(&mut cache, 0)?;
            if magic != MAGIC {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "not a BBS slice file",
                ));
            }
            (
                crate::bytes::read_u64(&mut cache, 8)?,
                crate::bytes::read_u64(&mut cache, 16)?,
            )
        };
        if stored_width != width as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("slice file width {stored_width} != requested {width}"),
            ));
        }
        Ok(SliceFile {
            read: Mutex::new(ReadState {
                cache,
                hot: HotSlices::new(HOT_SLICE_LIMIT),
                acc: Vec::new(),
                cold_ids: Vec::new(),
                prefix_acc: Vec::new(),
                batch_segs: Vec::new(),
                batch_slots: Vec::new(),
                batch_mult: Vec::new(),
                batch_union: Vec::new(),
                batch_pfx: Vec::new(),
            }),
            width,
            rows,
        })
    }

    fn state(&self) -> MutexGuard<'_, ReadState<B>> {
        self.read.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn state_mut(&mut self) -> &mut ReadState<B> {
        self.read.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Signature width `m`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of appended rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.state().cache.stats()
    }

    /// Physical I/O counters of the underlying pager.
    pub fn pager_stats(&self) -> PagerStats {
        self.state().cache.pager_stats()
    }

    /// Hot-slice cache counters.
    pub fn hot_stats(&self) -> HotStats {
        self.state().hot.stats()
    }

    /// Appends one row whose set bit positions are `positions` (each `<
    /// width`).  Returns the row index.
    ///
    /// The pinned hot-slice cache is invalidated exactly once per append
    /// (and only when something was pinned), *before* the first bit is
    /// written — see the invalidation contract on `HotSlices`.  The row
    /// becomes visible to this handle immediately and to independent
    /// readers only after [`SliceFile::flush`] (readers clamp counting to
    /// the row count their header said at open, so a concurrently
    /// appending writer can never make them observe a torn batch).
    pub fn append_row(&mut self, positions: &[usize]) -> io::Result<u64> {
        let row = self.rows;
        let chunk = row / CHUNK_ROWS as u64;
        let within = (row % CHUNK_ROWS as u64) as usize;
        let byte = within / 8;
        let bit = within % 8;
        let width = self.width;
        let state = self.read.get_mut().unwrap_or_else(|e| e.into_inner());
        // Pinned word decodes would go stale; drop them (selection counts
        // survive, so the hot set re-forms once counting resumes).
        state.hot.invalidate();
        for &p in positions {
            assert!(p < width, "position {p} out of range");
            state
                .cache
                .update(page_of(width, chunk, p), |page| page[byte] |= 1 << bit)?;
        }
        self.rows += 1;
        let rows = self.rows.to_le_bytes();
        state
            .cache
            .update(PageId(0), |header| header[16..24].copy_from_slice(&rows))?;
        Ok(row)
    }

    /// Loads one slice as an in-memory bit vector of `rows` bits.
    pub fn load_slice(&self, slice: usize) -> io::Result<BitVec> {
        assert!(slice < self.width, "slice {slice} out of range");
        let words = self.state().decode_slice(self.width, self.rows, slice)?;
        Ok(BitVec::from_words(words, self.rows as usize))
    }

    /// `CountItemSet` straight off the disk layout, for a batch of queries
    /// (each a deduplicated list of selected slices, plus an optional τ):
    /// each query ANDs its slices together and popcounts, reading only
    /// those slices' pages (an empty selection counts every live row).
    /// With `tau = Some(τ)` a result is exact whenever it is `≥ τ`, and an
    /// upper bound on the exact count when it is `< τ` (the query stops as
    /// soon as even all-ones remaining chunks could not reach `τ`).
    ///
    /// Rows set in `dead` are AND-NOTed out of every chunk (§3.4's
    /// constraint-slice trick, pointed at tombstones): the result is
    /// bit-for-bit what counting a compacted rewrite of only the surviving
    /// rows would give.
    ///
    /// The scan is shared: each selected slice chunk is walked once for the
    /// *whole batch*, feeding every query's accumulator from the same
    /// decoded segment, and the mask rides the shared prefix accumulator,
    /// so the batch pays one masked seed per chunk.  Results are
    /// bit-for-bit identical to issuing the queries one at a time (a
    /// single count is a batch of one) — the batch only changes how often
    /// shared pages are fetched and decoded.
    pub fn count_selected_many_masked(
        &self,
        queries: &[(Vec<usize>, Option<u64>)],
        dead: Option<&DeadMask>,
    ) -> io::Result<Vec<u64>> {
        self.state().count_selected_many(
            self.width,
            self.rows,
            queries,
            dead.filter(|d| d.deleted > 0)
                .map(|d| (d.words.as_slice(), d.deleted)),
        )
    }

    /// ANDs chunk `chunk` of slice `slice` onto `words` — that chunk's
    /// words of a row vector the caller holds — in place, and returns the
    /// popcount of the result: one step of the depth-first disk cursor
    /// (see `DiskCounter`).  `words` is at most [`PAGE_WORDS`] long; a
    /// boundary chunk passes only the words its rows fill, so nothing past
    /// them is read.  The page read is the checksum-verified one of every
    /// other count, straight off the cache-resident little-endian bytes.
    pub(crate) fn and_page(
        &mut self,
        chunk: u64,
        slice: usize,
        words: &mut [u64],
    ) -> io::Result<u64> {
        debug_assert!(words.len() <= PAGE_WORDS);
        let id = page_of(self.width, chunk, slice);
        self.state_mut().cache.with_page(id, |buf| {
            for (w, b) in words.iter_mut().zip(buf.chunks_exact(8)) {
                *w &= u64::from_le_bytes(b.try_into().expect("8 bytes"));
            }
        })?;
        Ok(ops::count_ones(words) as u64)
    }

    /// [`SliceFile::and_page`] for a parent that is mostly zero words in
    /// this chunk: `run` holds only the words at the in-page `offsets`
    /// (ascending), so only those words of the page are touched — the
    /// popcount returned is the one `and_page` would give over the whole
    /// chunk, because every word left out is zero in the parent.
    pub(crate) fn and_page_at(
        &mut self,
        chunk: u64,
        slice: usize,
        offsets: &[u16],
        run: &mut [u64],
    ) -> io::Result<u64> {
        debug_assert_eq!(offsets.len(), run.len());
        let id = page_of(self.width, chunk, slice);
        self.state_mut().cache.with_page(id, |buf| {
            for (w, &o) in run.iter_mut().zip(offsets) {
                let at = usize::from(o) * 8;
                *w &= u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
            }
        })?;
        Ok(ops::count_ones(run) as u64)
    }

    /// Lowers the row count this handle answers for to `rows` (never
    /// raises it): a reader opened for a snapshot older than the file's
    /// header must not see the rows committed since.
    pub(crate) fn clamp_rows(&mut self, rows: u64) {
        self.rows = self.rows.min(rows);
    }

    /// Flushes dirty pages and syncs.
    pub fn flush(&mut self) -> io::Result<()> {
        self.state_mut().cache.flush()
    }

    /// Chained digest of the boundary-chunk slice pages as they stand
    /// right now (what a commit record vouches for; see
    /// [`crate::commit::Commit::slices_digest`]).  Zero when the row count
    /// is chunk-aligned.
    pub(crate) fn boundary_digest(&mut self) -> io::Result<u64> {
        if self.rows.is_multiple_of(CHUNK_ROWS as u64) {
            return Ok(0);
        }
        let chunk = self.rows / CHUNK_ROWS as u64;
        let width = self.width;
        let state = self.read.get_mut().unwrap_or_else(|e| e.into_inner());
        let mut digest = CHAIN_SEED;
        for slice in 0..width {
            let page = page_of(width, chunk, slice);
            digest = chain_digest(digest, state.cache.with_page(page, page_digest)?);
        }
        Ok(digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bbs_slicefile_{}_{}.bbsx", std::process::id(), name));
        p
    }

    /// One query through the batch executor: a batch of one.
    fn count_one(
        f: &SliceFile,
        slices: &[usize],
        tau: Option<u64>,
        dead: Option<&DeadMask>,
    ) -> io::Result<u64> {
        Ok(f.count_selected_many_masked(&[(slices.to_vec(), tau)], dead)?[0])
    }

    struct Cleanup(std::path::PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    #[test]
    fn append_and_load_slice() {
        let p = path("append");
        let _g = Cleanup(p.clone());
        let mut f = SliceFile::open(&p, 16, 64).expect("open");
        f.append_row(&[0, 3]).expect("row 0");
        f.append_row(&[3]).expect("row 1");
        f.append_row(&[0, 15]).expect("row 2");
        assert_eq!(f.rows(), 3);
        assert_eq!(
            f.load_slice(0).expect("slice 0").iter_ones().collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(
            f.load_slice(3).expect("slice 3").iter_ones().collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(
            f.load_slice(15).expect("slice 15").iter_ones().collect::<Vec<_>>(),
            vec![2]
        );
        assert_eq!(f.load_slice(7).expect("slice 7").count_ones(), 0);
    }

    #[test]
    fn count_selected_is_and_popcount() {
        let p = path("count");
        let _g = Cleanup(p.clone());
        let mut f = SliceFile::open(&p, 8, 64).expect("open");
        f.append_row(&[0, 1]).expect("append");
        f.append_row(&[1]).expect("append");
        f.append_row(&[0, 1, 2]).expect("append");
        assert_eq!(count_one(&f, &[], None, None).expect("count"), 3);
        assert_eq!(count_one(&f, &[1], None, None).expect("count"), 3);
        assert_eq!(count_one(&f, &[0], None, None).expect("count"), 2);
        assert_eq!(count_one(&f, &[0, 1], None, None).expect("count"), 2);
        assert_eq!(count_one(&f, &[0, 2], None, None).expect("count"), 1);
        assert_eq!(count_one(&f, &[0, 1, 2], None, None).expect("count"), 1);
    }

    #[test]
    fn reopen_preserves_rows_and_width() {
        let p = path("reopen");
        let _g = Cleanup(p.clone());
        {
            let mut f = SliceFile::open(&p, 32, 64).expect("open");
            for i in 0..10 {
                f.append_row(&[i % 32]).expect("append");
            }
            f.flush().expect("flush");
        }
        let f = SliceFile::open(&p, 32, 64).expect("reopen");
        assert_eq!(f.rows(), 10);
        assert_eq!(f.load_slice(0).expect("slice").count_ones(), 1);
        // Wrong width is rejected.
        drop(f);
        assert!(SliceFile::open(&p, 64, 64).is_err());
    }

    #[test]
    fn crossing_a_chunk_boundary() {
        let p = path("chunk");
        let _g = Cleanup(p.clone());
        let mut f = SliceFile::open(&p, 4, 64).expect("open");
        // CHUNK_ROWS + 5 rows, every row sets bit 2.
        let n = CHUNK_ROWS + 5;
        for _ in 0..n {
            f.append_row(&[2]).expect("append");
        }
        assert_eq!(f.rows(), n as u64);
        assert_eq!(f.load_slice(2).expect("slice").count_ones(), n);
        assert_eq!(count_one(&f, &[2], None, None).expect("count"), n as u64);
        assert_eq!(count_one(&f, &[1, 2], None, None).expect("count"), 0);
    }

    #[test]
    fn cache_pressure_still_correct() {
        let p = path("pressure");
        let _g = Cleanup(p.clone());
        // Cache of 2 pages over a width-8 file forces constant eviction.
        let mut f = SliceFile::open(&p, 8, 2).expect("open");
        for i in 0..100u64 {
            f.append_row(&[(i % 8) as usize, ((i + 3) % 8) as usize])
                .expect("append");
        }
        let total: usize = (0..8)
            .map(|j| f.load_slice(j).expect("slice").count_ones())
            .sum();
        assert_eq!(total, 200, "every set bit accounted for");
        assert!(f.cache_stats().evictions > 0, "pressure actually occurred");
    }

    #[test]
    fn bounded_count_is_tau_consistent() {
        let p = path("bounded");
        let _g = Cleanup(p.clone());
        let mut f = SliceFile::open(&p, 4, 64).expect("open");
        // Two chunks; slice 0∩1 is rare and confined to the first chunk, so
        // a large tau can exit after chunk 0.
        let n = CHUNK_ROWS + 100;
        for i in 0..n {
            if i < 10 {
                f.append_row(&[0, 1]).expect("append");
            } else {
                f.append_row(&[i % 2]).expect("append");
            }
        }
        let exact = count_one(&f, &[0, 1], None, None).expect("exact");
        assert_eq!(exact, 10);
        // tau below the count: result must be exact.
        assert_eq!(count_one(&f, &[0, 1], Some(5), None).expect("b"), 10);
        // tau far above: an early exit may fire, but never undercounts and
        // never crosses tau from below.
        let big_tau = 2 * CHUNK_ROWS as u64;
        let est = count_one(&f, &[0, 1], Some(big_tau), None).expect("b");
        assert!(est >= exact);
        assert!(est < big_tau);
        // Unbounded agrees with the naive per-slice AND.
        let s0 = f.load_slice(0).expect("s0");
        let s1 = f.load_slice(1).expect("s1");
        assert_eq!(s0.and_count(&s1) as u64, exact);
    }

    #[test]
    fn hot_slices_promote_and_invalidate() {
        let p = path("hot");
        let _g = Cleanup(p.clone());
        let mut f = SliceFile::open(&p, 8, 64).expect("open");
        for i in 0..200u64 {
            f.append_row(&[(i % 8) as usize]).expect("append");
        }
        for _ in 0..5 {
            count_one(&f, &[0, 1], None, None).expect("count");
        }
        let hs = f.hot_stats();
        assert!(hs.pinned >= 2, "repeatedly selected slices get pinned: {hs:?}");
        assert!(hs.hits > 0);
        let before = count_one(&f, &[0], None, None).expect("count");
        // Append invalidates the pinned words; counting still agrees.
        f.append_row(&[0]).expect("append");
        assert_eq!(f.hot_stats().pinned, 0);
        assert!(f.hot_stats().invalidations >= 1);
        assert_eq!(count_one(&f, &[0], None, None).expect("count"), before + 1);
    }

    #[test]
    fn hot_invalidation_is_exactly_once_per_append() {
        let p = path("hot_exact");
        let _g = Cleanup(p.clone());
        let mut f = SliceFile::open(&p, 8, 64).expect("open");
        for i in 0..100u64 {
            f.append_row(&[(i % 8) as usize]).expect("append");
        }
        // Nothing pinned yet: those 100 appends cost zero invalidations.
        assert_eq!(f.hot_stats().invalidations, 0);
        for _ in 0..PROMOTE_AFTER {
            count_one(&f, &[0, 1], None, None).expect("count");
        }
        assert!(f.hot_stats().pinned >= 2);
        // One append over a pinned set: exactly one invalidation.
        f.append_row(&[0]).expect("append");
        assert_eq!(f.hot_stats().invalidations, 1);
        assert_eq!(f.hot_stats().pinned, 0);
        // Further appends with the set already empty add none.
        f.append_row(&[1]).expect("append");
        f.append_row(&[2]).expect("append");
        assert_eq!(f.hot_stats().invalidations, 1);
        // Counting re-promotes (selection counts survived), and the next
        // append invalidates exactly once again.
        count_one(&f, &[0, 1], None, None).expect("count");
        assert!(f.hot_stats().pinned >= 2, "{:?}", f.hot_stats());
        f.append_row(&[3]).expect("append");
        assert_eq!(f.hot_stats().invalidations, 2);
    }

    #[test]
    fn reader_clamps_counts_to_its_snapshot_rows() {
        let p = path("snapclamp");
        let _g = Cleanup(p.clone());
        let mut writer = SliceFile::open(&p, 8, 64).expect("open");
        for _ in 0..100u64 {
            writer.append_row(&[0, 1]).expect("append");
        }
        writer.flush().expect("flush");
        // A reader opened now is pinned to 100 rows.
        let reader = SliceFile::open(&p, 8, 64).expect("reader");
        assert_eq!(reader.rows(), 100);
        // The writer keeps appending into the *same* boundary-chunk pages
        // and flushes; the reader's counts must not move.
        for _ in 0..50u64 {
            writer.append_row(&[0, 1]).expect("append");
        }
        writer.flush().expect("flush");
        assert_eq!(count_one(&reader, &[0], None, None).expect("count"), 100);
        assert_eq!(count_one(&reader, &[0, 1], None, None).expect("count"), 100);
        assert_eq!(reader.load_slice(1).expect("slice").count_ones(), 100);
        // Repeat counting so the reader pins hot slices (decoded from pages
        // that now contain newer bits) — the clamp must hold there too.
        for _ in 0..5 {
            assert_eq!(count_one(&reader, &[0, 1], None, None).expect("count"), 100);
        }
        assert!(reader.hot_stats().pinned > 0);
        assert_eq!(count_one(&reader, &[0, 1], None, None).expect("count"), 100);
        // A freshly opened reader sees the newer flushed state.
        let fresh = SliceFile::open(&p, 8, 64).expect("fresh");
        assert_eq!(fresh.rows(), 150);
        assert_eq!(count_one(&fresh, &[0, 1], None, None).expect("count"), 150);
    }

    #[test]
    fn count_selected_many_matches_per_op() {
        let p = path("many");
        let _g = Cleanup(p.clone());
        let mut f = SliceFile::open(&p, 8, 64).expect("open");
        // Cross a chunk boundary so the shared scan exercises multiple
        // chunks and the boundary clamp.
        let n = CHUNK_ROWS + 321;
        for i in 0..n {
            f.append_row(&[i % 8, (i * 3) % 8]).expect("append");
        }
        let queries: Vec<(Vec<usize>, Option<u64>)> = vec![
            (vec![0], None),
            (vec![0, 1], None),
            (vec![2, 5, 7], Some(10)),
            (vec![], None),
            (vec![3], Some(u64::MAX)),
            (vec![1, 2, 3, 4, 5, 6, 7], Some(1)),
        ];
        let batched = f.count_selected_many_masked(&queries, None).expect("batched");
        for (i, (slices, tau)) in queries.iter().enumerate() {
            let solo = count_one(&f, slices, *tau, None).expect("solo");
            assert_eq!(batched[i], solo, "query {i} {slices:?} tau {tau:?}");
        }
        // Repeat after hot promotion: pinned-slice segments agree too.
        for _ in 0..5 {
            count_one(&f, &[0, 1], None, None).expect("promote");
        }
        assert!(f.hot_stats().pinned > 0);
        let batched2 = f.count_selected_many_masked(&queries, None).expect("batched hot");
        assert_eq!(batched, batched2);
        // A batch whose queries all select slices 1 and 2 has them hoisted
        // into the shared prefix accumulator; answers still equal counting
        // each query alone, including for the query that selects nothing else.
        let common: Vec<(Vec<usize>, Option<u64>)> = vec![
            (vec![1, 2, 3], None),
            (vec![1, 2, 5], Some(5)),
            (vec![1, 2], None),
            (vec![1, 2, 7], Some(u64::MAX)),
        ];
        let hoisted = f.count_selected_many_masked(&common, None).expect("hoisted");
        for (i, (slices, tau)) in common.iter().enumerate() {
            let solo = count_one(&f, slices, *tau, None).expect("solo");
            assert_eq!(hoisted[i], solo, "hoisted query {i} {slices:?} tau {tau:?}");
        }
    }

    #[test]
    fn masked_counts_equal_compacted_rebuild() {
        let p = path("masked");
        let _g = Cleanup(p.clone());
        let p2 = path("masked_rebuilt");
        let _g2 = Cleanup(p2.clone());
        let mut f = SliceFile::open(&p, 8, 64).expect("open");
        // Rows cross a chunk boundary; tombstone a scattered third of them.
        let n = CHUNK_ROWS + 321;
        let rows: Vec<Vec<usize>> = (0..n)
            .map(|i| vec![i % 8, (i * 5 + 1) % 8])
            .collect();
        for r in &rows {
            f.append_row(r).expect("append");
        }
        let mut dead = DeadMask::default();
        for (i, _) in rows.iter().enumerate() {
            if i % 3 == 0 {
                let w = i / 64;
                if dead.words.len() <= w {
                    dead.words.resize(w + 1, 0);
                }
                dead.words[w] |= 1 << (i % 64);
                dead.deleted += 1;
            }
        }
        // The oracle: a file holding only the surviving rows.
        let mut g = SliceFile::open(&p2, 8, 64).expect("open rebuilt");
        for (i, r) in rows.iter().enumerate() {
            if i % 3 != 0 {
                g.append_row(r).expect("append");
            }
        }
        let queries: Vec<(Vec<usize>, Option<u64>)> = vec![
            (vec![], None),
            (vec![0], None),
            (vec![0, 1], None),
            (vec![2, 5, 7], Some(10)),
            (vec![3], Some(u64::MAX)),
        ];
        for (slices, _) in &queries {
            assert_eq!(
                count_one(&f, slices, None, Some(&dead)).expect("masked"),
                count_one(&g, slices, None, None).expect("rebuilt"),
                "alone {slices:?}"
            );
        }
        let masked = f
            .count_selected_many_masked(&queries, Some(&dead))
            .expect("masked many");
        for (i, (slices, tau)) in queries.iter().enumerate() {
            let solo = count_one(&f, slices, *tau, Some(&dead)).expect("solo masked");
            assert_eq!(masked[i], solo, "batched vs alone {slices:?}");
        }
        // Hoisted common slices with the mask riding the shared prefix.
        let common: Vec<(Vec<usize>, Option<u64>)> = queries
            .iter()
            .map(|(slices, tau)| {
                let mut union: Vec<usize> = [1usize, 2].iter().chain(slices).copied().collect();
                union.sort_unstable();
                union.dedup();
                (union, *tau)
            })
            .collect();
        let hoisted = f
            .count_selected_many_masked(&common, Some(&dead))
            .expect("hoisted masked");
        for (i, (union, tau)) in common.iter().enumerate() {
            let exact = count_one(&g, union, None, None).expect("rebuilt union");
            match tau {
                // No early exit: the masked count must be exact.
                None => assert_eq!(hoisted[i], exact, "hoisted {union:?}"),
                // The tau contract: exact at or above the threshold, an
                // upper bound below it (early exit may stop scanning at a
                // different chunk than the rebuilt file would).
                Some(t) => {
                    assert!(hoisted[i] >= exact, "hoisted {union:?} not a bound");
                    if hoisted[i] >= *t {
                        assert_eq!(hoisted[i], exact, "hoisted {union:?} above tau");
                    }
                }
            }
        }
        // No tombstones: the masked paths degrade to the plain ones.
        assert_eq!(
            count_one(&f, &[0], None, Some(&DeadMask::default())).expect("empty mask"),
            count_one(&f, &[0], None, None).expect("plain")
        );
    }

    #[test]
    fn shared_reference_counting() {
        let p = path("shared");
        let _g = Cleanup(p.clone());
        let mut f = SliceFile::open(&p, 8, 64).expect("open");
        for i in 0..50u64 {
            f.append_row(&[(i % 8) as usize, ((i + 1) % 8) as usize])
                .expect("append");
        }
        let shared = &f;
        let a = count_one(shared, &[0], None, None).expect("a");
        let b = count_one(shared, &[0], None, None).expect("b");
        assert_eq!(a, b);
        // And across scoped threads on the same shared reference.
        let (x, y) = std::thread::scope(|s| {
            let h1 = s.spawn(|| count_one(shared, &[0, 1], None, None).expect("t1"));
            let h2 = s.spawn(|| count_one(shared, &[0, 1], None, None).expect("t2"));
            (h1.join().expect("join1"), h2.join().expect("join2"))
        });
        assert_eq!(x, y);
        assert_eq!(x, count_one(shared, &[0, 1], None, None).expect("serial"));
    }
}
