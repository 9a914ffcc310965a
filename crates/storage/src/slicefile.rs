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
//! Every served count and every mine goes through the depth-first cursor
//! ([`crate::DiskCounter`]), which reads this file's pages as a
//! [`bbs_core::SliceSource`]: a `COUNT_MANY` is that cursor walking the
//! batch's prefix trie.  What this file counts by
//! itself, [`SliceFile::count_selected_many_masked`], is the naive
//! reference: per query and per chunk, the live rows ANDed with each
//! selected page and popcounted.  Tests check the cursor against it, and
//! a writer's own index counts through it, unflushed appends included.
//!
//! The page cache lives behind a `Mutex`, so counting needs only `&self`
//! — shared references can count concurrently, and independent readers
//! over the same file get genuine parallelism (see `DiskBbs::counter`).

use crate::backend::{FileBackend, StorageBackend};
use crate::cache::{CacheStats, PageCache};
use crate::del::DeadMask;
use crate::pager::{
    chain_digest, page_digest, zeroed_page, ChecksumMismatch, PageId, Pager, PagerStats,
    CHAIN_SEED, PAGE_SIZE,
};
use bbs_bitslice::{ops, BitVec};
use bbs_core::SliceSource;
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
pub use bbs_bitslice::PAGE_WORDS;

/// Counters of the hot-slice cache this file used to keep.  There is no
/// such cache any more, so [`SliceFile::hot_stats`] reports zeros; the
/// type stays for the benchmark harness, which still reads it.
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

fn page_of(width: usize, chunk: u64, slice: usize) -> PageId {
    PageId(1 + chunk * width as u64 + slice as u64)
}

/// The little-endian word in the first 8 bytes of `bytes`.
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// A durable, chunk-major bit-slice file.
///
/// Writes (`append_row`, `flush`) take `&mut self`; the counting path takes
/// `&self` and synchronises internally, so a shared reference suffices to
/// run `CountItemSet` queries (including from multiple threads, serialised
/// on this file's cache — use independent `SliceFile`s over the same path
/// for parallel reads).
pub struct SliceFile<B: StorageBackend = FileBackend> {
    cache: Mutex<PageCache<B>>,
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
            cache: Mutex::new(cache),
            width,
            rows,
        })
    }

    fn cache(&self) -> MutexGuard<'_, PageCache<B>> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn cache_mut(&mut self) -> &mut PageCache<B> {
        self.cache.get_mut().unwrap_or_else(|e| e.into_inner())
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
        self.cache().stats()
    }

    /// Physical I/O counters of the underlying pager.
    pub fn pager_stats(&self) -> PagerStats {
        self.cache().pager_stats()
    }

    /// Hot-slice cache counters: always zero, since there is no such cache
    /// (see [`HotStats`]).
    pub fn hot_stats(&self) -> HotStats {
        HotStats::default()
    }

    /// Appends one row whose set bit positions are `positions` (each `<
    /// width`).  Returns the row index.
    ///
    /// The row becomes visible to this handle immediately and to
    /// independent readers only after [`SliceFile::flush`] (readers clamp
    /// counting to the row count their header said at open, so a
    /// concurrently appending writer can never make them observe a torn
    /// batch).
    pub fn append_row(&mut self, positions: &[usize]) -> io::Result<u64> {
        let row = self.rows;
        let chunk = row / CHUNK_ROWS as u64;
        let within = (row % CHUNK_ROWS as u64) as usize;
        let byte = within / 8;
        let bit = within % 8;
        let width = self.width;
        let cache = self.cache_mut();
        for &p in positions {
            assert!(p < width, "position {p} out of range");
            cache.update(page_of(width, chunk, p), |page| page[byte] |= 1 << bit)?;
        }
        self.rows += 1;
        let rows = self.rows.to_le_bytes();
        self.cache_mut()
            .update(PageId(0), |header| header[16..24].copy_from_slice(&rows))?;
        Ok(row)
    }

    /// Loads one slice as an in-memory bit vector of `rows` bits, through
    /// the page cache, with bits `>= rows` masked off.
    pub fn load_slice(&self, slice: usize) -> io::Result<BitVec> {
        assert!(slice < self.width, "slice {slice} out of range");
        let rows = self.rows as usize;
        let mut words: Vec<u64> = Vec::with_capacity(rows.div_ceil(CHUNK_ROWS) * PAGE_WORDS);
        let mut cache = self.cache();
        for c in 0..rows.div_ceil(CHUNK_ROWS) {
            cache.with_page(page_of(self.width, c as u64, slice), |buf| {
                words.extend(buf.chunks_exact(8).map(le_word));
            })?;
        }
        words.truncate(bbs_bitslice::words_for(rows));
        mask_from(&mut words, rows);
        Ok(BitVec::from_words(words, rows))
    }

    /// `CountItemSet` straight off the disk layout, for a batch of queries
    /// (each a deduplicated list of selected slices): per query and per
    /// chunk, the chunk's live rows are ANDed with each selected page and
    /// popcounted, so an empty selection counts every live row.  This is
    /// the naive reference the cursor is tested against; it keeps no state
    /// but the page cache.  Each query's τ is accepted and ignored: an
    /// exact answer meets the τ contract.
    ///
    /// Rows set in `dead` are AND-NOTed out of every chunk (§3.4's
    /// constraint-slice trick, pointed at tombstones): the result is
    /// bit-for-bit what counting a compacted rewrite of only the surviving
    /// rows would give.
    pub fn count_selected_many_masked(
        &self,
        queries: &[(Vec<usize>, Option<u64>)],
        dead: Option<&DeadMask>,
    ) -> io::Result<Vec<u64>> {
        let rows = self.rows as usize;
        let dead = dead.map_or(&[][..], |d| d.words.as_slice());
        let mut cache = self.cache();
        let mut acc = [0u64; PAGE_WORDS];
        let mut count = |slices: &[usize]| -> io::Result<u64> {
            let mut total = 0;
            for c in 0..rows.div_ceil(CHUNK_ROWS) {
                let lo = c * PAGE_WORDS;
                for (i, a) in acc.iter_mut().enumerate() {
                    *a = !dead.get(lo + i).copied().unwrap_or(0);
                }
                for &s in slices {
                    cache.with_page(page_of(self.width, c as u64, s), |buf| {
                        for (a, b) in acc.iter_mut().zip(buf.chunks_exact(8)) {
                            *a &= le_word(b);
                        }
                    })?;
                }
                mask_from(&mut acc, rows - c * CHUNK_ROWS);
                total += ops::count_ones(&acc) as u64;
            }
            Ok(total)
        };
        queries.iter().map(|(slices, _tau)| count(slices)).collect()
    }

    /// Lowers the row count this handle answers for to `rows` (never
    /// raises it): a reader opened for a snapshot older than the file's
    /// header must not see the rows committed since.
    pub(crate) fn clamp_rows(&mut self, rows: u64) {
        self.rows = self.rows.min(rows);
    }

    /// Flushes dirty pages and syncs.
    pub fn flush(&mut self) -> io::Result<()> {
        self.cache_mut().flush()
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
        let cache = self.cache_mut();
        let mut digest = CHAIN_SEED;
        for slice in 0..width {
            let page = page_of(width, chunk, slice);
            digest = chain_digest(digest, cache.with_page(page, page_digest)?);
        }
        Ok(digest)
    }
}

/// The cursor's reads: the page read is the checksum-verified one of every
/// other count, straight off the cache-resident little-endian bytes.
impl<B: StorageBackend> SliceSource for SliceFile<B> {
    fn width(&self) -> usize {
        self.width
    }

    fn and_page(&mut self, chunk: u64, slice: usize, words: &mut [u64]) -> io::Result<u64> {
        debug_assert!(words.len() <= PAGE_WORDS);
        let id = page_of(self.width, chunk, slice);
        self.cache_mut().with_page(id, |buf| {
            for (w, b) in words.iter_mut().zip(buf.chunks_exact(8)) {
                *w &= le_word(b);
            }
        })?;
        Ok(ops::count_ones(words) as u64)
    }

    fn and_page_at(
        &mut self,
        chunk: u64,
        slice: usize,
        offsets: &[u16],
        run: &mut [u64],
    ) -> io::Result<u64> {
        debug_assert_eq!(offsets.len(), run.len());
        let id = page_of(self.width, chunk, slice);
        self.cache_mut().with_page(id, |buf| {
            for (w, &o) in run.iter_mut().zip(offsets) {
                *w &= le_word(&buf[usize::from(o) * 8..]);
            }
        })?;
        Ok(ops::count_ones(run) as u64)
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

    /// One query through the reference count: a batch of one.
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
        // Repeat counting over pages that now contain newer bits — the
        // clamp must hold every time.
        for _ in 0..5 {
            assert_eq!(count_one(&reader, &[0, 1], None, None).expect("count"), 100);
        }
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
        // Cross a chunk boundary so the count exercises multiple chunks and
        // the boundary clamp.
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
        // Repeat counting: the answers do not drift.
        for _ in 0..5 {
            count_one(&f, &[0, 1], None, None).expect("repeat");
        }
        let batched2 = f.count_selected_many_masked(&queries, None).expect("batched again");
        assert_eq!(batched, batched2);
        // A batch whose queries all select slices 1 and 2: answers still
        // equal counting each query alone, including for the query that
        // selects nothing else.
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
        // Common slices in every query of a masked batch.
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
