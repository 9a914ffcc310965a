//! Page-granular file access with per-page checksums.
//!
//! Every durable structure in this crate — the transaction heap file, its
//! positional index, and the BBS slice file — talks to its backing file
//! exclusively through a [`Pager`]: fixed-size pages, explicit read/write,
//! and physical-I/O counters that the cache layer exposes upward.
//!
//! # Checksum layout
//!
//! The file interleaves one **checksum page** ahead of every 512 data
//! pages; a checksum page is exactly 512 little-endian [`page_digest`]
//! values (512 × 8 = 4096 bytes), one per data page of its group:
//!
//! ```text
//! physical 0        checksums of logical pages 0..512
//! physical 1..513   logical pages 0..512
//! physical 513      checksums of logical pages 512..1024
//! physical 514..    logical pages 512..
//! ```
//!
//! Callers address **logical** pages; the pager maps them to physical
//! positions, verifies every read against its digest, and maintains the
//! digests on write (they are cached in memory and written out by
//! [`Pager::sync`]).  A failed verification surfaces as an
//! [`io::ErrorKind::InvalidData`] error wrapping a typed
//! [`ChecksumMismatch`] — corrupt bytes are never returned as data.
//!
//! Recovery code uses [`Pager::read_page_raw`] (no verification) and
//! [`Pager::truncate_logical`] to repair files after a torn write; see
//! `diskbbs` for the commit protocol that decides *what* to repair.

use crate::backend::{FileBackend, StorageBackend};
use std::collections::hash_map::{Entry, HashMap};
use std::io;
use std::path::Path;

/// Page size in bytes.  4 KiB matches the simulated cost model in
/// `bbs-tdb` so disk-backed and in-memory ledgers are comparable.
pub const PAGE_SIZE: usize = 4096;

/// Data pages per checksum group (one digest slot per page).
pub const GROUP_DATA_PAGES: u64 = (PAGE_SIZE / 8) as u64;

/// Physical pages per group: the checksum page plus its data pages.
pub const GROUP_PHYS_PAGES: u64 = GROUP_DATA_PAGES + 1;

/// A logical page number within one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

/// One page worth of bytes.
pub type PageBuf = Box<[u8; PAGE_SIZE]>;

/// Allocates a zeroed page buffer.
pub fn zeroed_page() -> PageBuf {
    vec![0u8; PAGE_SIZE]
        .into_boxed_slice()
        .try_into()
        .expect("exact size")
}

/// FNV-1a 64-bit digest: the checksum of the small-record framings (the
/// commit slot, `.counts`, `.dedup`, `.log`, `.del`, the swap marker).
/// Whole pages are digested by [`page_digest`], never by this.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Independent lanes of [`page_digest`]: word `i` of a page feeds lane
/// `i % DIGEST_LANES`, so four multiply chains run side by side instead
/// of FNV-1a's one chain of 4096 dependent byte steps.
const DIGEST_LANES: usize = 4;
/// Initial lane states (distinct, so equal words in different lanes do
/// not produce equal lanes).
const LANE_SEEDS: [u64; DIGEST_LANES] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];
/// The odd multiplier of every mixing step (multiplication by an odd
/// constant is a bijection of `u64`).
const DIGEST_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
const DIGEST_ROT: u32 = 29;

/// One xor–multiply–rotate step.  For a fixed `word` it is a bijection
/// of `state`, and for a fixed `state` a bijection of `word`: that is
/// what carries a single changed word through to the result.
#[inline(always)]
fn mix(state: u64, word: u64) -> u64 {
    (state ^ word)
        .wrapping_mul(DIGEST_MUL)
        .rotate_left(DIGEST_ROT)
}

/// The digest of one page: what checksum pages store, what verified reads
/// check, and what the commit record chains over the boundary pages.
///
/// The page is consumed as 512 little-endian `u64` words dealt into four
/// independent lanes of xor–multiply–rotate steps; the lanes are folded
/// by the same step and finished with a bijective avalanche.  Every step
/// is a bijection of the running state, so two pages that differ in
/// exactly one word **always** digest differently — the guarantee FNV-1a
/// gives per byte — in ~0.2 µs a page where the byte-serial FNV-1a chain
/// took ~4 µs.  Portable scalar code: the value is part of the on-disk
/// format (v2) and must not depend on the host.
pub fn page_digest(page: &[u8; PAGE_SIZE]) -> u64 {
    let mut lanes = LANE_SEEDS;
    for block in page.chunks_exact(8 * DIGEST_LANES) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }
    let mut h = lanes.into_iter().fold(PAGE_SIZE as u64, mix);
    h ^= h >> 32;
    h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
    h ^ (h >> 29)
}

/// Initial state of a [`chain_digest`] chain.
pub(crate) const CHAIN_SEED: u64 = 0x4528_21e6_38d0_1377;

/// Folds one page's [`page_digest`] into a running chain — how the commit
/// record's `slices_digest` covers the boundary chunk's pages in slice
/// order.  Same step as inside a page, so a single changed page digest
/// always changes the chain.
pub(crate) fn chain_digest(chain: u64, digest: u64) -> u64 {
    mix(chain, digest)
}

/// Physical page index of logical page `l`.
pub fn phys_of(l: u64) -> u64 {
    let group = l / GROUP_DATA_PAGES;
    let slot = l % GROUP_DATA_PAGES;
    group * GROUP_PHYS_PAGES + 1 + slot
}

/// Physical page index of group `g`'s checksum page.
pub fn checksum_phys_of(group: u64) -> u64 {
    group * GROUP_PHYS_PAGES
}

/// Number of logical pages representable by `phys` physical pages.
pub fn logical_pages_for_phys(phys: u64) -> u64 {
    let full = phys / GROUP_PHYS_PAGES;
    let rem = phys % GROUP_PHYS_PAGES;
    // A trailing lone checksum page (rem == 1) carries no data.
    full * GROUP_DATA_PAGES + rem.saturating_sub(1)
}

/// Number of physical pages needed to hold `n` logical pages.
pub fn phys_pages_for_logical(n: u64) -> u64 {
    if n == 0 {
        0
    } else {
        n + n.div_ceil(GROUP_DATA_PAGES)
    }
}

/// A verified read found bytes that do not match their stored digest.
///
/// Wrapped inside an [`io::Error`] of kind [`io::ErrorKind::InvalidData`];
/// retrieve it with [`checksum_mismatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChecksumMismatch {
    /// The logical page whose bytes failed verification.
    pub page: u64,
    /// The digest recorded in the checksum page.
    pub expected: u64,
    /// The digest of the bytes actually read.
    pub actual: u64,
}

impl std::fmt::Display for ChecksumMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checksum mismatch on page {}: stored {:#018x}, computed {:#018x}",
            self.page, self.expected, self.actual
        )
    }
}

impl std::error::Error for ChecksumMismatch {}

impl ChecksumMismatch {
    fn into_io(self) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, self)
    }
}

/// Extracts the typed [`ChecksumMismatch`] from an I/O error, if that is
/// what it carries.
pub fn checksum_mismatch(e: &io::Error) -> Option<&ChecksumMismatch> {
    e.get_ref().and_then(|inner| inner.downcast_ref())
}

/// Physical I/O counters for one pager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Data pages physically read from the file.
    pub reads: u64,
    /// Data pages physically written to the file.
    pub writes: u64,
    /// Checksum pages physically read.
    pub checksum_reads: u64,
    /// Checksum pages physically written.
    pub checksum_writes: u64,
    /// Data pages whose digest was checked and found valid on read.
    pub verified: u64,
}

struct ChecksumFrame {
    buf: PageBuf,
    dirty: bool,
}

impl ChecksumFrame {
    /// Stores the digest of `logical` (a page of this frame's group).
    fn record(&mut self, logical: u64, digest: u64) {
        let slot = (logical % GROUP_DATA_PAGES) as usize;
        self.buf[slot * 8..slot * 8 + 8].copy_from_slice(&digest.to_le_bytes());
        self.dirty = true;
    }
}

/// A fixed-page-size file wrapper with verified reads.
pub struct Pager<B: StorageBackend = FileBackend> {
    backend: B,
    /// Number of logical pages the file currently holds.
    logical: u64,
    stats: PagerStats,
    /// Checksum pages resident in memory, keyed by group.
    checksums: HashMap<u64, ChecksumFrame>,
}

impl Pager<FileBackend> {
    /// Opens (or creates) a paged file at `path`.
    pub fn open(path: &Path) -> io::Result<Self> {
        Pager::new(FileBackend::open(path)?)
    }
}

impl<B: StorageBackend> Pager<B> {
    /// Wraps a backend as a paged file.
    ///
    /// A trailing partial page (the footprint of a write torn by a crash
    /// while extending the file) is discarded: no committed page can live
    /// there, because committed extensions complete before a commit record
    /// is written.
    pub fn new(mut backend: B) -> io::Result<Self> {
        let len = backend.len()?;
        let phys = len / PAGE_SIZE as u64;
        if len % PAGE_SIZE as u64 != 0 {
            backend.set_len(phys * PAGE_SIZE as u64)?;
        }
        Ok(Pager {
            backend,
            logical: logical_pages_for_phys(phys),
            stats: PagerStats::default(),
            checksums: HashMap::new(),
        })
    }

    /// Number of logical (data) pages in the file.
    pub fn page_count(&self) -> u64 {
        self.logical
    }

    /// Physical I/O counters so far.
    pub fn stats(&self) -> PagerStats {
        self.stats
    }

    /// Loads (or materialises) the checksum page of `group`.
    fn checksum_frame(&mut self, group: u64) -> io::Result<&mut ChecksumFrame> {
        match self.checksums.entry(group) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(v) => {
                let mut buf = zeroed_page();
                let phys = checksum_phys_of(group);
                // Only read what the file physically holds; groups beyond
                // the end start from an all-zero digest page.
                if (phys + 1) * PAGE_SIZE as u64 <= self.backend.len()? {
                    self.backend
                        .read_at(phys * PAGE_SIZE as u64, &mut buf[..])?;
                    self.stats.checksum_reads += 1;
                }
                Ok(v.insert(ChecksumFrame { buf, dirty: false }))
            }
        }
    }

    fn stored_digest(&mut self, logical: u64) -> io::Result<u64> {
        let group = logical / GROUP_DATA_PAGES;
        let slot = (logical % GROUP_DATA_PAGES) as usize;
        let frame = self.checksum_frame(group)?;
        let raw = &frame.buf[slot * 8..slot * 8 + 8];
        Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    /// Drops the cached checksum page of `logical`'s group so the next
    /// [`Pager::stored_digest`] re-reads it from disk — but only when the
    /// cached frame is **clean**.  A dirty frame belongs to this handle's
    /// own un-synced writes and is authoritative; discarding it would lose
    /// digests.  Returns whether a cached frame was actually dropped.
    ///
    /// Read-only handles use this to recover from *stale* digests: another
    /// handle of the same file may have rewritten a data page and its
    /// checksum page after we cached the group.  Re-reading resolves
    /// staleness while leaving genuine corruption detectable (the digest on
    /// disk still mismatches corrupt bytes).
    fn evict_clean_checksum_frame(&mut self, logical: u64) -> bool {
        let group = logical / GROUP_DATA_PAGES;
        match self.checksums.get(&group) {
            Some(frame) if !frame.dirty => {
                self.checksums.remove(&group);
                true
            }
            _ => false,
        }
    }

    /// Reads logical page `id` into a fresh buffer, verifying its digest.
    pub fn read_page(&mut self, id: PageId) -> io::Result<PageBuf> {
        let mut buf = zeroed_page();
        self.read_page_into(id, &mut buf)?;
        Ok(buf)
    }

    /// Reads logical page `id` into `buf`, verifying its digest.  Every
    /// byte of `buf` is overwritten, so a recycled buffer needs no
    /// clearing; after an error its content is unspecified.
    ///
    /// Reading past the end yields a zeroed page without touching the file
    /// (the page will materialise when first written) — this mirrors the
    /// zero-extension semantics of the in-memory bit-slices.
    pub fn read_page_into(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> io::Result<()> {
        if id.0 >= self.logical {
            buf.fill(0);
            return Ok(());
        }
        self.backend
            .read_at(phys_of(id.0) * PAGE_SIZE as u64, &mut buf[..])?;
        self.stats.reads += 1;
        let mut expected = self.stored_digest(id.0)?;
        let actual = page_digest(buf);
        if actual != expected {
            // The mismatch may be a *stale* cached digest rather than
            // corrupt data: another handle of this file (the snapshot
            // writer) can rewrite a data page and its checksum page
            // after we cached the group.  Re-read the checksum page
            // from disk once and re-verify; genuine corruption still
            // mismatches against the on-disk digest.
            if self.evict_clean_checksum_frame(id.0) {
                expected = self.stored_digest(id.0)?;
            }
            if actual != expected {
                return Err(ChecksumMismatch {
                    page: id.0,
                    expected,
                    actual,
                }
                .into_io());
            }
        }
        self.stats.verified += 1;
        Ok(())
    }

    /// Reads logical page `id` **without** digest verification.
    ///
    /// Recovery uses this to salvage the committed prefix of a torn page;
    /// everything else should go through [`Pager::read_page`].
    pub fn read_page_raw(&mut self, id: PageId) -> io::Result<PageBuf> {
        let mut buf = zeroed_page();
        if id.0 < self.logical {
            self.backend
                .read_at(phys_of(id.0) * PAGE_SIZE as u64, &mut buf[..])?;
            self.stats.reads += 1;
        }
        Ok(buf)
    }

    /// Writes logical page `id`, extending the file (with zero pages) if
    /// needed, and records its digest.
    pub fn write_page(&mut self, id: PageId, data: &[u8; PAGE_SIZE]) -> io::Result<()> {
        self.write_run(id, data)
    }

    /// Writes the whole pages in `pages` to consecutive logical pages from
    /// `first` in **one** backend write, recording each page's digest.
    /// The run must not cross a checksum page: its pages have to be
    /// physically adjacent for one positioned write to place them all.
    ///
    /// A failed write records nothing (the caller's copies stay the
    /// truth and are written again); whatever prefix of it reached the
    /// file is covered like any torn write — by the next write-back of
    /// the same pages, or by recovery, which trusts no page the commit
    /// record does not vouch for.
    ///
    /// # Panics
    /// Panics if `pages` is empty, not a whole number of pages, or spans
    /// two checksum groups.
    pub fn write_run(&mut self, first: PageId, pages: &[u8]) -> io::Result<()> {
        assert!(
            !pages.is_empty() && pages.len().is_multiple_of(PAGE_SIZE),
            "a run is one or more whole pages"
        );
        let n = (pages.len() / PAGE_SIZE) as u64;
        let group = first.0 / GROUP_DATA_PAGES;
        assert_eq!(
            (first.0 + n - 1) / GROUP_DATA_PAGES,
            group,
            "run crosses a checksum page"
        );
        if first.0 > self.logical {
            // Extend with explicit zero pages so every logical page below
            // the new end exists on disk with a valid digest.
            let zero = zeroed_page();
            let zero_digest = page_digest(&zero);
            for gap in self.logical..first.0 {
                self.backend
                    .write_at(phys_of(gap) * PAGE_SIZE as u64, &zero[..])?;
                self.checksum_frame(gap / GROUP_DATA_PAGES)?
                    .record(gap, zero_digest);
                self.stats.writes += 1;
            }
        }
        self.backend
            .write_at(phys_of(first.0) * PAGE_SIZE as u64, pages)?;
        let frame = self.checksum_frame(group)?;
        for (id, page) in (first.0..).zip(pages.chunks_exact(PAGE_SIZE)) {
            frame.record(id, page_digest(page.try_into().expect("whole page")));
        }
        self.stats.writes += n;
        self.logical = self.logical.max(first.0 + n);
        Ok(())
    }

    /// Truncates the file to exactly `n` logical pages.
    ///
    /// Digest slots of discarded pages in the surviving boundary group are
    /// zeroed so the checksum page carries no stale entries.
    pub fn truncate_logical(&mut self, n: u64) -> io::Result<()> {
        self.backend
            .set_len(phys_pages_for_logical(n) * PAGE_SIZE as u64)?;
        self.logical = n;
        let boundary = if n == 0 { 0 } else { (n - 1) / GROUP_DATA_PAGES };
        self.checksums
            .retain(|&g, _| n > 0 && g <= boundary);
        if n > 0 {
            let first_stale = ((n - 1) % GROUP_DATA_PAGES + 1) as usize;
            if first_stale < GROUP_DATA_PAGES as usize {
                let frame = self.checksum_frame(boundary)?;
                if frame.buf[first_stale * 8..].iter().any(|&b| b != 0) {
                    frame.buf[first_stale * 8..].fill(0);
                    frame.dirty = true;
                }
            }
        }
        Ok(())
    }

    /// Writes dirty checksum pages and flushes OS buffers to stable
    /// storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.write_checksums()?;
        self.backend.sync()
    }

    /// Writes dirty checksum pages to the file without syncing it: after
    /// this, another handle opened on the same file verifies every page
    /// this one has written.
    pub(crate) fn write_checksums(&mut self) -> io::Result<()> {
        let mut dirty: Vec<u64> = self
            .checksums
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(&g, _)| g)
            .collect();
        dirty.sort_unstable();
        for group in dirty {
            let frame = self.checksums.get_mut(&group).expect("present");
            self.backend
                .write_at(checksum_phys_of(group) * PAGE_SIZE as u64, &frame.buf[..])?;
            frame.dirty = false;
            self.stats.checksum_writes += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CountingBackend, MemBackend};

    fn temp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bbs_pager_{}_{}", std::process::id(), name));
        p
    }

    struct Cleanup(std::path::PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    #[test]
    fn layout_maps_are_inverse() {
        for n in [0u64, 1, 2, 511, 512, 513, 1024, 1025, 100_000] {
            let phys = phys_pages_for_logical(n);
            assert_eq!(logical_pages_for_phys(phys), n, "n={n}");
        }
        // A trailing lone checksum page carries no data.
        assert_eq!(logical_pages_for_phys(1), 0);
        assert_eq!(logical_pages_for_phys(514), 512);
        // Physical positions: group 0 checksums at 0, data from 1.
        assert_eq!(phys_of(0), 1);
        assert_eq!(phys_of(511), 512);
        assert_eq!(phys_of(512), 514);
        assert_eq!(checksum_phys_of(1), 513);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let path = temp("roundtrip");
        let _c = Cleanup(path.clone());
        let mut pager = Pager::open(&path).expect("open");
        assert_eq!(pager.page_count(), 0);

        let mut page = zeroed_page();
        page[0] = 0xAB;
        page[PAGE_SIZE - 1] = 0xCD;
        pager.write_page(PageId(0), &page).expect("write");
        assert_eq!(pager.page_count(), 1);

        let got = pager.read_page(PageId(0)).expect("read");
        assert_eq!(got[0], 0xAB);
        assert_eq!(got[PAGE_SIZE - 1], 0xCD);
        assert_eq!(pager.stats().reads, 1);
        assert_eq!(pager.stats().writes, 1);
    }

    #[test]
    fn read_past_end_is_zero_and_free() {
        let path = temp("past_end");
        let _c = Cleanup(path.clone());
        let mut pager = Pager::open(&path).expect("open");
        let got = pager.read_page(PageId(7)).expect("read");
        assert!(got.iter().all(|&b| b == 0));
        assert_eq!(pager.stats().reads, 0, "no physical read happened");
    }

    #[test]
    fn sparse_write_extends_with_zero_pages() {
        let path = temp("sparse");
        let _c = Cleanup(path.clone());
        let mut pager = Pager::open(&path).expect("open");
        let mut page = zeroed_page();
        page[5] = 9;
        pager.write_page(PageId(3), &page).expect("write");
        assert_eq!(pager.page_count(), 4);
        let middle = pager.read_page(PageId(1)).expect("read");
        assert!(middle.iter().all(|&b| b == 0));
    }

    #[test]
    fn reopen_preserves_contents() {
        let path = temp("reopen");
        let _c = Cleanup(path.clone());
        {
            let mut pager = Pager::open(&path).expect("open");
            let mut page = zeroed_page();
            page[100] = 42;
            pager.write_page(PageId(2), &page).expect("write");
            pager.sync().expect("sync");
        }
        let mut pager = Pager::open(&path).expect("reopen");
        assert_eq!(pager.page_count(), 3);
        assert_eq!(pager.read_page(PageId(2)).expect("read")[100], 42);
    }

    #[test]
    fn torn_tail_page_is_discarded_on_open() {
        let path = temp("torn_tail");
        let _c = Cleanup(path.clone());
        {
            let mut pager = Pager::open(&path).expect("open");
            let mut page = zeroed_page();
            page[0] = 1;
            pager.write_page(PageId(0), &page).expect("write");
            pager.sync().expect("sync");
        }
        // Simulate a crash that tore an extending write: a partial page
        // dangles past the last full page.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("append");
        f.write_all(&[0xEE; 100]).expect("write");
        drop(f);
        let mut pager = Pager::open(&path).expect("reopen");
        assert_eq!(pager.page_count(), 1);
        assert_eq!(pager.read_page(PageId(0)).expect("read")[0], 1);
    }

    #[test]
    fn corrupt_page_is_detected_not_returned() {
        let mut backend = MemBackend::new();
        let mut page = zeroed_page();
        page[17] = 0x55;
        {
            let mut pager = Pager::new(&mut backend).expect("new");
            pager.write_page(PageId(0), &page).expect("write");
            pager.sync().expect("sync");
        }
        // Flip one bit of the stored data page (physical page 1).
        let mut byte = [0u8; 1];
        let at = PAGE_SIZE as u64 + 17;
        backend.read_at(at, &mut byte).expect("read");
        byte[0] ^= 0x04;
        backend.write_at(at, &byte).expect("write");

        let mut pager = Pager::new(&mut backend).expect("reopen");
        let err = pager.read_page(PageId(0)).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mismatch = checksum_mismatch(&err).expect("typed mismatch");
        assert_eq!(mismatch.page, 0);
        assert_ne!(mismatch.expected, mismatch.actual);
        // The raw path still reads the corrupted bytes (for recovery).
        assert_eq!(pager.read_page_raw(PageId(0)).expect("raw")[17], 0x51);
    }

    #[test]
    fn truncate_logical_shrinks_and_allows_rewrite() {
        let mut backend = MemBackend::new();
        let mut pager = Pager::new(&mut backend).expect("new");
        for i in 0..5u64 {
            let mut page = zeroed_page();
            page[0] = i as u8 + 1;
            pager.write_page(PageId(i), &page).expect("write");
        }
        pager.sync().expect("sync");
        pager.truncate_logical(2).expect("truncate");
        assert_eq!(pager.page_count(), 2);
        assert_eq!(pager.read_page(PageId(1)).expect("read")[0], 2);
        assert!(pager.read_page(PageId(3)).expect("read").iter().all(|&b| b == 0));
        // Re-extending re-records digests for the re-created pages.
        let mut page = zeroed_page();
        page[0] = 0x77;
        pager.write_page(PageId(4), &page).expect("write");
        pager.sync().expect("sync");
        assert_eq!(pager.read_page(PageId(4)).expect("read")[0], 0x77);
        assert!(pager.read_page(PageId(2)).expect("read").iter().all(|&b| b == 0));
    }

    #[test]
    fn checksums_survive_reopen_across_groups() {
        let path = temp("groups");
        let _c = Cleanup(path.clone());
        {
            let mut pager = Pager::open(&path).expect("open");
            let mut page = zeroed_page();
            page[9] = 0x33;
            // Logical 600 lives in group 1 (slots 512..1024).
            pager.write_page(PageId(600), &page).expect("write");
            pager.sync().expect("sync");
        }
        let mut pager = Pager::open(&path).expect("reopen");
        assert_eq!(pager.page_count(), 601);
        assert_eq!(pager.read_page(PageId(600)).expect("read")[9], 0x33);
        assert!(pager.read_page(PageId(100)).expect("read").iter().all(|&b| b == 0));
        assert!(pager.stats().checksum_reads >= 1);
    }

    /// A page of seeded pseudo-random bytes (splitmix64).
    fn random_page(mut seed: u64) -> PageBuf {
        let mut page = zeroed_page();
        for word in page.chunks_exact_mut(8) {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            word.copy_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        page
    }

    #[test]
    fn page_digest_known_answers_are_frozen() {
        // The digest is on-disk format (v2): these values may only change
        // together with the commit magic.
        let zero = zeroed_page();
        assert_eq!(page_digest(&zero), 0xee64_07c6_5487_3310);
        let mut ones = zeroed_page();
        ones.fill(0xFF);
        assert_eq!(page_digest(&ones), 0xeb8d_6cb0_8d6b_253a);
        let mut counting = zeroed_page();
        for (i, b) in counting.iter_mut().enumerate() {
            *b = i as u8;
        }
        assert_eq!(page_digest(&counting), 0xa4f1_82be_6d7b_ccef);
        assert_eq!(
            chain_digest(CHAIN_SEED, page_digest(&zero)),
            0x91b3_b18e_6187_af1a
        );
    }

    #[test]
    fn page_digest_detects_every_single_bit_flip() {
        let mut page = random_page(7);
        let clean = page_digest(&page);
        for bit in 0..PAGE_SIZE * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(page_digest(&page), clean, "flip of bit {bit} went unseen");
            page[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(page_digest(&page), clean);
    }

    #[test]
    fn page_digest_is_order_sensitive_within_and_across_lanes() {
        let page = random_page(11);
        let clean = page_digest(&page);
        let swapped = |a: usize, b: usize| {
            let mut p = page.clone();
            for i in 0..8 {
                p.swap(a * 8 + i, b * 8 + i);
            }
            page_digest(&p)
        };
        // Words 0 and 1 feed different lanes; words 0 and DIGEST_LANES the
        // same lane, one step apart; 5 and 5 + 100 lanes the same, far apart.
        assert_ne!(swapped(0, 1), clean);
        assert_ne!(swapped(0, DIGEST_LANES), clean);
        assert_ne!(swapped(5, 5 + 100 * DIGEST_LANES), clean);
        assert_ne!(swapped(510, 511), clean);
    }

    #[test]
    fn page_digest_is_not_fnv() {
        // A caller still digesting pages with FNV-1a must fail loudly.
        for page in [zeroed_page(), random_page(3)] {
            assert_ne!(page_digest(&page), fnv1a64(&page[..]));
        }
    }

    #[test]
    fn write_run_equals_page_at_a_time_writes() {
        let pages: Vec<PageBuf> = (0..5).map(|i| random_page(100 + i)).collect();
        let run: Vec<u8> = pages.iter().flat_map(|p| p.iter().copied()).collect();
        let mut one = CountingBackend::default();
        let mut many = CountingBackend::default();
        {
            let mut pager = Pager::new(&mut one).expect("new");
            // Starts past the end: pages 0 and 1 are zero-filled first.
            pager.write_run(PageId(2), &run).expect("run");
            assert_eq!(pager.page_count(), 7);
            assert_eq!(pager.stats().writes, 7);
            pager.sync().expect("sync");
            for (i, page) in pages.iter().enumerate() {
                assert_eq!(
                    pager.read_page(PageId(2 + i as u64)).expect("verified"),
                    *page
                );
            }
        }
        {
            let mut pager = Pager::new(&mut many).expect("new");
            for (i, page) in pages.iter().enumerate() {
                pager.write_page(PageId(2 + i as u64), page).expect("write");
            }
            pager.sync().expect("sync");
        }
        // Two gap pages and the checksum page either way; then one write
        // for the run against one per page.
        assert_eq!(one.writes, 2 + 1 + 1);
        assert_eq!(many.writes, 2 + 1 + 5);
        assert_eq!(one.mem, many.mem);
    }

    #[test]
    #[should_panic(expected = "crosses a checksum page")]
    fn write_run_refuses_to_cross_a_checksum_page() {
        let mut pager = Pager::new(MemBackend::new()).expect("new");
        let two = vec![0u8; 2 * PAGE_SIZE];
        let _ = pager.write_run(PageId(GROUP_DATA_PAGES - 1), &two);
    }

    #[test]
    fn fnv1a64_known_vectors() {
        // Reference values for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
