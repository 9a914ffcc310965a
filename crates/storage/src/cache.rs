//! A bounded LRU page cache over a [`Pager`].
//!
//! This is what turns the paper's memory axis (Fig. 11) into real
//! behaviour: a mining run against disk-backed structures sees hits while
//! its working set fits the cache and physical reads once it does not.
//!
//! Replacement is **exact** LRU in O(1): resident frames live in a slab
//! and are threaded, most- to least-recently used, on an intrusive doubly
//! linked list of slab indices.  A hit is one map probe plus a relink; a
//! miss takes the list's tail frame, writes it back if dirty, and reads
//! the new page straight into the frame's buffer — once the slab has
//! grown to capacity no access allocates.

use crate::backend::{FileBackend, StorageBackend};
use crate::pager::{phys_of, zeroed_page, PageBuf, PageId, Pager, PAGE_SIZE};
use std::collections::HashMap;
use std::io;

/// Cache hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from memory.
    pub hits: u64,
    /// Requests that required a physical read.
    pub misses: u64,
    /// Pages evicted (dirty evictions force a physical write).
    pub evictions: u64,
}

/// Most pages one write-back run carries to the backend in a single
/// write: the size of the staging buffer a flushing cache keeps (256 KiB).
pub const MAX_RUN_PAGES: usize = 64;

/// "No frame" in the LRU links.
const NIL: usize = usize::MAX;

struct Frame {
    id: PageId,
    buf: PageBuf,
    dirty: bool,
    /// Neighbour towards the most recently used end.
    prev: usize,
    /// Neighbour towards the least recently used end.
    next: usize,
}

/// An LRU page cache with a fixed capacity in pages.
pub struct PageCache<B: StorageBackend = FileBackend> {
    pager: Pager<B>,
    /// Resident page → its slot in `frames`.
    slots: HashMap<PageId, usize>,
    /// The frame slab; grows to `capacity`, then frames are recycled.
    frames: Vec<Frame>,
    /// Most recently used resident frame.
    head: usize,
    /// Least recently used resident frame: the next victim.
    tail: usize,
    /// Frames holding no page: their page was evicted and the read that
    /// should have refilled them failed.
    free: Vec<usize>,
    capacity: usize,
    stats: CacheStats,
    /// Where [`PageCache::flush`] lays the pages of a run end to end:
    /// as long as the longest run written so far, at most
    /// [`MAX_RUN_PAGES`] pages.
    staging: Vec<u8>,
}

impl<B: StorageBackend> PageCache<B> {
    /// Wraps a pager with a cache of `capacity` pages (min 1).
    pub fn new(pager: Pager<B>, capacity: usize) -> Self {
        PageCache {
            pager,
            slots: HashMap::new(),
            frames: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            capacity: capacity.max(1),
            stats: CacheStats::default(),
            staging: Vec::new(),
        }
    }

    /// Cache capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cache counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Physical I/O counters of the underlying pager.
    pub fn pager_stats(&self) -> crate::pager::PagerStats {
        self.pager.stats()
    }

    /// Number of pages in the backing file.
    pub fn page_count(&self) -> u64 {
        self.pager.page_count()
    }

    /// Takes `slot` out of the LRU list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = {
            let frame = &self.frames[slot];
            (frame.prev, frame.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.frames[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.frames[n].prev = prev,
        }
    }

    /// Links `slot` in as the most recently used frame.
    fn push_front(&mut self, slot: usize) {
        let old = self.head;
        let frame = &mut self.frames[slot];
        frame.prev = NIL;
        frame.next = old;
        match old {
            NIL => self.tail = slot,
            h => self.frames[h].prev = slot,
        }
        self.head = slot;
    }

    /// Makes `id` resident and most recently used; returns its frame.
    fn ensure_resident(&mut self, id: PageId) -> io::Result<&mut Frame> {
        let slot = match self.slots.get(&id) {
            Some(&slot) => {
                self.stats.hits += 1;
                if self.head != slot {
                    self.unlink(slot);
                    self.push_front(slot);
                }
                slot
            }
            None => {
                self.stats.misses += 1;
                self.load(id)?
            }
        };
        Ok(&mut self.frames[slot])
    }

    /// The miss path: finds a frame for `id` — an unused one while the
    /// cache is below capacity, else the least recently used — and reads
    /// the page into it.
    fn load(&mut self, id: PageId) -> io::Result<usize> {
        let slot = if let Some(slot) = self.free.pop() {
            slot
        } else if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                id,
                buf: zeroed_page(),
                dirty: false,
                prev: NIL,
                next: NIL,
            });
            self.frames.len() - 1
        } else {
            let slot = self.tail;
            let victim = &mut self.frames[slot];
            if victim.dirty {
                // Written back while still resident: if the write fails,
                // the dirty page stays cached and the write is retried by
                // the next eviction or flush.
                self.pager.write_page(victim.id, &victim.buf)?;
                victim.dirty = false;
            }
            self.slots.remove(&victim.id);
            self.unlink(slot);
            self.stats.evictions += 1;
            slot
        };
        let frame = &mut self.frames[slot];
        if let Err(e) = self.pager.read_page_into(id, &mut frame.buf) {
            self.free.push(slot);
            return Err(e);
        }
        frame.id = id;
        self.slots.insert(id, slot);
        self.push_front(slot);
        Ok(slot)
    }

    /// Reads bytes from a page through the cache.
    ///
    /// # Panics
    /// Panics if `offset + out.len()` exceeds the page size.
    pub fn read_at(&mut self, id: PageId, offset: usize, out: &mut [u8]) -> io::Result<()> {
        assert!(offset + out.len() <= PAGE_SIZE, "read crosses page boundary");
        let frame = self.ensure_resident(id)?;
        out.copy_from_slice(&frame.buf[offset..offset + out.len()]);
        Ok(())
    }

    /// Writes bytes into a page through the cache (write-back).
    ///
    /// # Panics
    /// Panics if `offset + data.len()` exceeds the page size.
    pub fn write_at(&mut self, id: PageId, offset: usize, data: &[u8]) -> io::Result<()> {
        assert!(
            offset + data.len() <= PAGE_SIZE,
            "write crosses page boundary"
        );
        self.update(id, |page| {
            page[offset..offset + data.len()].copy_from_slice(data)
        })
    }

    /// Runs a closure over a page's bytes without copying them out.
    pub fn with_page<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> io::Result<R> {
        Ok(f(&self.ensure_resident(id)?.buf))
    }

    /// Runs a closure over a page's bytes **in place** and marks the page
    /// dirty (write-back) — the mutable twin of [`PageCache::with_page`].
    pub fn update<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> io::Result<R> {
        let frame = self.ensure_resident(id)?;
        frame.dirty = true;
        Ok(f(&mut frame.buf))
    }

    /// Batched fetch: makes every page in `ids` resident (in order), so
    /// subsequent [`PageCache::with_page`] calls on them are guaranteed
    /// hits.  Only sound as a batch when `ids.len() < capacity`; with a
    /// smaller cache the early pages may be evicted again and the caller
    /// degrades to page-at-a-time residency (still correct, just thrashy).
    pub fn prefetch(&mut self, ids: &[PageId]) -> io::Result<()> {
        for &id in ids {
            self.ensure_resident(id)?;
        }
        Ok(())
    }

    /// Writes all dirty pages back and syncs the file.
    ///
    /// Dirty pages leave in ascending page order, grouped into **runs**
    /// of physically adjacent pages (a checksum page every 512 data pages
    /// ends a run, as does [`MAX_RUN_PAGES`]); each run is one backend
    /// write.  A page is marked clean only once its run was written.
    pub fn flush(&mut self) -> io::Result<()> {
        let mut dirty: Vec<(PageId, usize)> = self
            .frames
            .iter()
            .enumerate()
            .filter(|(_, frame)| frame.dirty)
            .map(|(slot, frame)| (frame.id, slot))
            .collect();
        dirty.sort_unstable();
        let mut rest = &dirty[..];
        while let Some(&(first, _)) = rest.first() {
            let len = 1 + rest
                .windows(2)
                .take(MAX_RUN_PAGES - 1)
                .take_while(|w| phys_of(w[1].0 .0) == phys_of(w[0].0 .0) + 1)
                .count();
            let (run, tail) = rest.split_at(len);
            self.staging.clear();
            for &(_, slot) in run {
                self.staging.extend_from_slice(&self.frames[slot].buf[..]);
            }
            self.pager.write_run(first, &self.staging)?;
            for &(_, slot) in run {
                self.frames[slot].dirty = false;
            }
            rest = tail;
        }
        self.pager.sync()
    }
}

impl<B: StorageBackend> Drop for PageCache<B> {
    fn drop(&mut self) {
        // Best-effort write-back; errors on drop cannot be reported.
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CountingBackend, FaultPlan, MemBackend, WriteFault};

    fn temp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bbs_cache_{}_{}", std::process::id(), name));
        p
    }

    struct Cleanup(std::path::PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    fn cache(name: &str, capacity: usize) -> (PageCache, Cleanup) {
        let path = temp(name);
        let cleanup = Cleanup(path.clone());
        let pager = Pager::open(&path).expect("open");
        (PageCache::new(pager, capacity), cleanup)
    }

    #[test]
    fn read_own_writes() {
        let (mut c, _g) = cache("rw", 4);
        c.write_at(PageId(0), 10, b"hello").expect("write");
        let mut buf = [0u8; 5];
        c.read_at(PageId(0), 10, &mut buf).expect("read");
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let (mut c, _g) = cache("hitmiss", 4);
        let mut buf = [0u8; 1];
        c.read_at(PageId(0), 0, &mut buf).expect("read");
        c.read_at(PageId(0), 1, &mut buf).expect("read");
        c.read_at(PageId(1), 0, &mut buf).expect("read");
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let (mut c, _g) = cache("lru", 2);
        let mut buf = [0u8; 1];
        c.read_at(PageId(0), 0, &mut buf).expect("read"); // miss
        c.read_at(PageId(1), 0, &mut buf).expect("read"); // miss
        c.read_at(PageId(0), 0, &mut buf).expect("read"); // hit, 0 is MRU
        c.read_at(PageId(2), 0, &mut buf).expect("read"); // miss, evicts 1
        assert_eq!(c.stats().evictions, 1);
        c.read_at(PageId(0), 0, &mut buf).expect("read"); // still cached
        assert_eq!(c.stats().hits, 2);
        c.read_at(PageId(1), 0, &mut buf).expect("read"); // miss again
        assert_eq!(c.stats().misses, 4);
    }

    #[test]
    fn dirty_eviction_persists_data() {
        let (mut c, _g) = cache("dirty", 1);
        c.write_at(PageId(0), 0, b"persist-me").expect("write");
        // Touching another page evicts page 0, forcing the write-back.
        let mut buf = [0u8; 1];
        c.read_at(PageId(5), 0, &mut buf).expect("read");
        assert_eq!(c.pager_stats().writes, 1);
        // Reading page 0 again fetches the persisted bytes.
        let mut got = [0u8; 10];
        c.read_at(PageId(0), 0, &mut got).expect("read");
        assert_eq!(&got, b"persist-me");
    }

    #[test]
    fn flush_then_reopen() {
        let path = temp("flush_reopen");
        let _g = Cleanup(path.clone());
        {
            let pager = Pager::open(&path).expect("open");
            let mut c = PageCache::new(pager, 4);
            c.write_at(PageId(1), 0, b"durable").expect("write");
            c.flush().expect("flush");
        }
        let pager = Pager::open(&path).expect("reopen");
        let mut c = PageCache::new(pager, 4);
        let mut got = [0u8; 7];
        c.read_at(PageId(1), 0, &mut got).expect("read");
        assert_eq!(&got, b"durable");
    }

    /// xorshift64*: the seeded stream behind the model test.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % n
        }
    }

    /// The obvious LRU: a `Vec` of resident pages, most recent first.
    struct NaiveLru {
        resident: Vec<u64>,
        capacity: usize,
        stats: CacheStats,
    }

    impl NaiveLru {
        /// Touches `id`; returns the page this evicted, if any.
        fn touch(&mut self, id: u64) -> Option<u64> {
            let mut victim = None;
            match self.resident.iter().position(|&p| p == id) {
                Some(at) => {
                    self.stats.hits += 1;
                    self.resident.remove(at);
                }
                None => {
                    self.stats.misses += 1;
                    if self.resident.len() == self.capacity {
                        victim = self.resident.pop();
                        self.stats.evictions += 1;
                    }
                }
            }
            self.resident.insert(0, id);
            victim
        }
    }

    /// The cache's resident pages in list order, most recent first.
    fn lru_order<B: StorageBackend>(c: &PageCache<B>) -> Vec<u64> {
        let mut order = Vec::new();
        let mut at = c.head;
        while at != NIL {
            order.push(c.frames[at].id.0);
            at = c.frames[at].next;
        }
        order
    }

    #[test]
    fn matches_a_naive_lru_op_for_op() {
        const OPS: usize = 100_000;
        for capacity in [1usize, 2, 7, 2048] {
            let pages = (capacity as u64 * 3 / 2).max(4);
            let pager = Pager::new(MemBackend::new()).expect("new");
            let mut cache = PageCache::new(pager, capacity);
            let mut model = NaiveLru {
                resident: Vec::new(),
                capacity,
                stats: CacheStats::default(),
            };
            // What each page's first byte must read as, evictions or not.
            let mut content = vec![0u8; pages as usize];
            let mut rng = Rng(0x5eed_0000 + capacity as u64);
            for op in 0..OPS {
                // Mostly a hot quarter of the pages, so hits, misses and
                // evictions all occur at every capacity.
                let id = match rng.below(4) {
                    0 => rng.below(pages),
                    _ => rng.below(pages.div_ceil(4)),
                };
                let victim = model.touch(id);
                match rng.below(4) {
                    0 => {
                        let v = rng.below(256) as u8;
                        content[id as usize] = v;
                        cache.write_at(PageId(id), 0, &[v]).expect("write");
                    }
                    1 => {
                        let v = cache
                            .update(PageId(id), |page| {
                                page[0] = page[0].wrapping_add(1);
                                page[0]
                            })
                            .expect("update");
                        content[id as usize] = content[id as usize].wrapping_add(1);
                        assert_eq!(v, content[id as usize]);
                    }
                    2 => {
                        let v = cache.with_page(PageId(id), |page| page[0]).expect("with");
                        assert_eq!(v, content[id as usize], "page {id} at op {op}");
                    }
                    _ => {
                        let mut b = [0u8; 1];
                        cache.read_at(PageId(id), 0, &mut b).expect("read");
                        assert_eq!(b[0], content[id as usize], "page {id} at op {op}");
                    }
                }
                assert_eq!(cache.stats(), model.stats, "capacity {capacity}, op {op}");
                if let Some(victim) = victim {
                    assert!(
                        !cache.slots.contains_key(&PageId(victim)),
                        "capacity {capacity}, op {op}: victim {victim} still resident"
                    );
                }
                if op % 997 == 0 || op == OPS - 1 {
                    assert_eq!(
                        lru_order(&cache),
                        model.resident,
                        "capacity {capacity}, op {op}"
                    );
                    assert_eq!(cache.slots.len(), model.resident.len());
                }
            }
            assert!(model.stats.evictions > 0 && model.stats.hits > 0);
        }
    }

    #[test]
    fn failed_eviction_write_back_keeps_the_dirty_page() {
        let plan = FaultPlan::counting();
        let pager = Pager::new(plan.wrap("f", MemBackend::new())).expect("new");
        let mut c = PageCache::new(pager, 1);
        c.write_at(PageId(0), 0, b"precious").expect("write");
        // The next physical operation is the eviction's write-back.
        plan.fail_write_at(plan.ops(), WriteFault::DiskFull);
        let mut buf = [0u8; 1];
        let err = c
            .read_at(PageId(5), 0, &mut buf)
            .expect_err("write-back fails");
        assert!(crate::backend::is_disk_full(&err));
        assert_eq!(c.stats().evictions, 0, "nothing was evicted");
        assert_eq!(c.pager_stats().writes, 0);
        // Still resident, still the only copy: a hit, not a read.
        let mut got = [0u8; 8];
        c.read_at(PageId(0), 0, &mut got).expect("still cached");
        assert_eq!(&got, b"precious");
        assert_eq!(c.stats().hits, 1);
        // The fault was transient: the retry evicts and persists it.
        c.read_at(PageId(5), 0, &mut buf).expect("retry");
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.pager_stats().writes, 1);
        c.read_at(PageId(0), 0, &mut got).expect("read back");
        assert_eq!(&got, b"precious");
    }

    #[test]
    fn failed_read_after_eviction_leaks_no_frame() {
        let plan = FaultPlan::counting();
        let pager = Pager::new(plan.wrap("f", MemBackend::new())).expect("new");
        let mut c = PageCache::new(pager, 2);
        for id in 0..3u64 {
            c.write_at(PageId(id), 0, &[id as u8 + 1]).expect("write");
        }
        c.flush().expect("flush");
        let mut buf = [0u8; 1];
        c.read_at(PageId(0), 0, &mut buf).expect("read");
        c.read_at(PageId(1), 0, &mut buf).expect("read");
        // Page 2 now reads back corrupt: the miss evicts page 0 and then
        // fails verification, leaving a frame with no page in it.
        plan.flip_bit("f", crate::pager::phys_of(2) * PAGE_SIZE as u64 + 9, 2);
        let before = c.stats();
        let err = c.read_at(PageId(2), 0, &mut buf).expect_err("corrupt");
        assert!(crate::pager::checksum_mismatch(&err).is_some());
        assert_eq!(c.stats().evictions, before.evictions + 1);
        // That frame is reused — both pages fit again without evicting.
        c.read_at(PageId(0), 0, &mut buf).expect("refill");
        assert_eq!(buf[0], 1);
        assert_eq!(c.stats().evictions, before.evictions + 1);
        let hits = c.stats().hits;
        c.read_at(PageId(1), 0, &mut buf).expect("still cached");
        c.read_at(PageId(0), 0, &mut buf).expect("still cached");
        assert_eq!(c.stats().hits, hits + 2, "capacity 2 is still reachable");
    }

    /// Materialises pages `0..pages`, then dirties `dirty` and writes them
    /// back — through a cache's `flush` or page by page — and returns the
    /// file with the number of backend writes the write-back took.
    fn write_back(pages: u64, dirty: &[u64], through_cache: bool) -> (MemBackend, u64) {
        let mut backend = CountingBackend::default();
        {
            let mut pager = Pager::new(&mut backend).expect("new");
            for id in 0..pages {
                let mut page = crate::pager::zeroed_page();
                page[..8].copy_from_slice(&id.to_le_bytes());
                pager.write_page(PageId(id), &page).expect("write");
            }
            pager.sync().expect("sync");
        }
        let before = backend.writes;
        let stamp = |page: &mut [u8; PAGE_SIZE]| page[100..108].fill(0xD1);
        if through_cache {
            let pager = Pager::new(&mut backend).expect("reopen");
            let mut cache = PageCache::new(pager, dirty.len().max(1));
            // Dirtied in descending order: write-back must sort.
            for &id in dirty.iter().rev() {
                cache.update(PageId(id), stamp).expect("update");
            }
            cache.flush().expect("flush");
        } else {
            let mut pager = Pager::new(&mut backend).expect("reopen");
            for &id in dirty {
                let mut page = pager.read_page(PageId(id)).expect("read");
                stamp(&mut page);
                pager.write_page(PageId(id), &page).expect("write");
            }
            pager.sync().expect("sync");
        }
        let writes = backend.writes - before;
        (backend.mem, writes)
    }

    #[test]
    fn flush_coalesces_runs_and_writes_the_same_bytes() {
        let long: Vec<u64> = (10..10 + MAX_RUN_PAGES as u64 + 36).collect();
        // (dirty pages, runs they form, checksum pages they touch)
        let cases: [(&[u64], u64, u64); 5] = [
            (&[7], 1, 1),
            (&[3, 4, 6, 7], 2, 1),
            // Logical 511 and 512 are neighbours with a checksum page
            // between them on disk.
            (&[510, 511, 512, 513], 2, 2),
            (&[0, 1, 2, 511, 512, 600], 4, 2),
            (&long, 2, 1),
        ];
        for (dirty, runs, checksum_pages) in cases {
            let (coalesced, writes) = write_back(700, dirty, true);
            let (reference, reference_writes) = write_back(700, dirty, false);
            assert_eq!(coalesced, reference, "dirty set {dirty:?}");
            assert_eq!(writes, runs + checksum_pages, "dirty set {dirty:?}");
            assert_eq!(reference_writes, dirty.len() as u64 + checksum_pages);
        }
    }

    #[test]
    #[should_panic(expected = "crosses page boundary")]
    fn cross_page_read_panics() {
        let (mut c, _g) = cache("cross", 2);
        let mut buf = [0u8; 8];
        c.read_at(PageId(0), PAGE_SIZE - 4, &mut buf).expect("read");
    }
}
