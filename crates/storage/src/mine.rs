//! Mining [`DiskDeployment`]s **in place**, on all cores: each deployment
//! is one [`MineView`] of [`bbs_core::mine_views`], every tier's MINE.
//!
//! The memory-resident miners load the whole index first; here the filter
//! phase counts straight off the slice file, through one independent
//! [`DiskCounter`] reader per worker (its own page cache and position
//! cache — no shared lock on the read path), and the uncertain candidates
//! settle by one streaming sequential pass over the heap file
//! (`tally_live`), which never materialises the `TransactionDb` in memory.
//!
//! Mining only reads: a deployment with nothing uncommitted is not
//! flushed, so its files and commit sequence are what they were.

use crate::backend::StorageBackend;
use crate::cache::CacheStats;
use crate::del::DeadMask;
use crate::deployment::Deployment;
use crate::diskbbs::{DiskBbs, DiskCounter, DiskDeployment};
use crate::heapfile::HeapFile;
use crate::pager::PagerStats;
use bbs_core::{mine_views, tally_subsets, CursorStats, MineView, Scheme};
use bbs_tdb::{ItemId, Itemset, MineResult, SupportThreshold};
use std::collections::HashMap;
use std::io;
use std::sync::{Mutex, PoisonError};

/// Aggregated read-side counters of one in-place mining run, summed over
/// every reader the run opened (one per worker per deployment).
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskMineStats {
    /// Page-cache counters, summed across readers.
    pub cache: CacheStats,
    /// Physical I/O counters, summed across readers.
    pub pager: PagerStats,
    /// What the readers' cursors did, summed across readers.
    pub cursor: CursorStats,
    /// Readers opened: one per worker (per shard, when sharded).
    pub readers: usize,
}

impl DiskMineStats {
    /// Adds the counters of one reader the run has finished with.
    pub fn absorb(&mut self, reader: &DiskCounter) {
        let c = reader.cache_stats();
        self.cache.hits += c.hits;
        self.cache.misses += c.misses;
        self.cache.evictions += c.evictions;
        let p = reader.pager_stats();
        self.pager.reads += p.reads;
        self.pager.writes += p.writes;
        self.pager.checksum_reads += p.checksum_reads;
        self.pager.checksum_writes += p.checksum_writes;
        self.pager.verified += p.verified;
        let w = reader.cursor_stats();
        self.cursor.extends += w.extends;
        self.cursor.tau_exits += w.tau_exits;
        self.cursor.chunks_skipped += w.chunks_skipped;
        self.cursor.sparse_ands += w.sparse_ands;
        self.readers += 1;
    }

    /// Cache hit rate over all readers, if any page was requested.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.cache.hits + self.cache.misses;
        (total > 0).then(|| self.cache.hits as f64 / total as f64)
    }
}

/// Exact supports of `cands` over the live rows among the first `rows` of
/// `heap`: one sequential scan that skips the rows `dead` names.  This is
/// the one refinement scan — offline, sharded and served mining all settle
/// their uncertain candidates through it.
pub(crate) fn tally_live<B: StorageBackend>(
    heap: &mut HeapFile<B>,
    rows: u64,
    dead: Option<&DeadMask>,
    cands: &[Itemset],
) -> io::Result<Vec<u64>> {
    let mut counts = vec![0u64; cands.len()];
    heap.for_each_prefix(rows, |row, txn| {
        if !dead.is_some_and(|d| d.is_dead(row)) {
            tally_subsets(cands, &mut counts, &txn.items);
        }
    })?;
    Ok(counts)
}

/// One deployment as [`mine_views`] mines it: fresh readers of its slice
/// file, its heap scanned by [`tally_live`], and what every reader did
/// added to the run's `stats`.
struct DiskView<'a> {
    index: &'a DiskBbs,
    heap: Mutex<&'a mut HeapFile>,
    stats: &'a Mutex<DiskMineStats>,
}

impl MineView for DiskView<'_> {
    type Counter<'b>
        = DiskCounter
    where
        Self: 'b;

    fn live_rows(&self) -> u64 {
        self.index.live_rows()
    }

    fn item_counts(&self) -> &HashMap<ItemId, u64> {
        self.index.item_counts()
    }

    fn counter(&self) -> io::Result<DiskCounter> {
        self.index.counter()
    }

    fn tally(&self, cands: &[Itemset]) -> io::Result<Vec<u64>> {
        let mut heap = self.heap.lock().unwrap_or_else(PoisonError::into_inner);
        let rows = heap.len();
        tally_live(&mut heap, rows, self.index.dead_mask().map(|d| &**d), cands)
    }

    fn retire(&self, reader: &DiskCounter) {
        let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        stats.absorb(reader);
    }
}

/// Mines every frequent pattern of a deployment straight off its files:
/// [`mine_deployments`] over it alone.  The patterns are what the
/// in-memory [`bbs_core::BbsMiner`] scheme finds over the surviving rows;
/// Probe schemes refine by the scan too.
pub fn mine_in_place(
    dep: &mut DiskDeployment,
    scheme: Scheme,
    min_support: SupportThreshold,
    threads: usize,
) -> io::Result<(MineResult, DiskMineStats)> {
    mine_deployments(std::slice::from_mut(dep), scheme, min_support, threads)
}

/// Mines every frequent pattern of a [`Deployment`] straight off its
/// partitions' files: [`mine_deployments`] over them.  The result —
/// patterns, supports, and which supports are approximate — is what one
/// partition holding every row finds, for any partition count and any
/// thread count, while the partitions share a width.
pub fn mine_deployment(
    dep: &mut Deployment,
    scheme: Scheme,
    min_support: SupportThreshold,
    threads: usize,
) -> io::Result<(MineResult, DiskMineStats)> {
    mine_deployments(dep.shards_mut(), scheme, min_support, threads)
}

/// Mines the union of the rows of `deps` — disjoint partitions, such as
/// the shards of one directory — as one [`mine_views`] run with one view
/// per deployment.  A deployment with uncommitted appends is flushed first
/// (readers see only flushed state); a clean one is left untouched.
/// Tombstoned rows are in none of it: the threshold resolves against the
/// live rows, the readers mask them out of level 0 and the scans skip
/// them.  The stats sum every reader: one per worker per deployment.
pub fn mine_deployments(
    deps: &mut [DiskDeployment],
    scheme: Scheme,
    min_support: SupportThreshold,
    threads: usize,
) -> io::Result<(MineResult, DiskMineStats)> {
    for dep in deps.iter_mut().filter(|dep| dep.has_uncommitted()) {
        dep.flush()?;
    }
    let stats = Mutex::new(DiskMineStats::default());
    let views: Vec<DiskView<'_>> = deps
        .iter_mut()
        .map(|dep| DiskView {
            index: &dep.index,
            heap: Mutex::new(&mut dep.db),
            stats: &stats,
        })
        .collect();
    let result = mine_views(&views, scheme, min_support, threads)?;
    let stats = *stats.lock().unwrap_or_else(PoisonError::into_inner);
    Ok((result, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_core::BbsMiner;
    use bbs_hash::{ItemHasher, Md5BloomHasher};
    use bbs_tdb::{FrequentPatternMiner, Transaction};
    use std::path::PathBuf;

    fn base(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bbs_mine_{}_{}", std::process::id(), name));
        p
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            DiskDeployment::remove_files(&self.0).ok();
        }
    }

    fn hasher() -> std::sync::Arc<dyn ItemHasher> {
        std::sync::Arc::new(Md5BloomHasher::new(4))
    }

    /// A deterministic 400-transaction database with planted co-occurring
    /// groups so every scheme has frequent k-itemsets to find.
    fn planted(dep: &mut DiskDeployment) {
        for i in 0..400u64 {
            let mut items: Vec<u32> = vec![(i % 25) as u32];
            if i % 3 == 0 {
                items.extend([50, 51]);
            }
            if i % 5 == 0 {
                items.extend([60, 61, 62]);
            }
            if i % 2 == 0 {
                items.push(70 + (i % 4) as u32);
            }
            dep.append(&Transaction::new(i, Itemset::from_values(&items)))
                .expect("append");
        }
    }

    fn canon(r: &MineResult) -> Vec<(Itemset, u64)> {
        let mut v: Vec<(Itemset, u64)> = r.patterns.iter().map(|(k, s)| (k.clone(), s)).collect();
        v.sort();
        v
    }

    #[test]
    fn in_place_matches_memory_miner_for_all_schemes() {
        let b = base("schemes");
        let _g = Cleanup(b.clone());
        let mut dep = DiskDeployment::open(&b, 128, hasher(), 1024).expect("open");
        planted(&mut dep);
        dep.flush().expect("flush");
        let db = dep.db.load().expect("load db");
        let threshold = SupportThreshold::Count(40);
        for scheme in [Scheme::Sfs, Scheme::Sfp, Scheme::Dfs, Scheme::Dfp] {
            let bbs = dep.index.load().expect("load index");
            let mem = BbsMiner::with_index(scheme, bbs).mine(&db, threshold);
            let (disk, stats) =
                mine_in_place(&mut dep, scheme, threshold, 1).expect("mine in place");
            assert_eq!(canon(&disk), canon(&mem), "{scheme:?}");
            assert_eq!(disk.approx_supports, mem.approx_supports, "{scheme:?}");
            assert!(stats.readers >= 1);
            assert!(stats.cache.hits + stats.cache.misses > 0);
        }
    }

    #[test]
    fn threaded_matches_serial_after_crash_recovery_round_trip() {
        let b = base("crash_round_trip");
        let _g = Cleanup(b.clone());
        {
            let mut dep = DiskDeployment::open(&b, 128, hasher(), 1024).expect("open");
            planted(&mut dep);
            dep.flush().expect("flush");
            // Crash with un-flushed extra rows: they must not influence any
            // later mining run.
            for i in 0..37u64 {
                dep.append(&Transaction::new(1000 + i, Itemset::from_values(&[50, 51, 60])))
                    .expect("append");
            }
            // Dropped without flush — the commit record still says 400 rows.
        }
        let mut dep = DiskDeployment::open(&b, 128, hasher(), 1024).expect("reopen");
        assert_eq!(dep.db.len(), 400, "recovery rolled back to the commit");
        let threshold = SupportThreshold::percent(8.0);
        let (serial, _) = mine_in_place(&mut dep, Scheme::Dfs, threshold, 1).expect("serial");
        for threads in [2, 4, 9] {
            let (threaded, stats) =
                mine_in_place(&mut dep, Scheme::Dfs, threshold, threads).expect("threaded");
            assert_eq!(canon(&threaded), canon(&serial), "threads={threads}");
            assert_eq!(threaded.approx_supports, serial.approx_supports);
            assert!(stats.readers > 1, "threads={threads} used {} readers", stats.readers);
        }
        // And the refined output agrees with the in-memory miner too.
        let db = dep.db.load().expect("load db");
        let bbs = dep.index.load().expect("load index");
        let mem = BbsMiner::with_index(Scheme::Dfs, bbs).mine(&db, threshold);
        assert_eq!(canon(&serial), canon(&mem));
    }

    #[test]
    fn stats_accumulate_and_cursor_counters_engage() {
        let b = base("stats");
        let _g = Cleanup(b.clone());
        let mut dep = DiskDeployment::open(&b, 64, hasher(), 256).expect("open");
        planted(&mut dep);
        let (_, stats) =
            mine_in_place(&mut dep, Scheme::Sfs, SupportThreshold::Count(30), 2).expect("mine");
        assert!(stats.cache.misses > 0, "cold reads happened: {stats:?}");
        assert!(stats.pager.reads > 0);
        assert!(stats.pager.verified > 0, "checksums were verified: {stats:?}");
        assert!(stats.hit_rate().is_some());
        assert_eq!(stats.readers, 2);
        assert!(stats.cursor.extends > 0, "the walk descended: {stats:?}");
        assert!(
            stats.cursor.tau_exits > 0,
            "rare siblings were decided before their last slice: {stats:?}"
        );
        // One chunk, and a node is only descended into with ≥ τ ones in it
        // (the multi-chunk cases are `tests/disk_cursor.rs`).
        assert_eq!(stats.cursor.chunks_skipped, 0, "{stats:?}");
    }

    /// Every file of the deployment at `base`, byte for byte (`None` for
    /// the ones a never-served deployment does not have).
    fn file_bytes(base: &std::path::Path) -> Vec<Option<Vec<u8>>> {
        let p = crate::diskbbs::deployment_paths(base);
        [p.dat, p.idx, p.slices, p.counts, p.commit, p.dedup, p.log, p.del]
            .iter()
            .map(|path| std::fs::read(path).ok())
            .collect()
    }

    #[test]
    fn mining_a_clean_deployment_writes_nothing() {
        let b = base("read_only");
        let _g = Cleanup(b.clone());
        {
            let mut dep = DiskDeployment::open(&b, 64, hasher(), 256).expect("open");
            planted(&mut dep);
            dep.flush().expect("flush");
        }
        let mut dep = DiskDeployment::open(&b, 64, hasher(), 256).expect("reopen");
        let (seq, before) = (dep.committed_seq(), file_bytes(&b));
        assert!(before.iter().flatten().count() >= 5, "the files were found");
        let threshold = SupportThreshold::Count(30);
        let (clean, _) = mine_in_place(&mut dep, Scheme::Dfp, threshold, 2).expect("mine");
        assert_eq!(dep.committed_seq(), seq, "no commit record was appended");
        assert_eq!(file_bytes(&b), before, "no file changed");

        // Uncommitted appends are still committed before the readers open.
        for i in 0..40u64 {
            dep.append(&Transaction::new(400 + i, Itemset::from_values(&[90, 91])))
                .expect("append");
        }
        let (grown, _) = mine_in_place(&mut dep, Scheme::Dfp, threshold, 2).expect("mine grown");
        assert_eq!(dep.committed_seq(), seq + 1, "the appends were flushed once");
        assert_eq!(dep.committed_rows(), 440);
        let pair = Itemset::from_values(&[90, 91]);
        assert_eq!(clean.patterns.support(&pair), None);
        assert_eq!(grown.patterns.support(&pair), Some(40));
    }

    /// Every file in the directory `dir`, by name, byte for byte.
    fn dir_bytes(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("read dir")
            .map(|entry| {
                let path = entry.expect("dir entry").path();
                let bytes = std::fs::read(&path).expect("read file");
                (path, bytes)
            })
            .collect();
        files.sort();
        files
    }

    /// Mining reads: a freshly opened partition directory keeps every
    /// file's bytes and every partition's commit sequence, and only the
    /// partitions that hold uncommitted appends are flushed first.
    #[test]
    fn mining_commits_only_the_shards_with_uncommitted_rows() {
        let dir = base("shards_ro");
        struct RemoveDir(PathBuf);
        impl Drop for RemoveDir {
            fn drop(&mut self) {
                Deployment::remove_files(&self.0).ok();
            }
        }
        let _g = RemoveDir(dir.clone());
        let seqs = |dep: &Deployment| -> Vec<u64> {
            dep.shards().iter().map(|s| s.committed_seq()).collect()
        };
        {
            let mut dep = Deployment::create(&dir, 3, 64, hasher(), 64).expect("create");
            for i in 0..300u64 {
                let items = [(i % 7) as u32, 20 + (i % 2) as u32, 30];
                dep.append(&Transaction::new(i, Itemset::from_values(&items)))
                    .expect("append");
            }
            dep.flush().expect("flush");
        }
        let mut dep = Deployment::open(&dir, hasher(), 64).expect("reopen");
        let (before, files) = (seqs(&dep), dir_bytes(&dir));
        assert!(files.len() > 3 * 5, "the shards' files were found");
        let threshold = SupportThreshold::Count(25);
        let (clean, _) = mine_deployment(&mut dep, Scheme::Dfp, threshold, 2).expect("mine");
        assert_eq!(seqs(&dep), before, "no commit record was appended");
        assert_eq!(dir_bytes(&dir), files, "no file changed");

        // TIDs ≡ 1 (mod 3) land on shard 1 alone.
        for i in 0..40u64 {
            dep.append(&Transaction::new(301 + 3 * i, Itemset::from_values(&[90, 91])))
                .expect("append");
        }
        let (grown, _) = mine_deployment(&mut dep, Scheme::Dfp, threshold, 2).expect("mine grown");
        assert_eq!(seqs(&dep), [before[0], before[1] + 1, before[2]]);
        let pair = Itemset::from_values(&[90, 91]);
        assert_eq!(clean.patterns.support(&pair), None);
        assert_eq!(grown.patterns.support(&pair), Some(40));
    }
}
