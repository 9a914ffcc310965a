//! Mining a [`ShardedDeployment`] in place: candidate subtrees are dealt
//! across workers (× cores) and every worker counts across *all* shards
//! through a [`ShardedCounter`] — the global support merge happens inside
//! each `CountItemSet`, **before** refinement, so the filter phase makes
//! exactly the decisions an unsharded run makes (see [`crate::gather`]
//! for why the merged estimates are bit-for-bit the unsharded ones).
//!
//! Refinement then streams each shard's heap file in parallel (one
//! sequential scan per shard), summing exact per-shard supports — a
//! disjoint-partition sum, so again exactly the unsharded exact count.

use crate::counter::ShardedCounter;
use crate::deployment::ShardedDeployment;
use crate::gather::sum_columns;
use bbs_core::{run_filter_source_threaded, tally_subsets, Scheme};
use bbs_storage::diskbbs::DiskCounter;
use bbs_storage::mine::DiskMineStats;
use bbs_tdb::{ItemId, Itemset, MineResult, SupportThreshold};
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};

/// A [`ShardedCounter`] over tracked per-shard disk readers: folds every
/// reader's cache/pager/hot counters into a shared accumulator on drop,
/// mirroring the unsharded in-place driver's reporting.
struct TrackedShardedCounter {
    inner: ShardedCounter<DiskCounter>,
    sink: Arc<Mutex<DiskMineStats>>,
}

impl bbs_core::CountSource for TrackedShardedCounter {
    fn count_itemset(&mut self, itemset: &Itemset, tau: u64) -> io::Result<u64> {
        self.inner.count_itemset(itemset, tau)
    }

    fn count_extensions(
        &mut self,
        prefix: &Itemset,
        extensions: &[ItemId],
        tau: u64,
    ) -> io::Result<Vec<u64>> {
        self.inner.count_extensions(prefix, extensions, tau)
    }
}

impl TrackedShardedCounter {
    fn open(dep: &ShardedDeployment, sink: &Arc<Mutex<DiskMineStats>>) -> io::Result<Self> {
        let counters: Vec<DiskCounter> = dep
            .shards()
            .iter()
            .map(|s| s.index.counter())
            .collect::<io::Result<_>>()?;
        Ok(TrackedShardedCounter {
            inner: ShardedCounter::new(counters, dep.shard_rows()),
            sink: Arc::clone(sink),
        })
    }
}

impl Drop for TrackedShardedCounter {
    fn drop(&mut self) {
        let mut s = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        for reader in self.inner.readers() {
            let c = reader.cache_stats();
            s.cache.hits += c.hits;
            s.cache.misses += c.misses;
            s.cache.evictions += c.evictions;
            let p = reader.pager_stats();
            s.pager.reads += p.reads;
            s.pager.writes += p.writes;
            s.pager.checksum_reads += p.checksum_reads;
            s.pager.checksum_writes += p.checksum_writes;
            s.pager.verified += p.verified;
            let h = reader.hot_stats();
            s.hot.pinned += h.pinned;
            s.hot.hits += h.hits;
            s.hot.decodes += h.decodes;
            s.hot.invalidations += h.invalidations;
            s.readers += 1;
        }
    }
}

/// Mines every frequent pattern of a sharded deployment straight off its
/// shard files.  The result — patterns, supports, and which supports are
/// approximate — is identical to an unsharded in-place run (and hence to
/// the in-memory miners) over the same transactions, for any shard count
/// and any thread count.
pub fn mine_sharded(
    dep: &mut ShardedDeployment,
    scheme: Scheme,
    min_support: SupportThreshold,
    threads: usize,
) -> io::Result<(MineResult, DiskMineStats)> {
    dep.flush()?;
    let rows = dep.rows();
    let tau = min_support.resolve(rows as usize);

    // Global vocabulary and exact singleton supports: unions/sums over
    // disjoint TID partitions equal the unsharded values exactly.
    let mut actuals: HashMap<ItemId, u64> = HashMap::new();
    for shard in dep.shards() {
        for (&item, &count) in shard.index.item_counts() {
            *actuals.entry(item).or_insert(0) += count;
        }
    }
    let mut vocab: Vec<ItemId> = actuals.keys().copied().collect();
    vocab.sort_unstable();

    let sink = Arc::new(Mutex::new(DiskMineStats::default()));
    let dep_ref: &ShardedDeployment = dep;
    let make_source = || TrackedShardedCounter::open(dep_ref, &sink);
    let filter_out = run_filter_source_threaded(
        make_source,
        &vocab,
        &actuals,
        rows,
        scheme.filter(),
        tau,
        threads,
    )?;

    // Streaming refinement, one sequential heap scan per shard in
    // parallel; per-shard exact supports of a disjoint partition sum to
    // the global exact support.
    let result = filter_out.settle(tau, |cands| {
        let per_shard: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = dep
                .shards_mut()
                .iter_mut()
                .map(|shard| {
                    scope.spawn(move || -> io::Result<Vec<u64>> {
                        let mut counts = vec![0u64; cands.len()];
                        shard
                            .db
                            .for_each(|_, txn| tally_subsets(cands, &mut counts, &txn.items))?;
                        Ok(counts)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard refinement worker panicked"))
                .collect::<io::Result<_>>()
        })?;
        Ok(sum_columns(&per_shard, cands.len()))
    })?;

    let stats = *sink.lock().unwrap_or_else(|e| e.into_inner());
    Ok((result, stats))
}
