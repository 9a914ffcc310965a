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
use crate::gather::{sum_columns, sum_item_counts};
use bbs_core::{run_filter_source_threaded, tally_subsets, Scheme};
use bbs_storage::mine::DiskMineStats;
use bbs_tdb::{MineResult, SupportThreshold};
use std::io;

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
    let tau = min_support.resolve(dep.rows() as usize);
    let actuals = sum_item_counts(dep.shards().iter().map(|s| s.index.item_counts()));

    // Every worker owns one reader per shard.
    let make_source = || {
        let readers = dep.shards().iter().map(|s| s.index.counter());
        Ok(ShardedCounter::new(
            readers.collect::<io::Result<_>>()?,
            dep.shard_rows(),
        ))
    };
    let (filter_out, counters) =
        run_filter_source_threaded(make_source, &actuals, scheme.filter(), tau, threads)?;
    let mut stats = DiskMineStats::default();
    for reader in counters.iter().flat_map(ShardedCounter::readers) {
        stats.absorb(reader);
    }

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
    Ok((result, stats))
}
