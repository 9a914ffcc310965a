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
//!
//! Tombstoned rows are in none of it: the threshold resolves against the
//! live rows, every reader masks its shard's dead rows out of level 0, the
//! live rows are each shard's bound in the cross-shard running total, and
//! the scans skip them.

use crate::counter::ShardedCounter;
use crate::deployment::ShardedDeployment;
use crate::gather::{sum_columns, sum_item_counts};
use bbs_core::{run_filter_source_threaded, Scheme};
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
    dep.flush_uncommitted()?;
    let live_rows: Vec<u64> = dep.shards().iter().map(|s| s.live_rows()).collect();
    let tau = min_support.resolve(live_rows.iter().sum::<u64>() as usize);
    let actuals = sum_item_counts(dep.shards().iter().map(|s| s.index.item_counts()));

    // Every worker owns one reader per shard.
    let make_source = || {
        let readers = dep.shards().iter().map(|s| s.index.counter());
        Ok(ShardedCounter::new(
            readers.collect::<io::Result<_>>()?,
            live_rows.clone(),
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
                    scope.spawn(move || shard.tally(cands))
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

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_hash::{ItemHasher, Md5BloomHasher};
    use bbs_tdb::{Itemset, Transaction};
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    fn hasher() -> Arc<dyn ItemHasher> {
        Arc::new(Md5BloomHasher::new(3))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            ShardedDeployment::remove_files(&self.0).ok();
        }
    }

    /// Every file in the shard directory, by name, byte for byte.
    fn dir_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
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

    fn seqs(dep: &ShardedDeployment) -> Vec<u64> {
        dep.shards().iter().map(|s| s.committed_seq()).collect()
    }

    /// Mining reads: a freshly opened sharded deployment keeps every
    /// file's bytes and every shard's commit sequence, and only the shards
    /// that hold uncommitted appends are flushed first.
    #[test]
    fn mining_commits_only_the_shards_with_uncommitted_rows() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("bbs_shard_mine_ro_{}", std::process::id()));
        let _g = Cleanup(dir.clone());
        {
            let mut dep = ShardedDeployment::create(&dir, 3, 64, hasher(), 64).expect("create");
            for i in 0..300u64 {
                let items = [(i % 7) as u32, 20 + (i % 2) as u32, 30];
                dep.append(&Transaction::new(i, Itemset::from_values(&items)))
                    .expect("append");
            }
            dep.flush().expect("flush");
        }
        let mut dep = ShardedDeployment::open(&dir, hasher(), 64).expect("reopen");
        let (before, files) = (seqs(&dep), dir_bytes(&dir));
        assert!(files.len() > 3 * 5, "the shards' files were found");
        let threshold = SupportThreshold::Count(25);
        let (clean, _) = mine_sharded(&mut dep, Scheme::Dfp, threshold, 2).expect("mine");
        assert_eq!(seqs(&dep), before, "no commit record was appended");
        assert_eq!(dir_bytes(&dir), files, "no file changed");

        // TIDs ≡ 1 (mod 3) land on shard 1 alone.
        for i in 0..40u64 {
            dep.append(&Transaction::new(301 + 3 * i, Itemset::from_values(&[90, 91])))
                .expect("append");
        }
        let (grown, _) = mine_sharded(&mut dep, Scheme::Dfp, threshold, 2).expect("mine grown");
        assert_eq!(seqs(&dep), [before[0], before[1] + 1, before[2]]);
        let pair = Itemset::from_values(&[90, 91]);
        assert_eq!(clean.patterns.support(&pair), None);
        assert_eq!(grown.patterns.support(&pair), Some(40));
    }
}
