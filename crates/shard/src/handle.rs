//! The shard boundary: a handle the gather layer can scatter a batch
//! through.
//!
//! [`ShardHandle`] is the batch/query seam (what
//! [`crate::count_many_sharded`] scatters over); the mining-worker seam is
//! plain [`bbs_core::CountSource`], one per shard inside a
//! [`crate::ShardedCounter`], and the early-exit τ contract lives there.
//! A handle answers every count exactly.  Both are defined over plain
//! itemsets and `io::Result`, so nothing in the gather layer assumes the
//! bits are on this machine.

use bbs_storage::diskbbs::DiskBbs;
use bbs_tdb::Itemset;
use std::io;

/// One shard of a deployment, as seen by the scatter-gather layer.
pub trait ShardHandle: Sync {
    /// Committed rows this shard holds.
    fn rows(&self) -> u64;

    /// Exact batched `CountItemSet` over this shard's rows.
    fn count_many(&self, itemsets: &[Itemset]) -> io::Result<Vec<u64>>;
}

/// The local-files [`ShardHandle`]: a borrowed view of one shard's index.
///
/// [`DiskBbs`] already serves concurrent readers through its internal
/// locks, so a scatter across shards is also safe *within* a shard.
pub struct DiskShardHandle<'a> {
    index: &'a DiskBbs,
    rows: u64,
}

impl<'a> DiskShardHandle<'a> {
    /// Wraps a shard's index together with its committed row count.
    pub fn new(index: &'a DiskBbs, rows: u64) -> Self {
        DiskShardHandle { index, rows }
    }
}

impl ShardHandle for DiskShardHandle<'_> {
    fn rows(&self) -> u64 {
        self.rows
    }

    fn count_many(&self, itemsets: &[Itemset]) -> io::Result<Vec<u64>> {
        self.index.count_itemsets(itemsets, None)
    }
}
