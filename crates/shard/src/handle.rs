//! The shard boundary: a handle a router can scatter queries through.
//!
//! [`ShardHandle`] is the batch/query seam (what `count`/`count_many`
//! scatter over); the mining-worker seam is plain
//! [`bbs_core::CountSource`], one per shard inside a
//! [`crate::ShardedCounter`].  Both are defined over plain itemsets and
//! `io::Result` so an implementation can be a local file stack, a live
//! engine snapshot, or a remote node: nothing in the gather layer assumes
//! the bits are on this machine.
//!
//! # The per-shard τ contract
//!
//! Every counting method inherits the early-exit contract of
//! [`bbs_core::CountSource`], per shard: with `tau = Some(t)` the returned
//! value must be exact whenever it is `≥ t` and may be any **upper bound**
//! on the shard's exact estimate when it is `< t`; with `tau = None` the
//! value is always exact.  A value of `0` is therefore always exact (it is
//! an upper bound of a non-negative count).  The gather layer leans on
//! exactly this contract to keep cross-shard sums τ-consistent.

use bbs_storage::diskbbs::DiskBbs;
use bbs_tdb::Itemset;
use std::io;

/// One shard of a deployment, as seen by the scatter-gather router.
pub trait ShardHandle: Sync {
    /// Committed rows this shard holds.
    fn rows(&self) -> u64;

    /// Batched `CountItemSet` over this shard's rows, under the per-shard
    /// τ contract (see the module docs).
    fn count_many(&self, itemsets: &[Itemset], tau: Option<u64>) -> io::Result<Vec<u64>>;
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

    fn count_many(&self, itemsets: &[Itemset], tau: Option<u64>) -> io::Result<Vec<u64>> {
        self.index.count_itemsets(itemsets, tau)
    }
}
