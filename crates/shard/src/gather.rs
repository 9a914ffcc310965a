//! Scatter-gather counting across shards.
//!
//! # Why the sums are exact (the additive Lemma 1–4 argument)
//!
//! A BBS estimate is `popcount(AND of the selected slices)` — a sum over
//! rows of a 0/1 predicate.  TID routing partitions the rows into
//! disjoint shards, and while every shard hashes items with the same
//! hasher at the same width, row `r`'s signature is identical wherever it
//! lives.  Summing per-shard `CountItemSet` results is then *exactly* the
//! unsharded estimate — not an approximation of it.  At mixed widths the
//! sum is still a sum of per-shard upper bounds, so the estimate's
//! guarantee (Lemmas 1–4: never undercounts the true support) holds
//! either way.
//!
//! Every count here is exact.  Early exit is the filter phase's device,
//! and its cross-shard τ scheme lives with the implementation mining
//! uses, [`bbs_core::counter`].

use crate::handle::ShardHandle;
use bbs_core::{scatter, sum_columns};
use bbs_tdb::Itemset;
use std::io;

/// Batches at or below this size are answered shard-by-shard on the
/// calling thread instead of scattering: for interactive counts the scan
/// is cheaper than the thread spawns.
const SERIAL_BATCH_MAX: usize = 32;

/// Batched cross-shard `CountItemSet`: the per-shard exact answers,
/// summed — the exact global estimate of every itemset.  `tau` is the
/// early-exit budget of the `CountSource` contract; an exact answer meets
/// that contract whatever `tau` is, so it changes nothing.  Small batches
/// answer shard by shard on the calling thread, large ones scatter.
pub fn count_many_sharded<H: ShardHandle>(
    shards: &[H],
    itemsets: &[Itemset],
    _tau: Option<u64>,
) -> io::Result<Vec<u64>> {
    let per = if itemsets.len() <= SERIAL_BATCH_MAX {
        shards
            .iter()
            .map(|s| s.count_many(itemsets))
            .collect::<io::Result<Vec<_>>>()?
    } else {
        scatter(shards, |_, s| s.count_many(itemsets))?
    };
    Ok(sum_columns(&per, itemsets.len()))
}
