//! Scatter-gather counting across shards.
//!
//! # Why the sums are exact (the additive Lemma 1–4 argument)
//!
//! A BBS estimate is `popcount(AND of the selected slices)` — a sum over
//! rows of a 0/1 predicate.  TID routing partitions the rows into
//! disjoint shards, and every shard hashes items with the same hasher at
//! the same width, so row `r`'s signature is identical wherever it lives.
//! Summing per-shard `CountItemSet` results is therefore *exactly* the
//! unsharded estimate — not an approximation of it — and the estimate's
//! upper-bound guarantees (Lemmas 1–4: never undercounts the true
//! support) carry over unchanged.
//!
//! Every count here is exact.  Early exit is the filter phase's device,
//! and its cross-shard τ scheme lives with the implementation mining
//! uses, [`crate::counter`].

use crate::handle::ShardHandle;
use bbs_tdb::{ItemId, Itemset};
use std::collections::HashMap;
use std::io;

/// Batches at or below this size are answered shard-by-shard on the
/// calling thread instead of scattering: for interactive counts the scan
/// is cheaper than the thread spawns.
const SERIAL_BATCH_MAX: usize = 32;

/// Runs `f` once per shard, concurrently, and collects the results in
/// shard order.  A single shard runs inline (no thread overhead).  The
/// results may borrow from the shards they were computed over.
pub fn scatter<'a, H, T, F>(shards: &'a [H], f: F) -> io::Result<Vec<T>>
where
    H: Sync,
    T: Send,
    F: Fn(usize, &'a H) -> io::Result<T> + Sync,
{
    if shards.len() <= 1 {
        return shards.iter().enumerate().map(|(i, s)| f(i, s)).collect();
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(i, s)| scope.spawn(move || f(i, s)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard scatter worker panicked"))
            .collect()
    })
}

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

/// Column-wise sum of per-shard answer vectors.
pub fn sum_columns(per: &[Vec<u64>], queries: usize) -> Vec<u64> {
    let mut out = vec![0u64; queries];
    for row in per {
        debug_assert_eq!(row.len(), queries);
        for (acc, &v) in out.iter_mut().zip(row) {
            *acc += v;
        }
    }
    out
}

/// Global exact 1-itemset supports: per-shard supports summed.  The
/// shards hold a disjoint partition of the transactions, so the sums (and
/// the key set, the mining vocabulary) equal the unsharded values exactly.
pub fn sum_item_counts<'a>(
    per_shard: impl IntoIterator<Item = &'a HashMap<ItemId, u64>>,
) -> HashMap<ItemId, u64> {
    let mut total = HashMap::new();
    for counts in per_shard {
        for (&item, &count) in counts {
            *total.entry(item).or_insert(0) += count;
        }
    }
    total
}
