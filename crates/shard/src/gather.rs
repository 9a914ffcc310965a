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
//! # The cross-shard τ scheme
//!
//! Early exit does not distribute naively: handing every shard the full
//! τ lets each return a local upper bound just below τ whose *sum*
//! crosses τ while being inexact — violating the contract that ≥ τ
//! answers are exact.  Instead each shard gets the scaled budget
//! `τᵢ = max(1, ⌈τ/n⌉)`, and the gather step runs the cross-shard
//! running-total check:
//!
//! 1. If the summed total `S < τ`, return `S`: a sum of per-shard upper
//!    bounds is an upper bound, and `< τ` answers may be bounds.  In
//!    particular, when *every* shard early-exits, `S ≤ n·(⌈τ/n⌉−1)
//!    ≤ τ−1 < τ` — all-shards-infrequent prunes with no second pass.
//! 2. If `S ≥ τ`, any shard whose answer was a possible bound (below its
//!    τᵢ but nonzero — zero is always exact) is re-queried exactly, and
//!    the patched sum is returned.  Every addend is then exact, so the
//!    answer is exact whether it lands above or below τ.
//!
//! The result obeys the exact same τ contract as a single shard, so the
//! sharded executor is a drop-in [`ShardHandle`]-shaped `CountSource`.

use crate::handle::ShardHandle;
use bbs_tdb::{ItemId, Itemset};
use std::collections::HashMap;
use std::io;

/// Exact batches at or below this size are answered shard-by-shard on
/// the calling thread instead of scattering: for interactive counts the
/// scan is cheaper than the thread spawns.
const SERIAL_BATCH_MAX: usize = 32;

/// Per-shard early-exit budget for a global threshold `tau` over
/// `shards` shards: `max(1, ⌈tau/shards⌉)`.
pub fn scaled_tau(tau: u64, shards: usize) -> u64 {
    let n = shards.max(1) as u64;
    tau.div_ceil(n).max(1)
}

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

/// Batched cross-shard `CountItemSet`: scatters the whole batch to every
/// shard in parallel, sums per-shard answers, and applies the τ scheme in
/// the module docs.  With `tau = None` every answer is the exact global
/// estimate; with `tau = Some(t)` every answer obeys the single-shard τ
/// contract (exact when `≥ t`, an upper bound otherwise).
pub fn count_many_sharded<H: ShardHandle>(
    shards: &[H],
    itemsets: &[Itemset],
    tau: Option<u64>,
) -> io::Result<Vec<u64>> {
    if itemsets.is_empty() {
        return Ok(Vec::new());
    }
    let n = shards.len();
    let Some(t) = tau else {
        // Small exact batches (interactive `count`/`count_many`) answer
        // serially: the per-shard slice scans cost microseconds, well
        // below the latency of spawning scatter threads.  Large batches
        // (the mining executor's candidate sweeps) still fan out.
        let per = if itemsets.len() <= SERIAL_BATCH_MAX {
            shards
                .iter()
                .map(|s| s.count_many(itemsets, None))
                .collect::<io::Result<Vec<_>>>()?
        } else {
            scatter(shards, |_, s| s.count_many(itemsets, None))?
        };
        return Ok(sum_columns(&per, itemsets.len()));
    };

    let t_i = scaled_tau(t, n);
    let mut per = scatter(shards, |_, s| s.count_many(itemsets, Some(t_i)))?;
    let totals = sum_columns(&per, itemsets.len());

    // Queries whose running total crossed τ with a possibly-inexact addend
    // get that shard's answer re-queried exactly; everything else is
    // already settled (see the module docs).
    let requery: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            (0..itemsets.len())
                .filter(|&q| totals[q] >= t && per[i][q] > 0 && per[i][q] < t_i)
                .collect()
        })
        .collect();
    if requery.iter().all(|qs| qs.is_empty()) {
        return Ok(totals);
    }
    let exact = scatter(shards, |i, s| {
        if requery[i].is_empty() {
            return Ok(Vec::new());
        }
        let subset: Vec<Itemset> = requery[i].iter().map(|&q| itemsets[q].clone()).collect();
        s.count_many(&subset, None)
    })?;
    for i in 0..n {
        for (k, &q) in requery[i].iter().enumerate() {
            per[i][q] = exact[i][k];
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A scripted shard: exact per-query answers, plus a bounded answer to
    /// report when asked with a τ budget (modelling an early exit that
    /// returned an inflated upper bound).  Counts exact re-queries so the
    /// tests can assert when the second pass happens.
    struct MockShard {
        rows: u64,
        exact: Vec<u64>,
        bounded: Vec<u64>,
        exact_queries: Mutex<usize>,
    }

    impl MockShard {
        fn new(rows: u64, exact: Vec<u64>, bounded: Vec<u64>) -> Self {
            MockShard {
                rows,
                exact,
                bounded,
                exact_queries: Mutex::new(0),
            }
        }
    }

    impl ShardHandle for MockShard {
        fn rows(&self) -> u64 {
            self.rows
        }

        fn count_many(&self, itemsets: &[Itemset], tau: Option<u64>) -> io::Result<Vec<u64>> {
            // The scripted tables are indexed by query id = first item.
            let ids: Vec<usize> = itemsets
                .iter()
                .map(|s| s.items().first().map(|i| i.0 as usize).unwrap_or(0))
                .collect();
            match tau {
                None => {
                    *self.exact_queries.lock().unwrap() += itemsets.len();
                    Ok(ids.iter().map(|&q| self.exact[q]).collect())
                }
                Some(t) => Ok(ids
                    .iter()
                    .map(|&q| {
                        // Honour the contract: the bound is reported only
                        // when it is below the budget; otherwise the shard
                        // "finished the scan" and answers exactly.
                        if self.bounded[q] < t {
                            self.bounded[q]
                        } else {
                            self.exact[q]
                        }
                    })
                    .collect()),
            }
        }
    }

    fn q(id: u32) -> Itemset {
        Itemset::from_values(&[id])
    }

    /// The violation a naive scheme commits: shard 0 early-exits with an
    /// inflated bound (4 over a true 3), shard 1 answers exactly (7).  A
    /// naive gather would report the sum 11 ≥ τ=10 — inexact where
    /// exactness is promised.  The gather must re-query shard 0 and
    /// answer the exact total 10.
    #[test]
    fn crossing_tau_with_an_inexact_addend_refines_to_exact() {
        let shards = vec![
            MockShard::new(100, vec![3], vec![4]), // τᵢ=5: bound 4 < 5 reported
            MockShard::new(100, vec![7], vec![9]), // bound ≥ τᵢ ⇒ answers exact 7
        ];
        let got = count_many_sharded(&shards, &[q(0)], Some(10)).unwrap();
        assert_eq!(got, vec![10], "patched sum is the exact global count");
        assert_eq!(*shards[0].exact_queries.lock().unwrap(), 1, "shard 0 re-queried");
        assert_eq!(*shards[1].exact_queries.lock().unwrap(), 0, "shard 1 was exact");
    }

    /// A refinement that drops the total back *below* τ is still correct:
    /// every addend is exact by then, and exact `< τ` answers are legal.
    #[test]
    fn refined_total_may_settle_below_tau() {
        let shards = vec![
            MockShard::new(100, vec![1], vec![4]), // inflated bound over a true 1
            MockShard::new(100, vec![7], vec![9]),
        ];
        let got = count_many_sharded(&shards, &[q(0)], Some(10)).unwrap();
        assert_eq!(got, vec![8], "exact total after the patch, even though < τ");
        assert_eq!(*shards[0].exact_queries.lock().unwrap(), 1);
    }

    /// When every shard early-exits under its scaled budget, the summed
    /// total is arithmetically below τ — pruned with no second pass.
    #[test]
    fn all_shards_early_exiting_prunes_without_requery() {
        let shards = vec![
            MockShard::new(100, vec![1], vec![4]),
            MockShard::new(100, vec![2], vec![4]),
            MockShard::new(100, vec![0], vec![3]),
        ];
        // τ=15 ⇒ τᵢ=5; bounds 4+4+3 = 11 < 15.
        let got = count_many_sharded(&shards, &[q(0)], Some(15)).unwrap();
        assert_eq!(got, vec![11]);
        for s in &shards {
            assert_eq!(*s.exact_queries.lock().unwrap(), 0);
        }
    }

    /// Zero is always exact — a zero addend never triggers a re-query even
    /// when the total crosses τ.
    #[test]
    fn zero_addends_are_never_requeried() {
        let shards = vec![
            MockShard::new(100, vec![20], vec![25]), // exact (bound ≥ τᵢ)
            MockShard::new(100, vec![0], vec![0]),
        ];
        let got = count_many_sharded(&shards, &[q(0)], Some(10)).unwrap();
        assert_eq!(got, vec![20]);
        assert_eq!(*shards[1].exact_queries.lock().unwrap(), 0);
    }

    /// Mixed batches settle per query: each answer independently obeys the
    /// τ contract against its own exact total.
    #[test]
    fn batches_settle_per_query() {
        let shards = vec![
            MockShard::new(50, vec![3, 1, 12], vec![4, 2, 13]),
            MockShard::new(50, vec![5, 1, 11], vec![9, 2, 12]),
        ];
        let exact_totals = [8u64, 2, 23];
        let t = 10u64;
        let got = count_many_sharded(&shards, &[q(0), q(1), q(2)], Some(t)).unwrap();
        for (i, &v) in got.iter().enumerate() {
            if v >= t {
                assert_eq!(v, exact_totals[i], "query {i} ≥ τ must be exact");
            } else {
                assert!(v >= exact_totals[i], "query {i} bound must not undercount");
            }
        }
        assert_eq!(got[2], 23);
    }

    #[test]
    fn scaled_tau_budgets() {
        assert_eq!(scaled_tau(10, 4), 3);
        assert_eq!(scaled_tau(12, 4), 3);
        assert_eq!(scaled_tau(13, 4), 4);
        assert_eq!(scaled_tau(0, 4), 1);
        assert_eq!(scaled_tau(1, 1), 1);
        // The all-early-exit prune bound: n·(τᵢ−1) < τ for every (τ, n).
        for tau in 1..200u64 {
            for n in 1..9usize {
                assert!((n as u64) * (scaled_tau(tau, n) - 1) < tau, "tau={tau} n={n}");
            }
        }
    }
}
