//! Every tier's MINE: [`mine_views`] mines the union of disjoint row
//! partitions — a deployment's files, a pinned snapshot, each shard of a
//! directory or a server, rows pulled over the wire — each seen through a
//! [`MineView`].  BBS estimates and exact supports are both sums over
//! rows, so the answer does not depend on how the rows are partitioned.

use crate::counter::ShardedCounter;
use crate::filter::{run_filter_source_threaded, CountSource};
use crate::miners::Scheme;
use bbs_tdb::{ItemId, Itemset, MineResult, SupportThreshold};
use std::collections::HashMap;
use std::io;

/// What mining needs of one partition of the rows, wherever they are: the
/// filter phase counts through one [`MineView::counter`] per worker, and
/// what it leaves uncertain settles by one [`MineView::tally`] scan.
/// Tombstoned rows are in none of the four answers.
pub trait MineView: Sync {
    /// A depth-first cursor over the partition's index.
    type Counter<'a>: CountSource + Send
    where
        Self: 'a;

    /// Live rows of the partition: its share of the threshold's base, and
    /// the most it can add to a cross-partition count.
    fn live_rows(&self) -> u64;

    /// Exact 1-itemset supports over the live rows.
    fn item_counts(&self) -> &HashMap<ItemId, u64>;

    /// A fresh cursor for one worker.
    fn counter(&self) -> io::Result<Self::Counter<'_>>;

    /// Exact supports of `cands` over the live rows: one scan.
    fn tally(&self, cands: &[Itemset]) -> io::Result<Vec<u64>>;

    /// The run is over: accounts for what `counter` did, where the
    /// partition keeps such accounts.
    fn retire(&self, _counter: &Self::Counter<'_>) {}
}

/// Mines every frequent pattern of the union of `views` with `scheme` on
/// `threads` workers: the threshold resolves against the summed live rows,
/// each worker counts across every view through one [`ShardedCounter`]
/// (supports merge before any prune decision), every cursor goes back to
/// its view's [`MineView::retire`], and uncertain candidates settle by one
/// [`MineView::tally`] per view (in parallel), summed.  Patterns,
/// supports, approx markers and statistics depend on neither the
/// partition nor `threads`.
pub fn mine_views<V: MineView>(
    views: &[V],
    scheme: Scheme,
    threshold: SupportThreshold,
    threads: usize,
) -> io::Result<MineResult> {
    let rows: Vec<u64> = views.iter().map(MineView::live_rows).collect();
    let tau = threshold.resolve(rows.iter().sum::<u64>() as usize);
    let actuals = sum_item_counts(views.iter().map(MineView::item_counts));
    let make_source = || {
        let counters = views.iter().map(MineView::counter);
        Ok(ShardedCounter::new(
            counters.collect::<io::Result<_>>()?,
            rows.clone(),
        ))
    };
    let (filter_out, sources) =
        run_filter_source_threaded(make_source, &actuals, scheme.filter(), tau, threads)?;
    for source in &sources {
        for (view, counter) in views.iter().zip(source.readers()) {
            view.retire(counter);
        }
    }
    filter_out.settle(tau, |cands| {
        let per_view = scatter(views, |_, view| view.tally(cands))?;
        Ok(sum_columns(&per_view, cands.len()))
    })
}

/// Runs `f` once per partition, concurrently, and collects the results in
/// partition order.  A single partition runs inline (no thread overhead).
/// The results may borrow from the partitions they were computed over.
pub fn scatter<'a, H, T, F>(parts: &'a [H], f: F) -> io::Result<Vec<T>>
where
    H: Sync,
    T: Send,
    F: Fn(usize, &'a H) -> io::Result<T> + Sync,
{
    if parts.len() <= 1 {
        return parts.iter().enumerate().map(|(i, p)| f(i, p)).collect();
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| scope.spawn(move || f(i, p)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scatter worker panicked"))
            .collect()
    })
}

/// Column-wise sum of per-partition answer vectors.
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

/// Global exact 1-itemset supports: per-partition supports summed.  The
/// partitions hold disjoint rows, so the sums (and the key set, the mining
/// vocabulary) equal the values over all the rows exactly.
pub fn sum_item_counts<'a>(
    per_part: impl IntoIterator<Item = &'a HashMap<ItemId, u64>>,
) -> HashMap<ItemId, u64> {
    let mut total = HashMap::new();
    for counts in per_part {
        for (&item, &count) in counts {
            *total.entry(item).or_insert(0) += count;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::tally_subsets;
    use crate::{Bbs, Cursor, Resident};
    use bbs_hash::Md5BloomHasher;
    use bbs_tdb::{FrequentPatternMiner, IoStats, NaiveMiner, Transaction, TransactionDb};
    use std::sync::Arc;

    const WIDTH: usize = 24;
    const TAU: u64 = 12;

    /// A partition held in memory: its rows, indexed at the shared shape.
    struct Rows {
        db: TransactionDb,
        bbs: Bbs,
    }

    impl MineView for Rows {
        type Counter<'a> = Cursor<Resident<'a>>;

        fn live_rows(&self) -> u64 {
            self.db.len() as u64
        }

        fn item_counts(&self) -> &HashMap<ItemId, u64> {
            self.bbs.item_counts()
        }

        fn counter(&self) -> io::Result<Cursor<Resident<'_>>> {
            Ok(Cursor::resident(&self.bbs, None))
        }

        fn tally(&self, cands: &[Itemset]) -> io::Result<Vec<u64>> {
            let mut counts = vec![0u64; cands.len()];
            for txn in self.db.transactions() {
                tally_subsets(cands, &mut counts, &txn.items);
            }
            Ok(counts)
        }
    }

    /// 240 rows over 30 items: a pseudo-random pair per row plus planted
    /// groups, at a width narrow enough that the filter over-estimates.
    fn transactions() -> Vec<Transaction> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 24) as u32
        };
        (0..240u64)
            .map(|i| {
                let mut items = vec![next(), next()];
                if i % 2 == 0 {
                    items.extend([24, 25]);
                }
                if i % 3 == 0 {
                    items.extend([26, 27, 28]);
                }
                if i % 5 == 0 {
                    items.extend([25, 29]);
                }
                Transaction::new(i, Itemset::from_values(&items))
            })
            .collect()
    }

    /// The rows dealt `parts` ways by TID residue, each part indexed.
    fn split(txns: &[Transaction], parts: usize) -> Vec<Rows> {
        (0..parts)
            .map(|p| {
                let mine = txns.iter().filter(|t| t.tid.0 as usize % parts == p);
                let db = TransactionDb::from_transactions(mine.cloned());
                let hasher = Arc::new(Md5BloomHasher::new(3));
                let bbs = Bbs::build(WIDTH, hasher, &db, &mut IoStats::new());
                Rows { db, bbs }
            })
            .collect()
    }

    fn canon(r: &MineResult) -> (Vec<(Itemset, u64)>, Vec<Itemset>) {
        let mut patterns: Vec<(Itemset, u64)> =
            r.patterns.iter().map(|(k, s)| (k.clone(), s)).collect();
        patterns.sort();
        let mut approx: Vec<Itemset> = r.approx_supports.iter().cloned().collect();
        approx.sort();
        (patterns, approx)
    }

    /// However the rows are partitioned and however many workers walk
    /// them, [`mine_views`] mines the same answer and the same statistics —
    /// with the summed-tally settle doing real work — and that answer is
    /// the exact frequent set.
    #[test]
    fn every_partition_mines_what_one_view_does() {
        let txns = transactions();
        let threshold = SupportThreshold::Count(TAU);
        let truth = NaiveMiner::new()
            .mine(&TransactionDb::from_transactions(txns.clone()), threshold)
            .patterns;
        assert!(truth.len() > 20 && truth.max_len() >= 3, "a real lattice");
        let splits: Vec<Vec<Rows>> = [1, 2, 3].iter().map(|&n| split(&txns, n)).collect();
        for scheme in Scheme::ALL {
            let whole = mine_views(&splits[0], scheme, threshold, 1).expect("one view");
            if scheme == Scheme::Sfs {
                assert!(whole.stats.false_drops > 0, "the settle refined something");
            }
            for (items, support) in whole.patterns.iter() {
                let exact = truth.support(items).expect("no spurious pattern");
                if whole.approx_supports.contains(items) {
                    assert!(support >= exact, "{scheme:?} {items:?}");
                } else {
                    assert_eq!(support, exact, "{scheme:?} {items:?}");
                }
            }
            assert_eq!(whole.patterns.len(), truth.len(), "{scheme:?}");
            for (views, threads) in splits.iter().flat_map(|v| [(v, 1), (v, 3)]) {
                let what = format!("{scheme:?} over {} view(s) x{threads}", views.len());
                let got = mine_views(views, scheme, threshold, threads).expect("mine");
                assert_eq!(canon(&got), canon(&whole), "{what}");
                assert_eq!(got.stats, whole.stats, "{what}");
            }
        }
    }
}
