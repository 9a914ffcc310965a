//! The memory-resident index as a [`CountSource`]: a depth-first cursor.
//!
//! A depth-first miner carries the *projected* bit vector of its prefix
//! down the recursion (Ramp): the AND-result of `prefix ∪ {item}` is the
//! prefix's AND-result ANDed with the item's own `k` slices, not a fresh
//! AND of all `k·|prefix ∪ {item}|` of them.  [`BbsCursor`] keeps that
//! state — the current path and one AND-result per depth — behind the
//! counting trait, so every walk over a loaded index (one engine, or the
//! router's cross-shard sum) gets the incremental AND.

use crate::bbs::Bbs;
use crate::filter::CountSource;
use bbs_bitslice::BitVec;
use bbs_tdb::{BufferPool, IoStats, ItemId, Itemset, TransactionDb};
use std::io;

/// A cursor into the enumeration tree over a loaded [`Bbs`].
///
/// Every call names the itemset it is about; the cursor re-syncs by the
/// longest common prefix of that itemset and its current path, so calls in
/// depth-first order cost at most one [`Bbs::extend_result`] each and calls
/// in any other order are merely slower, never wrong.  All answers are
/// exact estimates, which satisfies any τ budget.
///
/// Built with a database, it also answers the integrated probe of §3.3:
/// the AND-result it already holds names the candidate's rows.
pub struct BbsCursor<'a> {
    bbs: &'a Bbs,
    db: Option<&'a TransactionDb>,
    /// The itemset the cursor is positioned on, in enumeration order.
    path: Vec<ItemId>,
    /// `levels[d]` is the AND-result of `path[..d]` for `d ≤ path.len()`
    /// (`levels[0]` is the all-rows vector); deeper entries are spare
    /// buffers from earlier descents.
    levels: Vec<BitVec>,
    extends: u64,
    /// Scratch buffer of row indices for probing.
    probe_rows: Vec<usize>,
    /// Buffer pool for the probe: pages are charged on first touch only,
    /// modelling a run whose working set stays cached.
    pool: BufferPool,
}

impl<'a> BbsCursor<'a> {
    /// Positions a cursor at the root of `bbs`.  `db: Some(..)` makes it a
    /// probing cursor; the index rows must then be the database's rows.
    pub fn new(bbs: &'a Bbs, db: Option<&'a TransactionDb>) -> Self {
        if let Some(db) = db {
            assert_eq!(
                db.len(),
                bbs.rows(),
                "BBS rows must correspond 1:1 to database rows"
            );
        }
        BbsCursor {
            bbs,
            db,
            path: Vec::new(),
            levels: vec![bbs.all_rows_vector()],
            extends: 0,
            probe_rows: Vec::new(),
            pool: BufferPool::new(),
        }
    }

    /// AND-results materialised so far (one [`Bbs::extend_result`] each) —
    /// the cursor's whole cost beyond the per-sibling counts.
    pub fn extends(&self) -> u64 {
        self.extends
    }

    /// Moves the cursor to `target` and returns its AND-result.
    fn seek(&mut self, target: &[ItemId]) -> &BitVec {
        let common = self
            .path
            .iter()
            .zip(target)
            .take_while(|(a, b)| a == b)
            .count();
        self.path.truncate(common);
        for &item in &target[common..] {
            let depth = self.path.len();
            if self.levels.len() <= depth + 1 {
                self.levels.push(BitVec::new());
            }
            let (parents, children) = self.levels.split_at_mut(depth + 1);
            self.bbs
                .extend_result(&parents[depth], item, &mut children[0]);
            self.extends += 1;
            self.path.push(item);
        }
        &self.levels[target.len()]
    }
}

impl CountSource for BbsCursor<'_> {
    fn count_itemset(&mut self, itemset: &Itemset, _tau: u64) -> io::Result<u64> {
        let Some((&last, prefix)) = itemset.items().split_last() else {
            return Ok(self.bbs.rows() as u64);
        };
        let bbs = self.bbs;
        Ok(bbs.est_count_extend(self.seek(prefix), last, &mut IoStats::new()))
    }

    fn count_extensions(
        &mut self,
        prefix: &Itemset,
        extensions: &[ItemId],
        _tau: u64,
    ) -> io::Result<Vec<u64>> {
        let bbs = self.bbs;
        let parent = self.seek(prefix.items());
        Ok(extensions
            .iter()
            .map(|&item| bbs.est_count_extend(parent, item, &mut IoStats::new()))
            .collect())
    }

    /// The candidate's AND-result names its candidate rows; fetch each and
    /// verify.  The walk descends into a confirmed candidate next, which
    /// finds the cursor already there.
    fn probe(&mut self, candidate: &Itemset, io: &mut IoStats) -> io::Result<Option<u64>> {
        let Some(db) = self.db else {
            return Ok(None);
        };
        self.seek(candidate.items());
        self.probe_rows.clear();
        self.probe_rows
            .extend(self.levels[candidate.len()].iter_ones());
        let txns = db.probe_cached(&self.probe_rows, &mut self.pool, io);
        let actual = txns
            .iter()
            .filter(|t| candidate.is_subset_of(&t.items))
            .count();
        Ok(Some(actual as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{run_filter_source_threaded, FilterKind, EXACT};
    use bbs_datagen::{generate_db, QuestConfig};
    use bbs_hash::Md5BloomHasher;
    use std::sync::Arc;

    fn quest() -> (Bbs, TransactionDb) {
        let db = generate_db(QuestConfig::tiny().with_transactions(400).with_seed(14));
        let hasher = Arc::new(Md5BloomHasher::new(3));
        let bbs = Bbs::build(96, hasher, &db, &mut IoStats::new());
        (bbs, db)
    }

    /// A cursor that also counts what the walk asked of it.
    struct Audited<'a> {
        cursor: BbsCursor<'a>,
        descents: u64,
        probes: u64,
    }

    impl CountSource for Audited<'_> {
        fn count_itemset(&mut self, itemset: &Itemset, tau: u64) -> io::Result<u64> {
            self.cursor.count_itemset(itemset, tau)
        }

        fn count_extensions(
            &mut self,
            prefix: &Itemset,
            extensions: &[ItemId],
            tau: u64,
        ) -> io::Result<Vec<u64>> {
            self.descents += 1;
            self.cursor.count_extensions(prefix, extensions, tau)
        }

        fn probe(&mut self, candidate: &Itemset, io: &mut IoStats) -> io::Result<Option<u64>> {
            let answer = self.cursor.probe(candidate, io)?;
            self.probes += u64::from(answer.is_some());
            Ok(answer)
        }
    }

    /// The cost contract that keeps served MINE cheap: over a full
    /// depth-first walk the cursor materialises at most one AND-result per
    /// node descended into plus one per probe — never a prefix re-AND.
    #[test]
    fn a_depth_first_walk_costs_one_extend_per_descent_or_probe() {
        let (bbs, db) = quest();
        for kind in [FilterKind::Single, FilterKind::Dual] {
            for db in [None, Some(&db)] {
                let make = || {
                    Ok(Audited {
                        cursor: BbsCursor::new(&bbs, db),
                        descents: 0,
                        probes: 0,
                    })
                };
                let (out, sources) =
                    run_filter_source_threaded(make, bbs.item_counts(), kind, 12, 1).expect("run");
                let [src] = &sources[..] else {
                    panic!("one worker, one source")
                };
                assert!(out.stats.candidates > 1000, "the walk is not trivial");
                assert!(src.descents > 0);
                assert_eq!(src.probes > 0, db.is_some(), "{kind:?}");
                let extends = src.cursor.extends();
                assert!(
                    extends <= src.descents + src.probes,
                    "{kind:?}: {extends} extends for {} descents + {} probes",
                    src.descents,
                    src.probes
                );
                if db.is_none() {
                    assert_eq!(extends, src.descents, "{kind:?}: one per node, exactly");
                }
            }
        }
    }

    /// Order is a cost matter only: wherever the cursor stands, the answer
    /// for any itemset is `Bbs::est_count`, whatever τ it is handed.
    #[test]
    fn out_of_order_calls_still_answer_est_count() {
        let (bbs, _) = quest();
        let vocab = bbs.vocabulary();
        let est = |items: &Itemset| bbs.est_count(items, &mut IoStats::new());
        let mut cursor = BbsCursor::new(&bbs, None);
        // Deep into one subtree, then a cousin under a different top-level
        // item, then back up to the root and to a strict prefix.
        let deep = Itemset::from_items(vocab[..4].to_vec());
        let cousin = Itemset::from_items(vec![vocab[1], vocab[3], vocab[5]]);
        let jumps = [
            deep.clone(),
            cousin,
            Itemset::empty(),
            Itemset::from_items(vocab[..2].to_vec()),
            deep,
        ];
        for (prefix, tau) in jumps.iter().zip([EXACT, 1, 12, u64::MAX, 3]) {
            let want: Vec<u64> = vocab.iter().map(|&e| est(&prefix.with_item(e))).collect();
            let got = cursor.count_extensions(prefix, &vocab, tau).expect("batch");
            assert_eq!(got, want, "extensions of {prefix:?} τ={tau}");
            let solo = cursor.count_itemset(prefix, tau).expect("solo");
            assert_eq!(solo, est(prefix), "{prefix:?} τ={tau}");
        }
    }
}
