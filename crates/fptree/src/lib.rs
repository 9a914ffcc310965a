//! The FP-growth baseline (the paper's **FPS**).
//!
//! Frequent-pattern mining without candidate generation (Han, Pei & Yin,
//! SIGMOD 2000): two database scans build an [`FpTree`] —
//! a prefix tree over frequency-ordered transactions with a header table —
//! and recursion over *conditional pattern bases* grows patterns fragment
//! by fragment.  A single-path conditional tree short-circuits into direct
//! combination enumeration.
//!
//! Two properties matter for the comparison with BBS:
//!
//! * the tree must be **rebuilt for every mining run** (it depends on the
//!   support threshold and on global item frequencies, so it cannot be
//!   maintained incrementally — §3.4 of the BBS paper);
//! * when the tree outgrows memory the original algorithm falls back to
//!   database projection; the [`MemoryBudget`] cost model charges the
//!   equivalent extra scans (Fig. 11).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod tree;

use bbs_tdb::io::pages_for;
use bbs_tdb::{
    FrequentPatternMiner, IoStats, ItemId, Itemset, MemoryBudget, MineResult, PatternSet,
    SupportThreshold, TransactionDb,
};
use tree::FpTree;

/// The FP-growth miner.
#[derive(Debug, Clone)]
pub struct FpGrowthMiner {
    budget: MemoryBudget,
}

impl Default for FpGrowthMiner {
    fn default() -> Self {
        FpGrowthMiner::new()
    }
}

impl FpGrowthMiner {
    /// A miner with unlimited memory.
    pub fn new() -> Self {
        FpGrowthMiner {
            budget: MemoryBudget::unlimited(),
        }
    }

    /// Applies a memory budget (see the crate docs for the cost model).
    pub fn with_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// Builds the initial FP-tree over `db` at threshold `tau` (two scans).
pub fn build_tree(db: &TransactionDb, tau: u64, io: &mut IoStats) -> FpTree {
    let frequent: Vec<(ItemId, u64)> = db
        .count_singletons(io)
        .into_iter()
        .filter(|&(_, c)| c >= tau)
        .collect();
    let mut tree = FpTree::new(frequent);
    for txn in db.scan(io) {
        let ordered = tree.order_items(txn.items.items());
        if !ordered.is_empty() {
            tree.insert_path(&ordered, 1);
        }
    }
    tree
}

/// Recursive FP-growth over a (conditional) tree.
fn fp_growth(tree: &FpTree, suffix: &Itemset, tau: u64, out: &mut PatternSet) {
    if let Some(path) = tree.single_path() {
        if !path.is_empty() {
            emit_path_combinations(&path, suffix, out);
        }
        return;
    }
    // Process header entries from least to most frequent (bottom of the
    // f-list first), as in the original algorithm.
    for entry in tree.header().iter().rev() {
        if entry.count < tau {
            continue;
        }
        let pattern = suffix.with_item(entry.item);
        out.insert(pattern.clone(), entry.count);

        // Conditional pattern base: prefix paths of every node in the
        // item's chain, weighted by the node's count.
        let mut base: Vec<(Vec<ItemId>, u64)> = Vec::new();
        let mut conditional_counts: std::collections::HashMap<ItemId, u64> =
            std::collections::HashMap::new();
        for node_idx in tree.chain(entry) {
            let node = tree.node(node_idx);
            let path = tree.prefix_path(node_idx);
            for &it in &path {
                *conditional_counts.entry(it).or_insert(0) += node.count;
            }
            if !path.is_empty() {
                base.push((path, node.count));
            }
        }
        let frequent: Vec<(ItemId, u64)> = conditional_counts
            .into_iter()
            .filter(|&(_, c)| c >= tau)
            .collect();
        if frequent.is_empty() {
            continue;
        }
        let mut conditional = FpTree::new(frequent);
        for (path, count) in &base {
            let ordered = conditional.order_items(path);
            if !ordered.is_empty() {
                conditional.insert_path(&ordered, *count);
            }
        }
        fp_growth(&conditional, &pattern, tau, out);
    }
}

/// Single-path shortcut: every non-empty combination of the path's nodes is
/// frequent, with support equal to the count of its deepest node.
fn emit_path_combinations(path: &[(ItemId, u64)], suffix: &Itemset, out: &mut PatternSet) {
    // Depth-first over include/exclude decisions; the path is top-down, so
    // counts are non-increasing and the last included node's count is the
    // minimum.
    fn recurse(
        path: &[(ItemId, u64)],
        idx: usize,
        current: &Itemset,
        current_count: Option<u64>,
        out: &mut PatternSet,
    ) {
        if idx == path.len() {
            if let Some(c) = current_count {
                out.insert(current.clone(), c);
            }
            return;
        }
        // Exclude path[idx].
        recurse(path, idx + 1, current, current_count, out);
        // Include path[idx].
        let (item, count) = path[idx];
        let next = current.with_item(item);
        recurse(path, idx + 1, &next, Some(count), out);
    }
    recurse(path, 0, suffix, None, out);
}

impl FrequentPatternMiner for FpGrowthMiner {
    fn name(&self) -> &str {
        "FPS"
    }

    fn mine(&mut self, db: &TransactionDb, min_support: SupportThreshold) -> MineResult {
        let tau = min_support.resolve(db.len());
        let mut result = MineResult::default();
        let mut io = IoStats::new();

        let tree = build_tree(db, tau, &mut io);

        // Memory-budget cost model: a tree that does not fit forces the
        // database-projection fallback; charge one extra full scan per
        // budget-sized piece of the tree beyond the first.
        if let Some(limit) = self.budget.limit() {
            let bytes = tree.approx_bytes();
            if bytes > limit {
                let extra = (bytes.div_ceil(limit.max(1)) - 1) as u64;
                io.db_scans += extra;
                io.db_pages_read += extra * pages_for(db.total_bytes(), db.page_size());
            }
        }

        fp_growth(&tree, &Itemset::empty(), tau, &mut result.patterns);
        result.stats.candidates = result.patterns.len() as u64;
        result.stats.io = io;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_datagen::QuestConfig;
    use bbs_tdb::{NaiveMiner, Transaction};

    fn set(vals: &[u32]) -> Itemset {
        Itemset::from_values(vals)
    }

    fn paper_db() -> TransactionDb {
        TransactionDb::from_transactions(vec![
            Transaction::new(100, set(&[0, 1, 2, 3, 4, 5, 14, 15])),
            Transaction::new(200, set(&[1, 2, 3, 5, 6, 7])),
            Transaction::new(300, set(&[1, 5, 14, 15])),
            Transaction::new(400, set(&[0, 1, 2, 7])),
            Transaction::new(500, set(&[1, 2, 5, 6, 11, 15])),
        ])
    }

    /// The canonical FP-growth example from Han et al.'s paper.
    fn han_db() -> TransactionDb {
        TransactionDb::from_itemsets(vec![
            set(&[1, 2, 5]),
            set(&[2, 4]),
            set(&[2, 3]),
            set(&[1, 2, 4]),
            set(&[1, 3]),
            set(&[2, 3]),
            set(&[1, 3]),
            set(&[1, 2, 3, 5]),
            set(&[1, 2, 3]),
        ])
    }

    #[test]
    fn matches_oracle_on_paper_db() {
        let db = paper_db();
        for tau in [2u64, 3, 4, 5] {
            let oracle = NaiveMiner::new()
                .mine(&db, SupportThreshold::Count(tau))
                .patterns;
            let got = FpGrowthMiner::new()
                .mine(&db, SupportThreshold::Count(tau))
                .patterns;
            assert_eq!(got, oracle, "tau = {tau}");
        }
    }

    #[test]
    fn matches_oracle_on_han_example() {
        let db = han_db();
        let oracle = NaiveMiner::new()
            .mine(&db, SupportThreshold::Count(2))
            .patterns;
        let got = FpGrowthMiner::new()
            .mine(&db, SupportThreshold::Count(2))
            .patterns;
        assert_eq!(got, oracle);
        // Spot-check a known deep pattern: {1,2,5} has support 2.
        assert_eq!(got.support(&set(&[1, 2, 5])), Some(2));
    }

    #[test]
    fn matches_oracle_on_generated_data() {
        let db = bbs_datagen::generate_db(QuestConfig::tiny());
        for pct in [3.0f64, 5.0, 10.0] {
            let t = SupportThreshold::percent(pct);
            let oracle = NaiveMiner::new().mine(&db, t).patterns;
            let got = FpGrowthMiner::new().mine(&db, t).patterns;
            assert_eq!(got, oracle, "pct = {pct}");
        }
    }

    #[test]
    fn two_scans_when_memory_unlimited() {
        let db = paper_db();
        let r = FpGrowthMiner::new().mine(&db, SupportThreshold::Count(3));
        assert_eq!(r.stats.io.db_scans, 2);
    }

    #[test]
    fn budget_charges_extra_scans() {
        let db = bbs_datagen::generate_db(QuestConfig::tiny());
        let tau = SupportThreshold::percent(3.0);
        let free = FpGrowthMiner::new().mine(&db, tau);
        let tight = FpGrowthMiner::new()
            .with_budget(MemoryBudget::bytes(1024))
            .mine(&db, tau);
        assert_eq!(free.patterns, tight.patterns, "answer unchanged");
        assert!(tight.stats.io.db_scans > free.stats.io.db_scans);
    }

    #[test]
    fn empty_db_and_high_threshold() {
        let db = TransactionDb::new();
        let r = FpGrowthMiner::new().mine(&db, SupportThreshold::Count(1));
        assert!(r.patterns.is_empty());
        let db = paper_db();
        let r = FpGrowthMiner::new().mine(&db, SupportThreshold::Count(6));
        assert!(r.patterns.is_empty());
    }

    #[test]
    fn single_item_database() {
        let db = TransactionDb::from_itemsets(vec![set(&[7]), set(&[7]), set(&[7])]);
        let r = FpGrowthMiner::new().mine(&db, SupportThreshold::Count(2));
        assert_eq!(r.patterns.len(), 1);
        assert_eq!(r.patterns.support(&set(&[7])), Some(3));
    }
}
