//! The four filter-and-refine mining algorithms of §3.3:
//! SFS, SFP, DFS and DFP, behind the common [`FrequentPatternMiner`] trait.

use crate::adaptive::{adaptive_filter, slices_for_budget};
use crate::bbs::Bbs;
use crate::cursor::CursorStats;
use crate::filter::{run_filter_threaded, FilterKind};
use crate::refine::{probe_candidates, sequential_scan};
use bbs_hash::ItemHasher;
use bbs_tdb::{
    FrequentPatternMiner, IoStats, MemoryBudget, MineResult, SupportThreshold, Transaction,
    TransactionDb,
};
use std::sync::Arc;

/// Which refinement mechanism to use (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineKind {
    /// Verify candidates by (chunked) full database scans.
    SequentialScan,
    /// Verify candidates by fetching only their BBS-nominated rows.  The
    /// memory-resident runs integrate this with filtering (§3.3's SFP/DFP).
    Probe,
}

/// One of the paper's four mining algorithms, selected by its filter and
/// refinement mechanisms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Single filter + sequential scan.
    Sfs,
    /// Single filter + integrated probe.
    Sfp,
    /// Dual filter + sequential scan.
    Dfs,
    /// Dual filter + integrated probe (the paper's overall winner).
    Dfp,
}

impl Scheme {
    /// All four schemes, in the paper's order.
    pub const ALL: [Scheme; 4] = [Scheme::Sfs, Scheme::Sfp, Scheme::Dfs, Scheme::Dfp];

    /// The scheme's filter mechanism.
    pub fn filter(self) -> FilterKind {
        match self {
            Scheme::Sfs | Scheme::Sfp => FilterKind::Single,
            Scheme::Dfs | Scheme::Dfp => FilterKind::Dual,
        }
    }

    /// The scheme's refinement mechanism.
    pub fn refine(self) -> RefineKind {
        match self {
            Scheme::Sfs | Scheme::Dfs => RefineKind::SequentialScan,
            Scheme::Sfp | Scheme::Dfp => RefineKind::Probe,
        }
    }

    /// The paper's name for the scheme.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Sfs => "SFS",
            Scheme::Sfp => "SFP",
            Scheme::Dfs => "DFS",
            Scheme::Dfp => "DFP",
        }
    }

    /// Stable single-byte identifier for wire protocols and file formats.
    pub fn id(self) -> u8 {
        match self {
            Scheme::Sfs => 0,
            Scheme::Sfp => 1,
            Scheme::Dfs => 2,
            Scheme::Dfp => 3,
        }
    }

    /// Inverse of [`Scheme::id`]; `None` for unknown identifiers.
    pub fn from_id(id: u8) -> Option<Scheme> {
        Scheme::ALL.into_iter().find(|s| s.id() == id)
    }
}

impl std::str::FromStr for Scheme {
    type Err = String;

    /// Parses a scheme by its paper name, case-insensitively
    /// (`sfs`/`SFP`/`dfs`/`DFP`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Scheme::ALL
            .into_iter()
            .find(|sc| sc.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown scheme `{s}` (expected SFS, SFP, DFS, or DFP)"))
    }
}

/// A BBS-backed frequent-pattern miner.
///
/// The miner owns its index.  Build it once with [`BbsMiner::build`]
/// (charging construction I/O) and mine as many times as needed — the index
/// is persistent, and new transactions can be appended incrementally with
/// [`BbsMiner::append`] (the dynamic-database workflow of §3.4 / Fig. 12).
pub struct BbsMiner {
    scheme: Scheme,
    bbs: Bbs,
    budget: MemoryBudget,
    threads: usize,
    /// I/O spent building/maintaining the index, reported separately from
    /// per-mine I/O.
    maintenance_io: IoStats,
    /// What the cursors of the last mine's filter walk did.
    walked: CursorStats,
}

impl BbsMiner {
    /// Builds the index over `db` with `width`-bit signatures.
    pub fn build(
        scheme: Scheme,
        db: &TransactionDb,
        width: usize,
        hasher: Arc<dyn ItemHasher>,
    ) -> Self {
        let mut io = IoStats::new();
        let bbs = Bbs::build(width, hasher, db, &mut io);
        BbsMiner {
            scheme,
            bbs,
            budget: MemoryBudget::unlimited(),
            threads: 1,
            maintenance_io: io,
            walked: CursorStats::default(),
        }
    }

    /// Wraps an existing index.
    pub fn with_index(scheme: Scheme, bbs: Bbs) -> Self {
        BbsMiner {
            scheme,
            bbs,
            budget: MemoryBudget::unlimited(),
            threads: 1,
            maintenance_io: IoStats::new(),
            walked: CursorStats::default(),
        }
    }

    /// Sets the memory budget (enables the adaptive three-phase filter when
    /// the index outgrows it, and chunks sequential-scan refinement).
    pub fn with_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Runs the filtering phase on `threads` worker threads (memory-resident
    /// runs only; the adaptive pipeline stays single-threaded).  Results are
    /// identical to the single-threaded engine's.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The scheme this miner runs.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Read access to the index.
    pub fn index(&self) -> &Bbs {
        &self.bbs
    }

    /// Appends one transaction to the index (the caller appends the same
    /// transaction to its database).  This is the *entire* maintenance cost
    /// of a dynamic database — no reconstruction, unlike an FP-tree.
    pub fn append(&mut self, txn: &Transaction) {
        let mut io = IoStats::new();
        self.bbs.insert(txn, &mut io);
        self.maintenance_io.merge(&io);
    }

    /// Cumulative index build + maintenance I/O.
    pub fn maintenance_io(&self) -> IoStats {
        self.maintenance_io
    }

    /// What the cursors of the last mine's filter walk did, summed over
    /// its workers (zero after a memory-constrained, adaptive run).
    pub fn cursor_stats(&self) -> CursorStats {
        self.walked
    }

    fn mine_inner(&mut self, db: &TransactionDb, tau: u64) -> MineResult {
        assert_eq!(
            self.bbs.rows(),
            db.len(),
            "index rows must correspond 1:1 to database rows"
        );
        let kind = self.scheme.filter();
        let needs_fold = slices_for_budget(&self.bbs, self.budget).is_some();

        let (mut filter_out, integrated) = if needs_fold {
            // Memory-constrained: two-phase filtering regardless of scheme;
            // probing happens afterwards against the surviving candidates.
            // (adaptive_filter charges its own two BBS passes.)
            (adaptive_filter(&self.bbs, kind, tau, self.budget), false)
        } else {
            match self.scheme.refine() {
                RefineKind::Probe => (
                    run_filter_threaded(&self.bbs, kind, Some(db), tau, self.threads),
                    true,
                ),
                RefineKind::SequentialScan => (
                    run_filter_threaded(&self.bbs, kind, None, tau, self.threads),
                    false,
                ),
            }
        };
        if !needs_fold {
            // Memory-resident run: one cold sequential load of the index.
            self.bbs.charge_cold_load(&mut filter_out.stats.io);
        }
        self.walked = filter_out.cursor;

        let mut result = MineResult::default();
        result.stats.candidates = filter_out.stats.candidates;
        result.stats.false_drops = filter_out.stats.false_drops;
        result.stats.certified = filter_out.stats.certified;
        result.stats.bbs_counts = filter_out.stats.bbs_counts;
        result.stats.io.merge(&filter_out.stats.io);

        result.patterns.extend_from(&filter_out.frequent);
        for (items, count) in filter_out.approx.iter() {
            result.patterns.insert(items.clone(), count);
            result.approx_supports.insert(items.clone());
        }

        if !integrated && !filter_out.uncertain.is_empty() {
            let refine_out = match self.scheme.refine() {
                RefineKind::SequentialScan => {
                    sequential_scan(db, &filter_out.uncertain, tau, self.budget)
                }
                RefineKind::Probe => probe_candidates(db, &self.bbs, &filter_out.uncertain, tau),
            };
            result.stats.false_drops += refine_out.false_drops;
            result.stats.io.merge(&refine_out.io);
            result.patterns.extend_from(&refine_out.confirmed);
        }
        result
    }
}

impl FrequentPatternMiner for BbsMiner {
    fn name(&self) -> &str {
        self.scheme.name()
    }

    fn mine(&mut self, db: &TransactionDb, min_support: SupportThreshold) -> MineResult {
        let tau = min_support.resolve(db.len());
        self.mine_inner(db, tau)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_hash::{Md5BloomHasher, ModuloHasher};
    use bbs_tdb::{Itemset, NaiveMiner, PatternSet};

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

    /// Compares a result against the exact oracle: identical pattern sets;
    /// identical supports except for certified-approximate patterns, whose
    /// reported support must upper-bound the truth.
    fn assert_matches_oracle(result: &MineResult, oracle: &PatternSet) {
        assert_eq!(
            result.patterns.len(),
            oracle.len(),
            "pattern sets differ in size: got {:?}, want {:?}",
            result.patterns,
            oracle
        );
        for (items, support) in result.patterns.iter() {
            let truth = oracle
                .support(items)
                .unwrap_or_else(|| panic!("spurious pattern {items:?}"));
            if result.approx_supports.contains(items) {
                assert!(support >= truth, "{items:?}: approx {support} < {truth}");
            } else {
                assert_eq!(support, truth, "{items:?}");
            }
        }
    }

    #[test]
    fn all_four_schemes_agree_with_oracle_on_paper_db() {
        let db = paper_db();
        let tau = SupportThreshold::Count(3);
        let oracle = NaiveMiner::new().mine(&db, tau).patterns;
        for scheme in Scheme::ALL {
            let mut miner = BbsMiner::build(scheme, &db, 8, Arc::new(ModuloHasher));
            let result = miner.mine(&db, tau);
            assert_matches_oracle(&result, &oracle);
        }
    }

    #[test]
    fn schemes_agree_with_md5_hashing() {
        let db = paper_db();
        let tau = SupportThreshold::Count(2);
        let oracle = NaiveMiner::new().mine(&db, tau).patterns;
        for scheme in Scheme::ALL {
            let mut miner = BbsMiner::build(scheme, &db, 64, Arc::new(Md5BloomHasher::new(4)));
            let result = miner.mine(&db, tau);
            assert_matches_oracle(&result, &oracle);
        }
    }

    #[test]
    fn adaptive_budget_path_agrees() {
        let db = paper_db();
        let tau = SupportThreshold::Count(3);
        let oracle = NaiveMiner::new().mine(&db, tau).patterns;
        for scheme in Scheme::ALL {
            // 8 slices × 1 byte = 8 dense bytes; a 4-byte budget forces the fold.
            let mut miner = BbsMiner::build(scheme, &db, 8, Arc::new(ModuloHasher))
                .with_budget(MemoryBudget::bytes(4));
            let result = miner.mine(&db, tau);
            assert_matches_oracle(&result, &oracle);
            assert_eq!(result.stats.io.bbs_passes, 2, "{}", scheme.name());
        }
    }

    #[test]
    fn incremental_append_then_mine() {
        let db = paper_db();
        let tau = SupportThreshold::Count(3);
        // Build over the first 3 transactions, then append the rest.
        let mut partial = TransactionDb::new();
        for t in &db.transactions()[..3] {
            partial.push(t.clone());
        }
        let mut miner = BbsMiner::build(Scheme::Dfp, &partial, 8, Arc::new(ModuloHasher));
        let mut full = partial.clone();
        for t in &db.transactions()[3..] {
            miner.append(t);
            full.push(t.clone());
        }
        let result = miner.mine(&full, tau);
        let oracle = NaiveMiner::new().mine(&db, tau).patterns;
        assert_matches_oracle(&result, &oracle);
    }

    #[test]
    fn scheme_metadata() {
        assert_eq!(Scheme::Dfp.name(), "DFP");
        assert_eq!(Scheme::Dfp.filter(), FilterKind::Dual);
        assert_eq!(Scheme::Dfp.refine(), RefineKind::Probe);
        assert_eq!(Scheme::Sfs.filter(), FilterKind::Single);
        assert_eq!(Scheme::Sfs.refine(), RefineKind::SequentialScan);
    }

    #[test]
    fn probe_schemes_have_no_more_false_drops_than_scan_schemes() {
        let db = paper_db();
        let tau = SupportThreshold::Count(3);
        let fd = |scheme| {
            BbsMiner::build(scheme, &db, 8, Arc::new(ModuloHasher))
                .mine(&db, tau)
                .stats
                .false_drops
        };
        assert!(fd(Scheme::Sfp) <= fd(Scheme::Sfs));
        assert!(fd(Scheme::Dfp) <= fd(Scheme::Dfs));
    }

    #[test]
    fn dfp_probes_less_than_sfp() {
        let db = paper_db();
        let tau = SupportThreshold::Count(3);
        let probes = |scheme| {
            BbsMiner::build(scheme, &db, 8, Arc::new(ModuloHasher))
                .mine(&db, tau)
                .stats
                .io
                .db_probes
        };
        assert!(probes(Scheme::Dfp) < probes(Scheme::Sfp));
    }

    #[test]
    #[should_panic(expected = "1:1")]
    fn mismatched_index_panics() {
        let db = paper_db();
        let small = TransactionDb::from_itemsets(vec![set(&[1])]);
        let mut miner = BbsMiner::build(Scheme::Dfp, &small, 8, Arc::new(ModuloHasher));
        miner.mine(&db, SupportThreshold::Count(1));
    }
}
