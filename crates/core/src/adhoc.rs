//! Ad-hoc queries (§3.4, §4.9): exact counting of arbitrary — including
//! non-frequent — patterns, with optional selection constraints.
//!
//! These are the queries neither Apriori's materialised frequent sets nor an
//! FP-tree can answer: an FP-tree discards infrequent items at construction
//! time and cannot encode constraints, whereas BBS keeps every transaction's
//! signature and reduces a constraint to one extra slice in the AND.

use crate::bbs::Bbs;
use crate::refine::probe_support;
use bbs_bitslice::BitVec;
use bbs_tdb::{build_constraint_slice, Constraint, IoStats, Itemset, TransactionDb};

/// A query engine pairing an index with its database.
pub struct AdhocEngine<'a> {
    bbs: &'a Bbs,
    db: &'a TransactionDb,
}

impl<'a> AdhocEngine<'a> {
    /// Creates the engine.
    ///
    /// # Panics
    /// Panics if index rows and database rows do not correspond.
    pub fn new(bbs: &'a Bbs, db: &'a TransactionDb) -> Self {
        assert_eq!(bbs.rows(), db.len(), "index rows must match database rows");
        AdhocEngine { bbs, db }
    }

    /// Upper-bound estimate of a pattern's support (no database access).
    pub fn estimate(&self, items: &Itemset, io: &mut IoStats) -> u64 {
        self.bbs.est_count(items, io)
    }

    /// Exact support of any pattern: estimate, then probe only the
    /// nominated rows (the paper's Query 1).
    pub fn count(&self, items: &Itemset, io: &mut IoStats) -> u64 {
        probe_support(self.db, self.bbs, items, None, io)
    }

    /// Exact support of a pattern among the transactions satisfying a
    /// constraint (the paper's Query 2): the constraint compiles to one
    /// extra bit-slice ANDed into `CountItemSet`'s result.
    pub fn count_constrained<C: Constraint + ?Sized>(
        &self,
        items: &Itemset,
        constraint: &C,
        io: &mut IoStats,
    ) -> u64 {
        let slice = self.compile_constraint(constraint, io);
        probe_support(self.db, self.bbs, items, Some(&slice), io)
    }

    /// Exact support against a pre-compiled constraint slice (reuse the
    /// slice across many queries).
    pub fn count_with_slice(&self, items: &Itemset, slice: &BitVec, io: &mut IoStats) -> u64 {
        probe_support(self.db, self.bbs, items, Some(slice), io)
    }

    /// Compiles a constraint to a bit-slice (one database pass, charged).
    pub fn compile_constraint<C: Constraint + ?Sized>(
        &self,
        constraint: &C,
        io: &mut IoStats,
    ) -> BitVec {
        // Building the slice inspects every transaction once.
        io.db_scans += 1;
        io.db_pages_read += self.db.total_pages();
        build_constraint_slice(self.db, constraint)
    }

    /// Whether a pattern is frequent at an absolute threshold, answered with
    /// as little work as possible: the estimate alone settles the "no" case
    /// (Lemma 4 — an estimate below the threshold is conclusive); otherwise
    /// one probe settles the "yes/no" exactly.
    pub fn is_frequent(&self, items: &Itemset, tau: u64, io: &mut IoStats) -> bool {
        if self.estimate(items, io) < tau {
            return false;
        }
        self.count(items, io) >= tau
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_hash::ModuloHasher;
    use bbs_tdb::{TidModulo, TidRange, Transaction};
    use std::sync::Arc;

    fn set(vals: &[u32]) -> Itemset {
        Itemset::from_values(vals)
    }

    fn fixture() -> (Bbs, TransactionDb) {
        let db = TransactionDb::from_transactions(vec![
            Transaction::new(100, set(&[0, 1, 2, 3, 4, 5, 14, 15])),
            Transaction::new(200, set(&[1, 2, 3, 5, 6, 7])),
            Transaction::new(300, set(&[1, 5, 14, 15])),
            Transaction::new(400, set(&[0, 1, 2, 7])),
            Transaction::new(500, set(&[1, 2, 5, 6, 11, 15])),
        ]);
        let mut io = IoStats::new();
        let bbs = Bbs::build(8, Arc::new(ModuloHasher), &db, &mut io);
        (bbs, db)
    }

    #[test]
    fn query_1_nonfrequent_pattern_count() {
        let (bbs, db) = fixture();
        let engine = AdhocEngine::new(&bbs, &db);
        let mut io = IoStats::new();
        // {1,3} is not frequent at τ=3 (support 2) — exactly the kind of
        // pattern Apriori's result set cannot answer.
        assert_eq!(engine.count(&set(&[1, 3]), &mut io), 2);
        assert_eq!(engine.count(&set(&[4]), &mut io), 1);
        assert_eq!(engine.count(&set(&[8]), &mut io), 0);
        assert_eq!(io.db_scans, 0, "ad-hoc counting never scans");
    }

    #[test]
    fn query_2_constrained_count() {
        let (bbs, db) = fixture();
        let engine = AdhocEngine::new(&bbs, &db);
        let mut io = IoStats::new();
        // TIDs divisible by 200: transactions 200 and 400.
        let c = TidModulo::divisible_by(200);
        assert_eq!(engine.count_constrained(&set(&[1, 2]), &c, &mut io), 2);
        assert_eq!(engine.count_constrained(&set(&[5]), &c, &mut io), 1);
        // Range constraint: TIDs in [100, 300) → transactions 100, 200.
        let r = TidRange {
            start: 100,
            end: 300,
        };
        assert_eq!(engine.count_constrained(&set(&[5]), &r, &mut io), 2);
    }

    #[test]
    fn constrained_count_equals_filtered_recount() {
        let (bbs, db) = fixture();
        let engine = AdhocEngine::new(&bbs, &db);
        let c = TidModulo::divisible_by(300);
        for items in [&[1u32][..], &[1, 5], &[0, 1], &[9]] {
            let s = set(items);
            let mut io = IoStats::new();
            let constrained = engine.count_constrained(&s, &c, &mut io);
            // Oracle: filter the database manually, then count.
            let expect = db
                .transactions()
                .iter()
                .filter(|t| t.tid.0 % 300 == 0 && s.is_subset_of(&t.items))
                .count() as u64;
            assert_eq!(constrained, expect, "{s:?}");
        }
    }

    #[test]
    fn reusable_constraint_slice() {
        let (bbs, db) = fixture();
        let engine = AdhocEngine::new(&bbs, &db);
        let mut io = IoStats::new();
        let slice = engine.compile_constraint(&TidModulo::divisible_by(200), &mut io);
        let scans_after_compile = io.db_scans;
        assert_eq!(engine.count_with_slice(&set(&[1, 2]), &slice, &mut io), 2);
        assert_eq!(engine.count_with_slice(&set(&[7]), &slice, &mut io), 2);
        assert_eq!(io.db_scans, scans_after_compile, "slice reuse avoids scans");
    }

    #[test]
    fn is_frequent_short_circuits_on_estimate() {
        let (bbs, db) = fixture();
        let engine = AdhocEngine::new(&bbs, &db);
        let mut io = IoStats::new();
        // Item 4 sets only bit 4, whose slice holds a single row, so the
        // estimate (1) is below τ = 2 and the probe is skipped entirely.
        assert!(!engine.is_frequent(&set(&[4]), 2, &mut io));
        assert_eq!(io.db_probes, 0);
        assert!(engine.is_frequent(&set(&[1, 5]), 4, &mut io));
        assert!(!engine.is_frequent(&set(&[1, 5]), 5, &mut io));
    }

    /// A Quest database under the MD5 family, where estimates carry real
    /// false drops (the fixture above is exact by construction).
    fn quest_fixture() -> (Bbs, TransactionDb) {
        let db = bbs_datagen::generate_db(bbs_datagen::QuestConfig::tiny());
        let mut io = IoStats::new();
        let bbs = Bbs::build(96, Arc::new(bbs_hash::Md5BloomHasher::new(3)), &db, &mut io);
        (bbs, db)
    }

    fn full_scan(db: &TransactionDb, items: &Itemset) -> u64 {
        db.transactions()
            .iter()
            .filter(|t| items.is_subset_of(&t.items))
            .count() as u64
    }

    #[test]
    fn exact_counts_match_full_scan() {
        let (bbs, db) = quest_fixture();
        let engine = AdhocEngine::new(&bbs, &db);
        let queries: Vec<Itemset> = db
            .transactions()
            .iter()
            .step_by(40)
            .map(|t| Itemset::from_items(t.items.items().iter().take(2).copied().collect()))
            .collect();
        for q in &queries {
            let mut io = IoStats::new();
            let count = engine.count(q, &mut io);
            let truth = full_scan(&db, q);
            assert_eq!(count, truth, "{q:?}");
            let estimate = engine.estimate(q, &mut IoStats::new());
            assert!(estimate >= truth, "{q:?}");
            assert_eq!(
                io.db_probes, estimate,
                "only the nominated rows are probed: {q:?}"
            );
        }
    }

    #[test]
    fn is_frequent_short_circuits() {
        let (bbs, db) = quest_fixture();
        let engine = AdhocEngine::new(&bbs, &db);
        let mut io = IoStats::new();
        // Two items that may never co-occur: the estimate may still exceed
        // zero, but the answer must be right either way.
        let q = set(&[0, 1]);
        let truth = full_scan(&db, &q);
        assert_eq!(engine.is_frequent(&q, truth.max(1), &mut io), truth >= 1);
        assert!(!engine.is_frequent(&q, db.len() as u64 + 1, &mut io));
    }

    #[test]
    fn constrained_count_matches_filtered_scan() {
        let (bbs, db) = quest_fixture();
        let engine = AdhocEngine::new(&bbs, &db);
        // Constraint slice: even rows only.
        let mut constraint = BitVec::zeros(db.len());
        for i in (0..db.len()).step_by(2) {
            constraint.set(i);
        }
        let mut io = IoStats::new();
        for q in [&[0u32][..], &[1, 2], &[5]] {
            let items = set(q);
            let expect = db
                .transactions()
                .iter()
                .enumerate()
                .filter(|(i, t)| i % 2 == 0 && items.is_subset_of(&t.items))
                .count() as u64;
            assert_eq!(
                engine.count_with_slice(&items, &constraint, &mut io),
                expect,
                "{items:?}"
            );
        }
    }

    #[test]
    fn empty_query_counts_every_row() {
        let (bbs, db) = quest_fixture();
        let engine = AdhocEngine::new(&bbs, &db);
        assert_eq!(
            engine.count(&Itemset::empty(), &mut IoStats::new()),
            db.len() as u64
        );
    }

    #[test]
    fn estimate_dominates_count() {
        let (bbs, db) = fixture();
        let engine = AdhocEngine::new(&bbs, &db);
        let mut io = IoStats::new();
        for items in [&[1u32, 3][..], &[0], &[2, 5, 15], &[6, 7]] {
            let s = set(items);
            assert!(engine.estimate(&s, &mut io) >= engine.count(&s, &mut io));
        }
    }
}
