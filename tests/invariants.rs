//! Property-based tests for the paper's formal guarantees (Lemmas 1–5,
//! Corollary 1) and the structural invariants listed in DESIGN.md.

use bbs_core::{run_filter, AdhocEngine, Bbs, FilterKind};
use bbs_hash::{Md5BloomHasher, ModuloHasher};
use bbs_tdb::{
    FrequentPatternMiner, IoStats, ItemId, Itemset, SupportThreshold, TidModulo, TransactionDb,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: a small random transaction database over items `0..items`.
fn arb_db(items: u32, max_txns: usize) -> impl Strategy<Value = TransactionDb> {
    proptest::collection::vec(
        proptest::collection::btree_set(0..items, 1..8),
        1..max_txns,
    )
    .prop_map(|txns| {
        TransactionDb::from_itemsets(
            txns.into_iter()
                .map(|s| s.into_iter().collect::<Itemset>()),
        )
    })
}

/// Strategy: a random query itemset over the same item space.
fn arb_itemset(items: u32) -> impl Strategy<Value = Itemset> {
    proptest::collection::btree_set(0..items, 1..5).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 4: the BBS estimate never undercounts, for any database, any
    /// itemset, any width, under the paper's MD5 hash family.
    #[test]
    fn estimate_is_upper_bound(
        db in arb_db(40, 30),
        query in arb_itemset(40),
        width in 8usize..96,
        k in 1usize..5,
    ) {
        let mut io = IoStats::new();
        let bbs = Bbs::build(width, Arc::new(Md5BloomHasher::new(k)), &db, &mut io);
        let est = bbs.est_count(&query, &mut io);
        let act = db.count_support(&query, &mut io);
        prop_assert!(est >= act, "est {est} < act {act} for {query:?}");
    }

    /// §2.2 extreme: with `m ≥ |items|` and the injective modulo hash the
    /// estimate is exact for every query.
    #[test]
    fn wide_identity_hash_is_exact(
        db in arb_db(32, 25),
        query in arb_itemset(32),
    ) {
        let mut io = IoStats::new();
        let bbs = Bbs::build(32, Arc::new(ModuloHasher), &db, &mut io);
        prop_assert_eq!(
            bbs.est_count(&query, &mut io),
            db.count_support(&query, &mut io)
        );
    }

    /// §2.2 other extreme: with `m = 1` every estimate equals |D|.
    #[test]
    fn width_one_estimates_cardinality(
        db in arb_db(32, 25),
        query in arb_itemset(32),
    ) {
        let mut io = IoStats::new();
        let bbs = Bbs::build(1, Arc::new(Md5BloomHasher::new(2)), &db, &mut io);
        prop_assert_eq!(bbs.est_count(&query, &mut io), db.len() as u64);
    }

    /// Monotonicity (a consequence of Lemma 2): adding items to the query
    /// can only shrink the estimate.
    #[test]
    fn estimate_is_antitone_in_the_itemset(
        db in arb_db(40, 25),
        query in arb_itemset(40),
        extra in 0u32..40,
    ) {
        let mut io = IoStats::new();
        let bbs = Bbs::build(48, Arc::new(Md5BloomHasher::new(3)), &db, &mut io);
        let base = bbs.est_count(&query, &mut io);
        let extended = bbs.est_count(&query.with_item(ItemId(extra)), &mut io);
        prop_assert!(extended <= base);
    }

    /// The SingleFilter candidate set is a superset of the true frequent
    /// patterns (no false misses — Lemma 3 applied recursively).
    #[test]
    fn filter_never_misses_frequent_patterns(
        db in arb_db(24, 30),
        tau in 2u64..6,
    ) {
        let mut io = IoStats::new();
        let bbs = Bbs::build(32, Arc::new(Md5BloomHasher::new(3)), &db, &mut io);
        let out = run_filter(&bbs, FilterKind::Single, None, tau);
        let truth = bbs_tdb::NaiveMiner::new()
            .mine(&db, SupportThreshold::Count(tau))
            .patterns;
        let candidates: std::collections::HashSet<&Itemset> =
            out.uncertain.iter().map(|(s, _)| s).collect();
        for (items, _) in truth.iter() {
            prop_assert!(candidates.contains(items), "missing {items:?}");
        }
    }

    /// DualFilter certainty: everything in the exact bucket has its true
    /// support; everything in the approx bucket is genuinely frequent.
    #[test]
    fn dual_filter_certifications_are_sound(
        db in arb_db(24, 30),
        tau in 2u64..6,
    ) {
        let mut io = IoStats::new();
        let bbs = Bbs::build(32, Arc::new(Md5BloomHasher::new(3)), &db, &mut io);
        let out = run_filter(&bbs, FilterKind::Dual, None, tau);
        for (items, count) in out.frequent.iter() {
            prop_assert_eq!(count, db.count_support(items, &mut io), "{:?}", items);
        }
        for (items, count) in out.approx.iter() {
            let act = db.count_support(items, &mut io);
            prop_assert!(act >= tau, "{items:?} certified but infrequent");
            prop_assert!(count >= act, "{items:?} estimate below actual");
        }
    }

    /// Folding (MemBBS) preserves the upper-bound property.
    #[test]
    fn folding_never_undercounts(
        db in arb_db(32, 25),
        query in arb_itemset(32),
        new_width in 1usize..48,
    ) {
        let mut io = IoStats::new();
        let bbs = Bbs::build(48, Arc::new(Md5BloomHasher::new(3)), &db, &mut io);
        let folded = bbs.fold(new_width, &mut io);
        let est_fold = folded.est_count(&query, &mut io);
        let est = bbs.est_count(&query, &mut io);
        let act = db.count_support(&query, &mut io);
        prop_assert!(est_fold >= est, "fold lost rows");
        prop_assert!(est >= act);
    }

    /// Incremental insertion is equivalent to batch construction.
    #[test]
    fn incremental_equals_batch(db in arb_db(32, 25)) {
        let mut io = IoStats::new();
        let hasher: Arc<dyn bbs_hash::ItemHasher> = Arc::new(Md5BloomHasher::new(4));
        let batch = Bbs::build(64, Arc::clone(&hasher), &db, &mut io);
        let mut inc = Bbs::new(64, hasher);
        for t in db.transactions() {
            inc.insert(t, &mut io);
        }
        for j in 0..64 {
            prop_assert_eq!(
                batch.matrix().slice(j).iter_ones().collect::<Vec<_>>(),
                inc.matrix().slice(j).iter_ones().collect::<Vec<_>>()
            );
        }
        prop_assert_eq!(batch.vocabulary(), inc.vocabulary());
    }

    /// Ad-hoc exact counting agrees with a full scan, for any pattern —
    /// frequent or not.
    #[test]
    fn adhoc_count_is_exact(
        db in arb_db(32, 25),
        query in arb_itemset(32),
    ) {
        let mut io = IoStats::new();
        let bbs = Bbs::build(48, Arc::new(Md5BloomHasher::new(3)), &db, &mut io);
        let engine = AdhocEngine::new(&bbs, &db);
        prop_assert_eq!(
            engine.count(&query, &mut io),
            db.count_support(&query, &mut io)
        );
    }

    /// Constrained ad-hoc counting equals counting over the filtered
    /// database.
    #[test]
    fn constrained_count_equals_filtered_count(
        db in arb_db(32, 25),
        query in arb_itemset(32),
        divisor in 2u64..7,
    ) {
        let mut io = IoStats::new();
        let bbs = Bbs::build(48, Arc::new(Md5BloomHasher::new(3)), &db, &mut io);
        let engine = AdhocEngine::new(&bbs, &db);
        let constraint = TidModulo::divisible_by(divisor);
        let got = engine.count_constrained(&query, &constraint, &mut io);
        let expect = db
            .transactions()
            .iter()
            .filter(|t| t.tid.0 % divisor == 0 && query.is_subset_of(&t.items))
            .count() as u64;
        prop_assert_eq!(got, expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The text format round-trips any database exactly.
    #[test]
    fn text_format_roundtrip(db in arb_db(40, 25)) {
        let mut buf = Vec::new();
        bbs_tdb::write_transactions(&db, &mut buf).expect("write");
        let again = bbs_tdb::read_transactions(buf.as_slice()).expect("read");
        prop_assert_eq!(db.transactions(), again.transactions());
    }
}
