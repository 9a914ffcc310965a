//! In-place mining and tombstones: a deleted row is in neither the
//! threshold's base, the filter's counts nor the refinement scan — for
//! every scheme, on one deployment and across shards.  The oracle is
//! [`NaiveMiner`] over the surviving transactions.

use bbs_core::Scheme;
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_shard::{mine_sharded, ShardedDeployment};
use bbs_storage::diskbbs::DiskDeployment;
use bbs_storage::mine_in_place;
use bbs_tdb::{
    FrequentPatternMiner, Itemset, MineResult, NaiveMiner, SupportThreshold, Transaction,
    TransactionDb,
};
use std::path::PathBuf;
use std::sync::Arc;

const WIDTH: usize = 256;
const SHARDS: usize = 3;

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_tombstones_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(PathBuf, PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        DiskDeployment::remove_files(&self.0).ok();
        ShardedDeployment::remove_files(&self.1).ok();
    }
}

fn hasher() -> Arc<dyn ItemHasher> {
    Arc::new(Md5BloomHasher::new(3))
}

/// The same rows in one deployment and in three shards, the TIDs in `dead`
/// tombstoned in both, flushed and reopened as a CLI invocation would find
/// them.
fn build(
    name: &str,
    rows: &[Vec<u32>],
    dead: &[u64],
) -> (DiskDeployment, ShardedDeployment, Cleanup) {
    let (ub, sb) = (base(&format!("{name}_u")), base(&format!("{name}_s")));
    let guard = Cleanup(ub.clone(), sb.clone());
    {
        let mut dep = DiskDeployment::open(&ub, WIDTH, hasher(), 64).expect("open");
        let mut sdep = ShardedDeployment::create(&sb, SHARDS, WIDTH, hasher(), 64).expect("create");
        for (tid, items) in rows.iter().enumerate() {
            let txn = Transaction::new(tid as u64, Itemset::from_values(items));
            dep.append(&txn).expect("append");
            sdep.append(&txn).expect("append sharded");
        }
        dep.flush().expect("flush");
        sdep.flush().expect("flush sharded");
        let hit = dep.resolve_tids(dead).expect("resolve");
        assert_eq!(
            dep.commit_deletes(&hit, &[]).expect("delete"),
            dead.len() as u64
        );
        let mut deleted = 0;
        for shard in sdep.shards_mut() {
            let hit = shard.resolve_tids(dead).expect("resolve shard");
            deleted += shard.commit_deletes(&hit, &[]).expect("delete shard");
        }
        assert_eq!(deleted, dead.len() as u64);
    }
    let dep = DiskDeployment::open(&ub, WIDTH, hasher(), 64).expect("reopen");
    let sdep = ShardedDeployment::open(&sb, hasher(), 64).expect("reopen sharded");
    (dep, sdep, guard)
}

/// What mining the survivors exactly gives.
fn oracle(rows: &[Vec<u32>], dead: &[u64], threshold: SupportThreshold) -> MineResult {
    let mut db = TransactionDb::new();
    for (tid, items) in rows.iter().enumerate() {
        if !dead.contains(&(tid as u64)) {
            db.push(Transaction::new(tid as u64, Itemset::from_values(items)));
        }
    }
    NaiveMiner::new().mine(&db, threshold)
}

/// Same patterns; supports exact, except that a certified estimate (a
/// DualFilter flag-2 pattern) may exceed the exact support.
fn assert_matches(got: &MineResult, want: &MineResult, what: &str) {
    let keys = |r: &MineResult| {
        let mut k: Vec<Itemset> = r.patterns.iter().map(|(items, _)| items.clone()).collect();
        k.sort();
        k
    };
    assert_eq!(keys(got), keys(want), "{what}: the frequent itemsets");
    for (items, support) in got.patterns.iter() {
        let exact = want.patterns.support(items).expect("same keys");
        if got.approx_supports.contains(items) {
            assert!(support >= exact, "{what}: {items:?} {support} < {exact}");
        } else {
            assert_eq!(support, exact, "{what}: support of {items:?}");
        }
    }
}

fn check_all(
    dep: &mut DiskDeployment,
    sdep: &mut ShardedDeployment,
    want: &MineResult,
    threshold: SupportThreshold,
) {
    for scheme in Scheme::ALL {
        for threads in [1, 3] {
            let (single, _) = mine_in_place(dep, scheme, threshold, threads).expect("mine");
            assert_matches(
                &single,
                want,
                &format!("{scheme:?} x{threads}, one deployment"),
            );
            let (sharded, _) =
                mine_sharded(sdep, scheme, threshold, threads).expect("mine sharded");
            assert_matches(
                &sharded,
                want,
                &format!("{scheme:?} x{threads}, {SHARDS} shards"),
            );
            assert_eq!(
                sharded.approx_supports, single.approx_supports,
                "{scheme:?} x{threads}: sharded and unsharded certify alike"
            );
        }
    }
}

/// The reproduction from the issue: ten `{1,2}` rows of which eight are
/// tombstoned, ten `{3}` rows, τ = 2.  The scan schemes used to refine
/// `{1}`, `{2}` and `{1,2}` against all ten rows and report support 10.
#[test]
fn refinement_does_not_count_tombstoned_rows() {
    let mut rows = vec![vec![1, 2]; 10];
    rows.extend(vec![vec![3]; 10]);
    let dead: Vec<u64> = (0..8).collect();
    let threshold = SupportThreshold::Count(2);
    let (mut dep, mut sdep, _g) = build("repro", &rows, &dead);
    let want = oracle(&rows, &dead, threshold);
    assert_eq!(
        want.patterns.support(&Itemset::from_values(&[1, 2])),
        Some(2)
    );
    assert_eq!(want.patterns.len(), 4);
    check_all(&mut dep, &mut sdep, &want, threshold);
    for scheme in Scheme::ALL {
        let (single, _) = mine_in_place(&mut dep, scheme, threshold, 1).expect("mine");
        let (sharded, _) = mine_sharded(&mut sdep, scheme, threshold, 1).expect("mine sharded");
        for result in [&single, &sharded] {
            for items in [&[1][..], &[2], &[1, 2]] {
                let support = result.patterns.support(&Itemset::from_values(items));
                assert_eq!(support, Some(2), "{scheme:?}: {items:?}");
            }
        }
    }
}

/// A churned deployment: most rows dead, a pair that reaches τ only with
/// the dead rows counted, and a fractional threshold that an item clears
/// against the live rows but not against all of them.
#[test]
fn every_scheme_mines_the_survivors_single_and_sharded() {
    // 300 rows.  Item 7 rides rows 0..60 (all survive); the pair {20,21}
    // rides 45 rows, all but one of them dead; background items fill the
    // rest.
    let mut rows: Vec<Vec<u32>> = Vec::new();
    for i in 0..300u32 {
        let mut items = vec![30 + i % 5, 40 + i % 3];
        if i < 60 {
            items.push(7);
        }
        if (100..145).contains(&i) {
            items.extend([20, 21]);
        }
        if i.is_multiple_of(4) {
            items.extend([50, 51]);
        }
        rows.push(items);
    }
    // Dead: rows 100..300 but every eleventh from 135 on — 185 of 300.
    let dead: Vec<u64> = (100..300u64).filter(|r| *r < 135 || r % 11 != 0).collect();
    let live = rows.len() - dead.len();
    assert!(dead.len() * 2 > rows.len(), "a majority is dead");

    // Count threshold: {20,21} has 45 rows, ≥ τ = 12 only with the dead.
    let count = SupportThreshold::Count(12);
    let want = oracle(&rows, &dead, count);
    let pair = Itemset::from_values(&[20, 21]);
    assert_eq!(want.patterns.support(&pair), None, "one live row < 12");
    let (mut dep, mut sdep, _g) = build("churn", &rows, &dead);
    assert_eq!(dep.live_rows() as usize, live);
    check_all(&mut dep, &mut sdep, &want, count);

    // Fraction threshold: item 7 has 60 rows.  50 % of the live rows is at
    // most 60; 50 % of all 300 rows is 150.
    let half = SupportThreshold::Fraction(0.5);
    assert!(half.resolve(live) <= 60 && half.resolve(rows.len()) > 60);
    let want = oracle(&rows, &dead, half);
    assert_eq!(want.patterns.support(&Itemset::from_values(&[7])), Some(60));
    check_all(&mut dep, &mut sdep, &want, half);
}
