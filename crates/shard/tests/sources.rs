//! One enumerator, many sources: whatever answers `CountItemSet` — the
//! memory-resident cursor, a disk reader, a cross-shard sum over one or
//! three shards — the single depth-first walk of `bbs_core::filter` must
//! mine the exact frequent set, for every scheme and any worker count.
//! The oracle is `NaiveMiner`, which shares no code with the index.

use bbs_core::{run_filter_source_threaded, BbsCursor, CountSource, Scheme};
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_shard::{sum_item_counts, ShardedCounter, ShardedDeployment};
use bbs_storage::diskbbs::DiskDeployment;
use bbs_tdb::{
    FrequentPatternMiner, IoStats, ItemId, Itemset, MineResult, NaiveMiner, PatternSet,
    SupportThreshold, Transaction, TransactionDb,
};
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

const TAU: u64 = 14;
const WIDTH: usize = 64;

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_sources_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(Vec<PathBuf>);
impl Drop for Cleanup {
    fn drop(&mut self) {
        for path in &self.0 {
            DiskDeployment::remove_files(path).ok();
            ShardedDeployment::remove_files(path).ok();
        }
    }
}

fn hasher() -> Arc<dyn ItemHasher> {
    Arc::new(Md5BloomHasher::new(3))
}

/// 300 transactions over 36 items: a pseudo-random pair per row plus
/// planted groups of period 2, 3 and 5, at a width narrow enough that the
/// filter over-estimates and leaves real work to refinement.
fn transactions() -> Vec<Transaction> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    (0..300u64)
        .map(|i| {
            let mut items = vec![next() % 30, next() % 30];
            if i % 2 == 0 {
                items.extend([30, 31]);
            }
            if i % 3 == 0 {
                items.extend([32, 33, 34]);
            }
            if i % 5 == 0 {
                items.extend([31, 35]);
            }
            // Skewed TIDs, so the residue classes are uneven.
            Transaction::new(3 * i + i % 2, Itemset::from_values(&items))
        })
        .collect()
}

/// Runs the one enumerator over `make`'s sources and settles it against
/// exact supports counted from `db`.
fn mine_through<C: CountSource + Send>(
    make: impl Fn() -> io::Result<C> + Sync,
    actuals: &HashMap<ItemId, u64>,
    scheme: Scheme,
    threads: usize,
    db: &TransactionDb,
) -> MineResult {
    let (out, sources) = run_filter_source_threaded(make, actuals, scheme.filter(), TAU, threads)
        .expect("filter run");
    assert!(
        (1..=threads).contains(&sources.len()),
        "one source per worker"
    );
    out.settle(TAU, |cands| {
        Ok(cands
            .iter()
            .map(|c| db.count_support(c, &mut IoStats::new()))
            .collect())
    })
    .expect("settle")
}

/// Identical pattern sets; identical supports except for patterns the
/// DualFilter certified on an estimate, which must upper-bound the truth.
fn assert_is_the_truth(got: &MineResult, truth: &PatternSet, what: &str) {
    assert_eq!(got.patterns.len(), truth.len(), "{what}: pattern count");
    for (items, support) in got.patterns.iter() {
        let exact = truth
            .support(items)
            .unwrap_or_else(|| panic!("{what}: spurious pattern {items:?}"));
        if got.approx_supports.contains(items) {
            assert!(
                support >= exact,
                "{what}: {items:?} approx {support} < {exact}"
            );
        } else {
            assert_eq!(support, exact, "{what}: {items:?}");
        }
    }
}

fn canon(r: &MineResult) -> (Vec<(Itemset, u64)>, Vec<Itemset>) {
    let mut patterns: Vec<(Itemset, u64)> =
        r.patterns.iter().map(|(k, s)| (k.clone(), s)).collect();
    patterns.sort();
    let mut approx: Vec<Itemset> = r.approx_supports.iter().cloned().collect();
    approx.sort();
    (patterns, approx)
}

#[test]
fn every_source_mines_the_exact_frequent_set() {
    let paths = [base("disk"), base("one"), base("three")];
    let _g = Cleanup(paths.to_vec());
    let txns = transactions();

    let mut disk = DiskDeployment::open(&paths[0], WIDTH, hasher(), 64).expect("open");
    let mut one = ShardedDeployment::create(&paths[1], 1, WIDTH, hasher(), 64).expect("create");
    let mut three = ShardedDeployment::create(&paths[2], 3, WIDTH, hasher(), 64).expect("create");
    for txn in &txns {
        disk.append(txn).expect("append");
        one.append(txn).expect("append");
        three.append(txn).expect("append");
    }
    disk.flush().expect("flush");
    one.flush().expect("flush");
    three.flush().expect("flush");

    let db = TransactionDb::from_transactions(txns);
    let bbs = disk.index.load().expect("load index");
    let truth = NaiveMiner::new()
        .mine(&db, SupportThreshold::Count(TAU))
        .patterns;
    assert!(
        truth.len() > 30 && truth.max_len() >= 3,
        "a real lattice: {}",
        truth.len()
    );

    let sharded = |dep: &ShardedDeployment| -> io::Result<_> {
        let readers = dep.shards().iter().map(|s| s.index.counter());
        Ok(ShardedCounter::new(
            readers.collect::<io::Result<_>>()?,
            dep.shard_rows(),
        ))
    };
    let actuals = |dep: &ShardedDeployment| {
        sum_item_counts(dep.shards().iter().map(|s| s.index.item_counts()))
    };
    assert_eq!(&actuals(&three), disk.index.item_counts());

    for scheme in Scheme::ALL {
        // SFP and DFP probe through the memory cursor; no other source
        // can, so they refine by the settle scan like SFS and DFS.
        let probe_db = (scheme.refine() == bbs_core::RefineKind::Probe).then_some(&db);
        for threads in [1, 3] {
            let what = |source: &str| format!("{source} {scheme:?} x{threads}");
            let memory = mine_through(
                || Ok(BbsCursor::new(&bbs, probe_db)),
                bbs.item_counts(),
                scheme,
                threads,
                &db,
            );
            assert_is_the_truth(&memory, &truth, &what("memory cursor"));

            let on_disk = mine_through(
                || disk.index.counter(),
                disk.index.item_counts(),
                scheme,
                threads,
                &db,
            );
            assert_is_the_truth(&on_disk, &truth, &what("disk reader"));

            for (dep, name) in [(&one, "1 shard"), (&three, "3 shards")] {
                let summed = mine_through(|| sharded(dep), &actuals(dep), scheme, threads, &db);
                assert_is_the_truth(&summed, &truth, &what(name));
                // Sources that cannot probe make the same decisions bit
                // for bit: same supports, same approx markers.
                assert_eq!(canon(&summed), canon(&on_disk), "{}", what(name));
            }
            if probe_db.is_none() {
                assert_eq!(
                    canon(&memory),
                    canon(&on_disk),
                    "{}",
                    what("memory vs disk")
                );
            }
        }
    }
}
