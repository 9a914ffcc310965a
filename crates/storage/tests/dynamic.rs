//! The dynamic workload, end to end at the storage layer:
//!
//! * **Equivalence oracle** — after any interleaving of inserts and
//!   deletes, the live (tombstone-masked) deployment answers every count
//!   exactly as an offline rebuild from only the surviving rows would.
//! * **Compaction** — rewriting minus the dead rows preserves those
//!   answers, verifies clean, and carries remapped dedup receipts.
//! * **Fold** — halving the width by OR-ing slice halves is bit-for-bit
//!   the index a full re-hash at `m/2` builds.
//! * **Crash torture** — a crash at every durable step of the staged
//!   swap recovers, on reopen, to exactly the old or exactly the new
//!   state, fsck-clean either way — reopened offline and, on a second
//!   copy of the same crash, through the served open.

use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_storage::diskbbs::DiskDeployment;
use bbs_storage::{
    compact_deployment, compact_deployment_hooked, fold_deployment, fold_deployment_hooked,
    DedupReceipt, Pager, SharedDeployment,
};
use bbs_tdb::{Itemset, TransactionDb};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const CACHE: usize = 64;

static CASE: AtomicU64 = AtomicU64::new(0);

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "bbs_dyn_{}_{}_{}",
        std::process::id(),
        name,
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        DiskDeployment::remove_files(&self.0).ok();
    }
}

fn hasher() -> Arc<dyn ItemHasher> {
    Arc::new(Md5BloomHasher::new(3))
}

fn open(b: &Path, width: usize) -> DiskDeployment {
    DiskDeployment::open(b, width, hasher(), CACHE).expect("open deployment")
}

/// Strategy: a small random transaction database over items `0..items`.
fn arb_db(items: u32, max_txns: usize) -> impl Strategy<Value = TransactionDb> {
    proptest::collection::vec(
        proptest::collection::btree_set(0..items, 1..8),
        1..max_txns,
    )
    .prop_map(|txns| {
        TransactionDb::from_itemsets(txns.into_iter().map(|s| s.into_iter().collect::<Itemset>()))
    })
}

fn arb_itemset(items: u32) -> impl Strategy<Value = Itemset> {
    proptest::collection::btree_set(0..items, 1..5).prop_map(|s| s.into_iter().collect())
}

/// A fresh deployment holding only the surviving transactions of `db` —
/// the offline-rebuild oracle the live index must match.
fn survivor_deployment(name: &str, db: &TransactionDb, dead: &[u64], width: usize) -> (PathBuf, Cleanup) {
    let b = base(name);
    let g = Cleanup(b.clone());
    let mut dep = open(&b, width);
    for (row, t) in db.transactions().iter().enumerate() {
        if !dead.contains(&(row as u64)) {
            dep.append(t).expect("append survivor");
        }
    }
    dep.flush().expect("flush survivors");
    (b, g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Inserts and deletes interleaved across several commits: every
    /// count (single and batched) equals the offline rebuild from only
    /// the surviving rows — the masking lemma, end to end.
    #[test]
    fn deletes_match_survivor_rebuild(
        db in arb_db(24, 40),
        queries in proptest::collection::vec(arb_itemset(24), 1..6),
        dead_picks in proptest::collection::vec(0usize..40, 0..12),
        width in 16usize..48,
    ) {
        let b = base("oracle");
        let _g = Cleanup(b.clone());
        let n = db.len();
        let half = n / 2;
        let dead: Vec<u64> = {
            let mut d: Vec<u64> = dead_picks.iter().map(|&p| (p % n) as u64).collect();
            d.sort_unstable();
            d.dedup();
            d
        };

        // Interleave: first half, delete the dead rows that fall in it,
        // second half, then the rest of the deletes.
        let mut dep = open(&b, width);
        for t in &db.transactions()[..half] {
            dep.append(t).expect("append");
        }
        dep.flush().expect("flush");
        let (early, late): (Vec<u64>, Vec<u64>) =
            dead.iter().partition(|&&r| r < half as u64);
        dep.commit_deletes(&early, &[]).expect("delete early");
        for t in &db.transactions()[half..] {
            dep.append(t).expect("append");
        }
        dep.flush().expect("flush");
        dep.commit_deletes(&late, &[]).expect("delete late");
        prop_assert_eq!(dep.deleted_rows(), dead.len() as u64);
        prop_assert_eq!(dep.live_rows(), (n - dead.len()) as u64);

        let (ob, _og) = survivor_deployment("oracle_ref", &db, &dead, width);
        let oracle = open(&ob, width);
        for q in &queries {
            prop_assert_eq!(
                dep.index.count_itemset(q).expect("count"),
                oracle.index.count_itemset(q).expect("oracle count")
            );
        }
        let batched = dep.index.count_itemsets(&queries, None).expect("count_many");
        let oracle_batched = oracle.index.count_itemsets(&queries, None).expect("oracle many");
        prop_assert_eq!(batched, oracle_batched);

        // And the same after a reopen (tombstones are durable).
        drop(dep);
        let dep = open(&b, width);
        prop_assert_eq!(dep.deleted_rows(), dead.len() as u64);
        for q in &queries {
            prop_assert_eq!(
                dep.index.count_itemset(q).expect("count after reopen"),
                oracle.index.count_itemset(q).expect("oracle count")
            );
        }
    }

    /// Compaction drops exactly the dead rows: the rewritten deployment
    /// holds the survivors in order, answers like the oracle, verifies
    /// clean, and remembers carried (remapped) dedup receipts.
    #[test]
    fn compaction_equals_survivor_rebuild(
        db in arb_db(24, 40),
        queries in proptest::collection::vec(arb_itemset(24), 1..5),
        dead_picks in proptest::collection::vec(0usize..40, 1..12),
        width in 16usize..48,
    ) {
        let b = base("compact");
        let _g = Cleanup(b.clone());
        let n = db.len();
        let dead: Vec<u64> = {
            let mut d: Vec<u64> = dead_picks.iter().map(|&p| (p % n) as u64).collect();
            d.sort_unstable();
            d.dedup();
            d
        };
        {
            let mut dep = open(&b, width);
            for t in db.transactions() {
                dep.append(t).expect("append");
            }
            // The whole load carries one receipt so compaction has a row
            // range to remap.
            dep.flush_with_receipts(&[(7, DedupReceipt { first_row: 0, appended: n as u64 })])
                .expect("flush");
            dep.commit_deletes(&dead, &[(9, DedupReceipt { first_row: u64::MAX, appended: dead.len() as u64 })])
                .expect("delete");
        }

        let report = compact_deployment(&b, width, hasher(), None, CACHE).expect("compact");
        prop_assert_eq!(report.rows_before, n as u64);
        prop_assert_eq!(report.rows_after, (n - dead.len()) as u64);
        prop_assert_eq!(report.reclaimed, dead.len() as u64);

        let verify = DiskDeployment::verify(&b).expect("verify");
        prop_assert!(verify.is_clean(), "post-compaction fsck: {:?}", verify.problems);
        prop_assert_eq!(verify.deleted_rows, 0);

        let mut dep = open(&b, width);
        prop_assert_eq!(dep.db.len(), (n - dead.len()) as u64);
        prop_assert_eq!(dep.deleted_rows(), 0);
        let survivors: Vec<_> = db
            .transactions()
            .iter()
            .enumerate()
            .filter(|(row, _)| !dead.contains(&(*row as u64)))
            .map(|(_, t)| t.clone())
            .collect();
        let loaded = dep.db.load().expect("load heap");
        prop_assert_eq!(loaded.transactions(), &survivors[..]);

        let (ob, _og) = survivor_deployment("compact_ref", &db, &dead, width);
        let oracle = open(&ob, width);
        for q in &queries {
            prop_assert_eq!(
                dep.index.count_itemset(q).expect("count"),
                oracle.index.count_itemset(q).expect("oracle count")
            );
        }

        // The insert receipt survived, its row range remapped by the
        // rank of the dead rows below it; the delete sentinel is intact.
        let r = dep.dedup_lookup(7).expect("receipt 7 carried");
        prop_assert_eq!(r.first_row, 0);
        prop_assert_eq!(r.appended, (n - dead.len()) as u64);
        let s = dep.dedup_lookup(9).expect("receipt 9 carried");
        prop_assert_eq!(s.first_row, u64::MAX);
        prop_assert_eq!(s.appended, dead.len() as u64);
    }

    /// Folding is bit-for-bit a re-hash at the halved width: every page
    /// of the folded slice file equals the corresponding page of a fresh
    /// deployment built at `m/2` over the same transactions, and counts
    /// agree exactly.
    #[test]
    fn fold_is_bit_for_bit_a_rehash_at_half_width(
        db in arb_db(24, 40),
        queries in proptest::collection::vec(arb_itemset(24), 1..5),
        half in 8usize..24,
    ) {
        let width = half * 2;
        let b = base("fold");
        let _g = Cleanup(b.clone());
        {
            let mut dep = open(&b, width);
            for t in db.transactions() {
                dep.append(t).expect("append");
            }
            dep.flush().expect("flush");
        }

        let report = fold_deployment(&b, hasher(), CACHE).expect("fold");
        prop_assert_eq!(report.width, half);
        prop_assert_eq!(report.rows_after, db.len() as u64);

        let verify = DiskDeployment::verify(&b).expect("verify");
        prop_assert!(verify.is_clean(), "post-fold fsck: {:?}", verify.problems);

        // Oracle: a genuine rebuild at the halved width.
        let ob = base("fold_ref");
        let _og = Cleanup(ob.clone());
        {
            let mut dep = open(&ob, half);
            for t in db.transactions() {
                dep.append(t).expect("append oracle");
            }
            dep.flush().expect("flush oracle");
        }

        // Bit-for-bit: identical logical pages in both slice files.
        let folded = bbs_storage::diskbbs::deployment_paths(&b).slices;
        let rebuilt = bbs_storage::diskbbs::deployment_paths(&ob).slices;
        let mut fp = Pager::new(bbs_storage::FileBackend::open(&folded).expect("open folded"))
            .expect("pager folded");
        let mut rp = Pager::new(bbs_storage::FileBackend::open(&rebuilt).expect("open rebuilt"))
            .expect("pager rebuilt");
        prop_assert_eq!(fp.page_count(), rp.page_count());
        for p in 0..fp.page_count() {
            let id = bbs_storage::PageId(p);
            prop_assert_eq!(
                fp.read_page(id).expect("read folded"),
                rp.read_page(id).expect("read rebuilt"),
                "page {} differs", p
            );
        }

        let dep = open(&b, half);
        let oracle = open(&ob, half);
        for q in &queries {
            prop_assert_eq!(
                dep.index.count_itemset(q).expect("count folded"),
                oracle.index.count_itemset(q).expect("count rebuilt")
            );
        }
    }
}

/// Builds a deployment with `n` rows, deletes `dead`, and returns the
/// expected survivor row count.
fn seed_workload(b: &Path, width: usize, n: usize, dead: &[u64]) -> u64 {
    let db = TransactionDb::from_itemsets(
        (0..n).map(|i| [i as u32 % 7, (i as u32 / 7) % 5 + 7, 13].into_iter().collect::<Itemset>()),
    );
    let mut dep = open(b, width);
    for t in db.transactions() {
        dep.append(t).expect("append");
    }
    dep.flush().expect("flush");
    dep.commit_deletes(dead, &[]).expect("delete");
    (n - dead.len()) as u64
}

/// An injected crash at `crash_at`, for the swap hooks.
fn crash_hook(crash_at: &str) -> impl FnMut(&'static str) -> std::io::Result<()> + '_ {
    move |step| {
        if step == crash_at {
            Err(std::io::Error::other(format!("injected crash at {step}")))
        } else {
            Ok(())
        }
    }
}

/// What a server restarted on `b` serves: `(rows, live rows, width)` of
/// the first snapshot, the count of the item every row holds, and — once
/// the server is gone again — a clean fsck.
fn served_reopen(b: &Path, width_hint: usize, crash_at: &str) -> (u64, u64, usize) {
    let shared = SharedDeployment::open(b, width_hint, hasher(), CACHE)
        .unwrap_or_else(|e| panic!("served reopen after a crash at {crash_at}: {e}"));
    let snap = shared.snapshot();
    let q: Itemset = [13u32].into_iter().collect();
    assert_eq!(snap.count(&q).expect("count"), snap.live_rows(), "at {crash_at}");
    let state = (snap.rows(), snap.live_rows(), shared.width());
    drop((snap, shared));
    let verify = DiskDeployment::verify(b).expect("verify");
    assert!(verify.is_clean(), "served, at {crash_at}: {:?}", verify.problems);
    state
}

/// Crash at every durable step of the compaction swap: each prefix of
/// the protocol must reopen to exactly the old or exactly the new state,
/// fsck-clean either way.
#[test]
fn compaction_crash_torture_recovers_old_or_new() {
    let steps = [
        "build",
        "marker",
        "rename-dat",
        "rename-idx",
        "rename-slices",
        "rename-counts",
        "rename-dedup",
        "rename-log",
        "rename-del",
        "rename-commit",
        "unmark",
    ];
    let width = 24;
    let dead: Vec<u64> = vec![1, 3, 4, 10, 17];
    for crash_at in &steps {
        let b = base("torture");
        let _g = Cleanup(b.clone());
        let live = seed_workload(&b, width, 20, &dead);

        let result = compact_deployment_hooked(&b, width, hasher(), None, CACHE, &mut |step| {
            if step == *crash_at {
                Err(std::io::Error::other(format!("injected crash at {step}")))
            } else {
                Ok(())
            }
        });
        assert!(result.is_err(), "hook at {crash_at} must abort");

        // Reopen = crash recovery: resolves the half-done swap first.
        let dep = open(&b, width);
        let rows = dep.db.len();
        let deleted = dep.deleted_rows();
        if *crash_at == "build" {
            // Crashed before the marker: the swap never committed.
            assert_eq!((rows, deleted), (20, dead.len() as u64), "at {crash_at}");
        } else {
            // Marker was durable: the swap rolls forward on reopen.
            assert_eq!((rows, deleted), (live, 0), "at {crash_at}");
        }
        assert_eq!(dep.live_rows(), live, "at {crash_at}");
        let q: Itemset = [13u32].into_iter().collect();
        assert_eq!(dep.index.count_itemset(&q).expect("count"), live, "at {crash_at}");
        drop(dep);
        let verify = DiskDeployment::verify(&b).expect("verify");
        assert!(verify.is_clean(), "at {crash_at}: {:?}", verify.problems);

        // The same crash on a fresh copy, reopened the way `bbs serve`
        // does: the served open resolves the swap to the same state.
        let sb = base("torture_served");
        let _sg = Cleanup(sb.clone());
        seed_workload(&sb, width, 20, &dead);
        compact_deployment_hooked(&sb, width, hasher(), None, CACHE, &mut crash_hook(crash_at))
            .expect_err("hook must abort");
        assert_eq!(
            served_reopen(&sb, width, crash_at),
            (rows, live, width),
            "served reopen at {crash_at}"
        );
    }
}

/// Same torture for the fold swap (only `slices` and `commit` move).
#[test]
fn fold_crash_torture_recovers_old_or_new() {
    let steps = ["build", "marker", "rename-slices", "rename-commit", "unmark"];
    let width = 24;
    for crash_at in &steps {
        let b = base("fold_torture");
        let _g = Cleanup(b.clone());
        let live = seed_workload(&b, width, 20, &[2, 5]);

        let result = fold_deployment_hooked(&b, hasher(), CACHE, &mut |step| {
            if step == *crash_at {
                Err(std::io::Error::other(format!("injected crash at {step}")))
            } else {
                Ok(())
            }
        });
        assert!(result.is_err(), "hook at {crash_at} must abort");

        // Crash recovery first (reopen would run this too), then the
        // on-disk header decides which width survived.
        bbs_storage::finish_pending_swap(&b).expect("finish swap");
        let survived = bbs_storage::slicefile::header_width(
            &bbs_storage::diskbbs::deployment_paths(&b).slices,
        )
        .expect("header")
        .expect("slice file present");
        if *crash_at == "build" {
            assert_eq!(survived, width, "at {crash_at}");
        } else {
            assert_eq!(survived, width / 2, "at {crash_at}");
        }
        let dep = open(&b, survived);
        assert_eq!(dep.db.len(), 20, "at {crash_at}");
        assert_eq!(dep.live_rows(), live, "at {crash_at}");
        let q: Itemset = [13u32].into_iter().collect();
        assert_eq!(dep.index.count_itemset(&q).expect("count"), live, "at {crash_at}");
        drop(dep);
        let verify = DiskDeployment::verify(&b).expect("verify");
        assert!(verify.is_clean(), "at {crash_at}: {:?}", verify.problems);

        // The same crash on a fresh copy, reopened the way `bbs serve`
        // does — still configured for the old width: the header width of
        // whichever state survived is the one served.
        let sb = base("fold_torture_served");
        let _sg = Cleanup(sb.clone());
        seed_workload(&sb, width, 20, &[2, 5]);
        fold_deployment_hooked(&sb, hasher(), CACHE, &mut crash_hook(crash_at))
            .expect_err("hook must abort");
        assert_eq!(
            served_reopen(&sb, width, crash_at),
            (20, live, survived),
            "served reopen at {crash_at}"
        );
    }
}

/// A server restarted after a crash at the swap's `marker` step — the
/// compaction committed, no file renamed yet — serves the compacted state
/// at once.  Were it to open the old files and leave marker and staging in
/// place, the rows it then acknowledged would be rolled away when the next
/// compaction began by finishing the stale swap.
#[test]
fn rows_acknowledged_after_a_crash_at_marker_survive_the_next_compaction() {
    let b = base("lost_rows");
    let _g = Cleanup(b.clone());
    let width = 24;
    let live = seed_workload(&b, width, 20, &[1, 3, 4, 10, 17]);
    compact_deployment_hooked(&b, width, hasher(), None, CACHE, &mut crash_hook("marker"))
        .expect_err("hook must abort");

    let shared = SharedDeployment::open(&b, width, hasher(), CACHE).expect("served reopen");
    assert_eq!((shared.snapshot().rows(), shared.snapshot().live_rows()), (live, live));
    assert!(!bbs_storage::maintain::swap_marker_path(&b).exists(), "swap resolved by the open");

    let fresh = TransactionDb::from_itemsets(
        (0..5).map(|_| [40u32, 41].into_iter().collect::<Itemset>()),
    );
    shared.commit(fresh.transactions()).expect("commit");
    let q: Itemset = [40u32, 41].into_iter().collect();
    assert_eq!(shared.snapshot().count(&q).expect("count"), 5);

    let report = shared.compact(None).expect("compact");
    assert_eq!((report.rows_before, report.rows_after), (live + 5, live + 5));
    assert_eq!(shared.snapshot().rows(), live + 5);
    assert_eq!(shared.snapshot().count(&q).expect("count after compact"), 5);
}

/// `verify` names a half-done swap as its own problem — a committed one
/// instead of the page corruption the half-renamed files would read as,
/// an uncommitted one beside the intact old files — and stays read-only.
#[test]
fn verify_names_a_pending_swap_and_touches_nothing() {
    let listing = |b: &Path| -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(b.parent().expect("parent"))
            .expect("read_dir")
            .map(|e| e.expect("entry").path())
            .filter(|p| {
                let stem = b.file_name().expect("name").to_string_lossy().into_owned();
                p.file_name().is_some_and(|n| n.to_string_lossy().contains(&stem))
            })
            .map(|p| (p.display().to_string(), std::fs::read(&p).expect("read")))
            .collect();
        files.sort();
        files
    };
    for (crash_at, committed) in [("build", false), ("marker", true), ("rename-idx", true)] {
        let b = base("verify_swap");
        let _g = Cleanup(b.clone());
        seed_workload(&b, 24, 20, &[1, 3]);
        compact_deployment_hooked(&b, 24, hasher(), None, CACHE, &mut crash_hook(crash_at))
            .expect_err("hook must abort");
        let before = listing(&b);
        let report = DiskDeployment::verify(&b).expect("verify");
        assert_eq!(listing(&b), before, "verify wrote at {crash_at}");
        assert!(report.corrupt_pages.is_empty(), "at {crash_at}: {report}");
        let [problem] = &report.problems[..] else {
            panic!("at {crash_at}: one problem line expected: {report}");
        };
        assert!(problem.starts_with("pending maintenance swap"), "{problem}");
        assert_eq!(problem.contains("rolls it forward"), committed, "{problem}");
        // Opening resolves it either way, and fsck is clean again.
        drop(open(&b, 24));
        let verify = DiskDeployment::verify(&b).expect("verify");
        assert!(verify.is_clean(), "at {crash_at}: {:?}", verify.problems);
    }
}

/// Torn swap markers and staging debris never install a half-built
/// state: reopen cleans them up and the old files stay live.
#[test]
fn torn_marker_and_debris_are_cleaned_up() {
    let b = base("debris");
    let _g = Cleanup(b.clone());
    let live = seed_workload(&b, 24, 12, &[0, 6]);

    // Fake a crash mid-build: staging files exist, marker torn.
    let staging = bbs_storage::maintain::staging_base(&b);
    let spaths = bbs_storage::diskbbs::deployment_paths(&staging);
    std::fs::write(&spaths.slices, b"half-built garbage").expect("write debris");
    std::fs::write(&spaths.dat, b"more garbage").expect("write debris");
    let marker = bbs_storage::maintain::swap_marker_path(&b);
    std::fs::write(&marker, b"BBSSWAP1 torn").expect("write torn marker");

    let dep = open(&b, 24);
    assert_eq!(dep.db.len(), 12);
    assert_eq!(dep.live_rows(), live);
    let q: Itemset = [13u32].into_iter().collect();
    assert_eq!(dep.index.count_itemset(&q).expect("count"), live);
    assert!(!marker.exists(), "torn marker removed");
    assert!(!spaths.slices.exists(), "staging debris removed");
    assert!(!spaths.dat.exists(), "staging debris removed");
}

/// The online (shared-deployment) maintenance path: fold halves the
/// published width, compaction drops tombstones, snapshots flip to the
/// new epoch, and the FPR gauge stays measurable throughout.
#[test]
fn shared_deployment_folds_and_compacts_online() {
    let b = base("shared");
    let _g = Cleanup(b.clone());
    let width = 32;
    let shared = SharedDeployment::open(&b, width, hasher(), CACHE).expect("open shared");
    let db = TransactionDb::from_itemsets(
        (0..40u32).map(|i| [i % 7, i % 5 + 7, 13].into_iter().collect::<Itemset>()),
    );
    shared.commit(db.transactions()).expect("commit");
    shared
        .delete_rows(&[1, 2, 3, 30], &[])
        .expect("delete rows");
    assert_eq!(shared.snapshot().live_rows(), 36);
    let q: Itemset = [13u32].into_iter().collect();
    assert_eq!(shared.snapshot().count(&q).expect("count"), 36);

    let before = shared.epoch();
    let report = shared.fold().expect("fold");
    assert_eq!(report.width, width / 2);
    assert_eq!(shared.width(), width / 2);
    assert!(shared.epoch() > before);
    // Folding keeps rows and tombstones; counts stay oracle-exact for a
    // query whose support is its exact count at any width.
    assert_eq!(shared.snapshot().rows(), 40);
    assert_eq!(shared.snapshot().live_rows(), 36);
    assert_eq!(shared.snapshot().count(&q).expect("count after fold"), 36);

    let report = shared.compact(None).expect("compact");
    assert_eq!(report.rows_after, 36);
    assert_eq!(report.reclaimed, 4);
    assert_eq!(shared.snapshot().rows(), 36);
    assert_eq!(shared.snapshot().deleted_rows(), 0);
    assert_eq!(shared.snapshot().count(&q).expect("count after compact"), 36);

    // The FPR gauge is well-defined on the compacted, folded index.
    let fpr = shared.snapshot().measure_fpr(64, 0xBB5).expect("measure fpr");
    assert!((0.0..=1.0).contains(&fpr), "fpr {fpr} out of range");

    // Writes keep flowing after maintenance.
    shared.commit(db.transactions()).expect("commit after maintenance");
    assert_eq!(shared.snapshot().rows(), 76);
}
