//! Mining a pinned [`Snapshot`] in place — what a served MINE does — under
//! everything that goes on beside it: a compaction to another width and a
//! fold swap different files in under the snapshot's path, and a writer
//! commits inserts and deletes while the walk is in flight.  The oracle is
//! [`NaiveMiner`] over the pinned epoch's live rows.

use bbs_core::{run_filter_source_threaded, CountSource, Scheme};
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_storage::diskbbs::DiskDeployment;
use bbs_storage::snapshot::Snapshot;
use bbs_storage::{DiskCounter, SharedDeployment};
use bbs_tdb::{
    FrequentPatternMiner, ItemId, Itemset, MineResult, NaiveMiner, SupportThreshold, Transaction,
};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_snap_mine_{}_{}", std::process::id(), name));
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

/// Row `i` of a stream with planted groups over a 30-item background.
fn txn(i: u64) -> Transaction {
    let mut items = vec![(i % 30) as u32, ((i * 7 + 3) % 30) as u32];
    if i.is_multiple_of(2) {
        items.extend([41, 42]);
    }
    if i.is_multiple_of(3) {
        items.extend([43, 44, 45]);
    }
    if i.is_multiple_of(5) {
        items.extend([46, 47]);
    }
    Transaction::new(i, Itemset::from_values(&items))
}

/// The `CountItemSet` call of a walk at which a [`Watched`] cursor stops
/// until the deployment has published another epoch — past the level-1
/// survey, inside the walk proper.
const MID_WALK_CALL: u32 = 60;

/// A cursor that, at its [`MID_WALK_CALL`]-th call, waits for a commit to
/// be published before it goes on: the interleaving "a commit lands while
/// the walk is in flight", forced.  If the walk held the fence the commit
/// could not land and the wait runs into its deadline.
struct Watched<'a> {
    cursor: DiskCounter,
    shared: &'a SharedDeployment,
    /// Whether to wait at all (only beside a running writer).
    wait: bool,
    calls: u32,
    /// Whether the awaited epoch was published (`None`: never got there).
    landed: Option<bool>,
}

impl Watched<'_> {
    fn note(&mut self) {
        self.calls += 1;
        if !self.wait || self.calls != MID_WALK_CALL {
            return;
        }
        let (before, deadline) = (
            self.shared.epoch(),
            Instant::now() + Duration::from_secs(30),
        );
        while self.shared.epoch() == before && Instant::now() < deadline {
            std::thread::yield_now();
        }
        self.landed = Some(self.shared.epoch() > before);
    }
}

impl CountSource for Watched<'_> {
    fn count_itemset(&mut self, itemset: &Itemset, tau: u64) -> io::Result<u64> {
        self.note();
        self.cursor.count_itemset(itemset, tau)
    }

    fn count_extensions(
        &mut self,
        prefix: &Itemset,
        extensions: &[ItemId],
        tau: u64,
    ) -> io::Result<Vec<u64>> {
        self.note();
        self.cursor.count_extensions(prefix, extensions, tau)
    }
}

/// Mines `snap` the way the server does: the one enumerator over the
/// snapshot's cursors, the threshold against its live rows, its tally for
/// what stays uncertain.  With `beside_writer`, every worker waits mid-walk
/// for a commit and the second value says, per worker that got that far,
/// whether it came.
fn mine(
    shared: &SharedDeployment,
    snap: &Snapshot,
    scheme: Scheme,
    threshold: SupportThreshold,
    threads: usize,
    beside_writer: bool,
) -> (MineResult, Vec<bool>) {
    let tau = threshold.resolve(snap.live_rows() as usize);
    let make = || {
        Ok(Watched {
            cursor: snap.counter()?,
            shared,
            wait: beside_writer,
            calls: 0,
            landed: None,
        })
    };
    let (out, sources) =
        run_filter_source_threaded(make, snap.item_counts(), scheme.filter(), tau, threads)
            .expect("walk");
    let landed = sources.iter().filter_map(|s| s.landed).collect();
    let result = out.settle(tau, |cands| snap.tally(cands)).expect("settle");
    (result, landed)
}

/// Patterns with supports, and which of them carry estimates.
fn canon(r: &MineResult) -> (Vec<(Itemset, u64)>, Vec<Itemset>) {
    let mut patterns: Vec<(Itemset, u64)> = r
        .patterns
        .iter()
        .map(|(items, s)| (items.clone(), s))
        .collect();
    patterns.sort();
    let mut approx: Vec<Itemset> = r.approx_supports.iter().cloned().collect();
    approx.sort();
    (patterns, approx)
}

/// The exact frequent set of the snapshot's live rows; a certified
/// estimate may exceed the exact support, everything else equals it.
fn assert_exact(got: &MineResult, snap: &Snapshot, threshold: SupportThreshold, what: &str) {
    let (db, _) = snap.load().expect("load");
    assert_eq!(db.len() as u64, snap.live_rows());
    let want = NaiveMiner::new().mine(&db, threshold);
    assert_eq!(
        got.patterns.len(),
        want.patterns.len(),
        "{what}: pattern count"
    );
    for (items, support) in got.patterns.iter() {
        let exact = want
            .patterns
            .support(items)
            .unwrap_or_else(|| panic!("{what}: {items:?} is not frequent"));
        if got.approx_supports.contains(items) {
            assert!(support >= exact, "{what}: {items:?} {support} < {exact}");
        } else {
            assert_eq!(support, exact, "{what}: support of {items:?}");
        }
    }
}

/// Tells the writer thread to stop, also when the test unwinds.
struct StopOnDrop<'a>(&'a AtomicBool);
impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// A held pin answers the same MINE before a compaction, after it (other
/// row numbering, other width, another file under the same name) and after
/// a fold on top; the new snapshot mines the compacted rows.
#[test]
fn a_pinned_snapshot_mines_the_same_across_compaction_and_fold() {
    let b = base("swap");
    let _g = Cleanup(b.clone());
    let shared = SharedDeployment::open(&b, 128, hasher(), 64).expect("open");
    let rows: Vec<Transaction> = (0..900).map(txn).collect();
    shared.commit(&rows).expect("commit");
    let dead: Vec<u64> = (0..900)
        .filter(|i| i % 4 == 1 || (300..420).contains(i))
        .collect();
    shared.delete_tids(&dead, 0).expect("delete");
    let threshold = SupportThreshold::percent(6.0);

    let pin = shared.snapshot();
    assert_eq!((pin.rows(), pin.deleted_rows()), (900, dead.len() as u64));
    let schemes = [Scheme::Sfs, Scheme::Dfp];
    let before: Vec<_> = schemes
        .iter()
        .map(|&scheme| {
            let (result, _) = mine(&shared, &pin, scheme, threshold, 2, false);
            assert_exact(&result, &pin, threshold, &format!("{scheme:?} before"));
            assert!(result.patterns.len() > 20, "{scheme:?}: a real mine");
            canon(&result)
        })
        .collect();

    let report = shared.compact(Some(64)).expect("compact");
    assert_eq!(report.width, 64);
    for (&scheme, want) in schemes.iter().zip(&before) {
        let (result, _) = mine(&shared, &pin, scheme, threshold, 2, false);
        assert_eq!(
            &canon(&result),
            want,
            "{scheme:?}: the pin after the compaction"
        );
    }
    shared.fold().expect("fold");
    assert_eq!(shared.width(), 32);
    for (&scheme, want) in schemes.iter().zip(&before) {
        let (result, _) = mine(&shared, &pin, scheme, threshold, 1, false);
        assert_eq!(&canon(&result), want, "{scheme:?}: the pin after the fold");
    }

    // The published snapshot is the compacted, folded deployment: only the
    // survivors, renumbered, nothing tombstoned — and the same frequent
    // set, since the pin's live rows are exactly its rows.
    let now = shared.snapshot();
    assert_eq!((now.rows(), now.deleted_rows()), (pin.live_rows(), 0));
    for scheme in schemes {
        let (result, _) = mine(&shared, &now, scheme, threshold, 2, false);
        assert_exact(&result, &now, threshold, &format!("{scheme:?} after"));
    }
}

/// One thread mines a pinned snapshot again and again while another
/// commits inserts (same items, so the shared boundary pages gain bits)
/// and deletes (rows inside the pinned prefix): every result is the exact
/// frequent set of the pinned epoch, and in every walk a commit is
/// published between two `CountItemSet` calls — the fence is held per
/// call, not across the walk.
#[test]
fn a_pinned_snapshot_mines_exactly_while_the_writer_commits() {
    let b = base("writer");
    let _g = Cleanup(b.clone());
    let shared = SharedDeployment::open(&b, 128, hasher(), 64).expect("open");
    let rows: Vec<Transaction> = (0..6000).map(txn).collect();
    shared.commit(&rows).expect("commit");
    shared
        .delete_tids(&(0..6000).filter(|i| i % 7 == 2).collect::<Vec<u64>>(), 0)
        .expect("delete");
    let threshold = SupportThreshold::percent(4.0);
    let pin = shared.snapshot();

    let stop = AtomicBool::new(false);
    let mut want = None;
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut next = 6000u64;
            while !stop.load(Ordering::Acquire) {
                let batch: Vec<Transaction> = (next..next + 40).map(txn).collect();
                shared.commit(&batch).expect("commit beside the miner");
                // Rows of the pinned prefix: the pin's mask must not move.
                let doomed: Vec<u64> = (0..4).map(|k| (next * 13 + k * 29) % 6000).collect();
                shared
                    .delete_tids(&doomed, 0)
                    .expect("delete beside the miner");
                next += 40;
            }
        });
        // Dropped at the end of the rounds or by a failed assertion: the
        // scope must not wait for a writer nobody stops.
        let stopper = StopOnDrop(&stop);
        for round in 0..6 {
            let threads = 1 + round % 2;
            let (result, landed) = mine(&shared, &pin, Scheme::Dfs, threshold, threads, true);
            let want = want.get_or_insert_with(|| {
                assert_exact(&result, &pin, threshold, "the first mine beside the writer");
                canon(&result)
            });
            assert_eq!(&canon(&result), want, "mine {round} of the pinned epoch");
            assert!(
                !landed.is_empty() && landed.iter().all(|&l| l),
                "mine {round}: no commit was published inside the walk ({landed:?}): \
                 the fence is held across it"
            );
        }
        drop(stopper);
        writer.join().expect("writer");
    });

    // The writer's rows and deletes are in the latest snapshot, and only
    // there.
    let now = shared.snapshot();
    assert!(now.rows() > pin.rows() && now.deleted_rows() > pin.deleted_rows());
    let (latest, _) = mine(&shared, &now, Scheme::Dfs, threshold, 2, false);
    assert_exact(&latest, &now, threshold, "the latest snapshot");
}
