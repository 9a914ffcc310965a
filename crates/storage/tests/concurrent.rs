//! Appender-vs-counter stress tests for the snapshot layer: one writer
//! group-committing batches while reader threads count, probe, and load
//! concurrently.  These are the tests behind the documented snapshot
//! clamp — a counter never observes a torn batch, and a snapshot's
//! serving cursor never counts bits a later epoch appended.

use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_storage::diskbbs::DiskDeployment;
use bbs_storage::snapshot::SharedDeployment;
use bbs_tdb::{Itemset, Transaction};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_concurrent_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        DiskDeployment::remove_files(&self.0).ok();
    }
}

fn hasher() -> Arc<dyn ItemHasher> {
    Arc::new(Md5BloomHasher::new(4))
}

/// Transaction at row `i`: item 7 always (the prefix-consistency canary),
/// plus a rotating tail so slices beyond item 7's are exercised too.
fn txn(i: u64) -> Transaction {
    Transaction::new(i, Itemset::from_values(&[7, 100 + (i % 8) as u32]))
}

const BATCH: u64 = 32;
const BATCHES: u64 = 24;

/// The core invariant: item 7 is in *every* row, and rows only ever land
/// in whole batches of `BATCH` — so any snapshot-consistent counter must
/// report `count({7}) == snapshot rows` and `rows % BATCH == 0`.  A
/// reader that saw a half-appended batch, a torn page, or bits past its
/// clamp would violate one of the two.
#[test]
fn counters_never_observe_a_torn_batch() {
    let b = base("torn");
    let _g = Cleanup(b.clone());
    let shared = SharedDeployment::open(&b, 64, hasher(), 128).expect("open");
    let done = Arc::new(AtomicBool::new(false));
    let q = Itemset::from_values(&[7]);

    let mut readers = Vec::new();
    for r in 0..3 {
        let shared = Arc::clone(&shared);
        let done = Arc::clone(&done);
        let q = q.clone();
        readers.push(std::thread::spawn(move || {
            let mut last_rows = 0u64;
            let mut observations = 0u64;
            loop {
                let finished = done.load(Ordering::Acquire);
                let snap = shared.snapshot();
                assert_eq!(snap.rows() % BATCH, 0, "rows land in whole batches");
                assert!(snap.rows() >= last_rows, "epochs never run backwards");
                last_rows = snap.rows();
                // Count repeatedly on the *same* snapshot: later commits
                // OR bits into shared boundary pages while we count, and
                // the clamp must keep every answer pinned to the epoch.
                for _ in 0..3 {
                    let support = snap.count(&q).expect("count");
                    assert_eq!(
                        support,
                        snap.rows(),
                        "reader {r}: count({{7}}) must equal snapshot rows"
                    );
                }
                // Probing below the snapshot's rows always succeeds and
                // returns the transaction that was committed there.
                if snap.rows() > 0 {
                    let row = (snap.epoch() * 13) % snap.rows();
                    let t = snap.probe(row).expect("probe").expect("present");
                    assert_eq!(t, txn(row), "row content is immutable");
                }
                assert_eq!(snap.probe(snap.rows()).expect("past end"), None);
                observations += 1;
                if finished {
                    break;
                }
            }
            observations
        }));
    }

    for batch in 0..BATCHES {
        let txns: Vec<Transaction> =
            (batch * BATCH..(batch + 1) * BATCH).map(txn).collect();
        let receipt = shared.commit(&txns).expect("commit");
        assert_eq!(receipt.rows, batch * BATCH..(batch + 1) * BATCH);
    }
    done.store(true, Ordering::Release);
    for h in readers {
        let observations = h.join().expect("reader");
        assert!(observations >= 1);
    }

    let snap = shared.snapshot();
    assert_eq!(snap.rows(), BATCH * BATCHES);
    assert_eq!(snap.count(&q).expect("final"), BATCH * BATCHES);
}

/// An old snapshot held across many later commits keeps answering from
/// its own epoch — through its serving cursor, whose page cache re-reads
/// boundary pages that later commits have since extended on disk.
#[test]
fn held_snapshot_stays_exact_through_later_commits() {
    let b = base("held");
    let _g = Cleanup(b.clone());
    let shared = SharedDeployment::open(&b, 64, hasher(), 128).expect("open");
    let q = Itemset::from_values(&[7]);

    shared
        .commit(&(0..100).map(txn).collect::<Vec<_>>())
        .expect("commit 1");
    let held = shared.snapshot();
    assert_eq!(held.rows(), 100);

    // Repeated counts on the held snapshot reuse its serving cursor; later
    // commits must not bleed new bits into it.
    for round in 0..6 {
        assert_eq!(held.count(&q).expect("held count"), 100, "round {round}");
        let start = 100 + round * 50;
        shared
            .commit(&(start..start + 50).map(txn).collect::<Vec<_>>())
            .expect("later commit");
        assert_eq!(held.count(&q).expect("held count after"), 100);
        assert_eq!(held.probe(99).expect("probe").expect("present"), txn(99));
        assert_eq!(held.probe(100).expect("past end"), None);
    }

    // Loading the held snapshot materialises its prefix, not the tail.
    let (db, bbs) = held.load().expect("load");
    assert_eq!(db.len(), 100);
    assert_eq!(bbs.rows(), 100);

    let fresh = shared.snapshot();
    assert_eq!(fresh.rows(), 400);
    assert_eq!(fresh.count(&q).expect("fresh count"), 400);
}

/// Concurrent loads (the server's `mine` path) race against commits
/// without ever seeing a clamped database whose length is off-batch.
#[test]
fn snapshot_loads_race_commits_cleanly() {
    let b = base("loads");
    let _g = Cleanup(b.clone());
    let shared = SharedDeployment::open(&b, 64, hasher(), 128).expect("open");
    let done = Arc::new(AtomicBool::new(false));

    let loader = {
        let shared = Arc::clone(&shared);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut loads = 0u64;
            loop {
                let finished = done.load(Ordering::Acquire);
                let snap = shared.snapshot();
                let (db, bbs) = snap.load().expect("load");
                assert_eq!(db.len() as u64, snap.rows());
                assert_eq!(bbs.rows() as u64, snap.rows());
                assert_eq!(snap.rows() % BATCH, 0);
                for (i, t) in db.transactions().iter().enumerate().take(4) {
                    assert_eq!(*t, txn(i as u64));
                }
                loads += 1;
                if finished {
                    break;
                }
            }
            loads
        })
    };

    for batch in 0..12 {
        let txns: Vec<Transaction> =
            (batch * BATCH..(batch + 1) * BATCH).map(txn).collect();
        shared.commit(&txns).expect("commit");
    }
    done.store(true, Ordering::Release);
    assert!(loader.join().expect("loader") >= 1);
}
