//! Oracle for the served count — a `COUNT_MANY` is the mining cursor
//! walking the batch's prefix trie, and a single `count` is a batch of one.
//! Three counts must agree bit for bit: [`Snapshot::count_many`] (the
//! cursor walk), [`DiskBbs::count_itemsets`] (the naive per-query AND) and
//! the in-memory `est_count`.  The batches mix sibling groups whose
//! extensions sort below, between and above their shared prefix,
//! duplicated itemsets, empty itemsets and itemsets naming absent items,
//! over files with tombstoned rows; the answers must come back in request
//! order.  Beside that: the reader cursor's extension batches over a
//! constraint prefix, a batch spanning two chunks, and concurrent-appender
//! interleavings.
//!
//! [`Snapshot::count_many`]: bbs_storage::Snapshot::count_many
//! [`DiskBbs::count_itemsets`]: bbs_storage::DiskBbs::count_itemsets

use bbs_bitslice::BitVec;
use bbs_core::{CountSource, EXACT};
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_storage::diskbbs::DiskDeployment;
use bbs_storage::snapshot::SharedDeployment;
use bbs_tdb::{IoStats, ItemId, Itemset, Transaction};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "bbs_cm_oracle_{}_{}_{}",
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

/// Rows: up to ~100 transactions of 0–5 items drawn from a small alphabet
/// so slices genuinely collide and overlap.
fn rows_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..32, 0..6), 1..100)
}

/// Queries: mixed-length itemsets (empty through 4 items), drawn from a
/// slightly wider alphabet than the rows so some queries name absent items.
fn queries_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..40, 0..5), 1..10)
}

fn build(b: &Path, rows: &[Vec<u32>]) -> DiskDeployment {
    let mut dep = DiskDeployment::open(b, 64, hasher(), 8).expect("open");
    for (i, r) in rows.iter().enumerate() {
        dep.append(&Transaction::new(i as u64, Itemset::from_values(r)))
            .expect("append");
    }
    dep.flush().expect("flush");
    dep
}

/// The batch the oracle counts: `adhoc`; a sibling group `{a, b, e}` for
/// every `e` in `exts` plus one extension just below `a`, one between `a`
/// and `b` and one above `b`; the empty itemset; an itemset naming an item
/// no row holds; and the itemsets at `dups` again.  Then shuffled by
/// `seed`, so request order is not the order the walk visits.
fn batch(
    adhoc: &[Vec<u32>],
    (a, gap): (u32, u32),
    exts: &[u32],
    dups: &[usize],
    seed: u64,
) -> Vec<Itemset> {
    let b = a + gap;
    let mut sets: Vec<Itemset> = adhoc.iter().map(|q| Itemset::from_values(q)).collect();
    for &e in exts.iter().chain(&[a - 1, a + 1, b + 1]) {
        sets.push(Itemset::from_values(&[a, b, e]));
    }
    sets.push(Itemset::empty());
    sets.push(Itemset::from_values(&[a, 5000]));
    for &d in dups {
        sets.push(sets[d % sets.len()].clone());
    }
    let mut state = seed | 1;
    for i in (1..sets.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        sets.swap(i, (state % (i as u64 + 1)) as usize);
    }
    sets
}

/// Counts `itemsets` the three ways on the deployment at `b` — the naive
/// AND and the in-memory index over its live rows, then the served cursor
/// of a snapshot opened on the same files — and checks that they agree
/// query by query, in request order.
fn assert_three_way(b: &Path, mut dep: DiskDeployment, itemsets: &[Itemset]) {
    let naive = dep.index.count_itemsets(itemsets, None).expect("naive");
    let (_, mem) = dep.load().expect("load live rows");
    let mut io = IoStats::default();
    for (i, q) in itemsets.iter().enumerate() {
        assert_eq!(naive[i], mem.est_count(q, &mut io), "memory ref {q:?}");
    }
    drop(dep);
    let shared = SharedDeployment::open(b, 64, hasher(), 8).expect("serve");
    let snap = shared.snapshot();
    let served = snap.count_many(itemsets).expect("count_many");
    assert_eq!(served.len(), itemsets.len());
    for (i, q) in itemsets.iter().enumerate() {
        assert_eq!(served[i], naive[i], "query {i} {q:?}: walk vs naive AND");
    }
    // The same batch again, and each itemset alone, from where the cursor
    // now stands.
    assert_eq!(snap.count_many(itemsets).expect("again"), served);
    for (i, q) in itemsets.iter().enumerate() {
        assert_eq!(snap.count(q).expect("alone"), served[i], "query {i} {q:?} alone");
    }
}

proptest! {
    // Each case builds a real on-disk deployment; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core oracle chain: walk == naive AND == in-memory reference,
    /// over tombstoned rows and a batch with every shape a request sends.
    #[test]
    fn batched_matches_memory_reference(
        rows in rows_strategy(),
        adhoc in queries_strategy(),
        a in 1u32..30,
        gap in 2u32..8,
        exts in proptest::collection::vec(0u32..40, 1..12),
        dups in proptest::collection::vec(0usize..64, 0..4),
        dead in proptest::collection::vec(0usize..100, 0..40),
        seed in any::<u64>(),
    ) {
        let b = base("chain");
        let _g = Cleanup(b.clone());
        let mut dep = build(&b, &rows);
        let dead: Vec<u64> = dead.iter().map(|&d| (d % rows.len()) as u64).collect();
        dep.commit_deletes(&dead, &[]).expect("delete");
        let itemsets = batch(&adhoc, (a, gap), &exts, &dups, seed);
        assert_three_way(&b, dep, &itemsets);
    }

    /// Extension batches through the reader's cursor: counting
    /// `prefix ∪ {e}` on the AND-result the cursor carries for the prefix
    /// equals the naive count of the union and the in-memory constrained
    /// path (§3.4 — the prefix's AND *is* a materialised constraint slice
    /// applied to every sibling).
    #[test]
    fn cursor_extensions_match_union_and_constrained_memory(
        rows in rows_strategy(),
        exts in proptest::collection::vec(0u32..40, 1..8),
    ) {
        // Plant a sentinel "constraint" item on every third row so the
        // shared prefix selects a non-trivial strict subset.
        const SENTINEL: u32 = 1000;
        let planted: Vec<Vec<u32>> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut r = r.clone();
                if i % 3 == 0 {
                    r.push(SENTINEL);
                }
                r
            })
            .collect();
        let b = base("proj");
        let _g = Cleanup(b.clone());
        let dep = build(&b, &planted);
        let prefix = Itemset::from_values(&[SENTINEL]);
        let ext_ids: Vec<ItemId> = exts.iter().map(|&e| ItemId(e)).collect();

        let mut counter = dep.index.counter().expect("counter");
        let projected = counter
            .count_extensions(&prefix, &ext_ids, EXACT)
            .expect("cursor extensions");

        // In-memory constrained reference: the prefix's AND-result bit
        // vector acts as the constraint slice for each extension.
        let mem = dep.index.load().expect("load");
        let mut io = IoStats::default();
        let mut constraint = BitVec::zeros(mem.rows());
        mem.est_result(&prefix, &mut constraint, &mut io);

        for (i, &e) in exts.iter().enumerate() {
            let union = Itemset::from_values(&[SENTINEL, e]);
            let whole = dep.index.count_itemset(&union).expect("union count");
            prop_assert_eq!(projected[i], whole, "ext {}", e);
            let constrained =
                mem.est_count_constrained(&Itemset::from_values(&[e]), &constraint, &mut io);
            prop_assert_eq!(projected[i], constrained, "constrained ext {}", e);
        }
    }
}

/// A batch over two chunks, with tombstones in both: the cursor's levels
/// span the chunk boundary, and every shape of the property batch still
/// agrees three ways.
#[test]
fn a_batch_over_two_chunks_matches_the_naive_and() {
    const CHUNK: u64 = bbs_storage::CHUNK_ROWS as u64;
    let b = base("two_chunks");
    let _g = Cleanup(b.clone());
    let mut dep = DiskDeployment::open(&b, 64, hasher(), 192).expect("open");
    for i in 0..2 * CHUNK {
        let mut items = vec![5u32];
        // Chunk 0: item 6 on even rows only; chunk 1: on every row.
        if i >= CHUNK || i % 2 == 0 {
            items.push(6);
        }
        if i < 5 {
            items.push(7);
        }
        dep.append(&Transaction::new(i, Itemset::from_values(&items)))
            .expect("append");
    }
    dep.flush().expect("flush");
    let dead: Vec<u64> = (0..2 * CHUNK).filter(|r| r % 1000 == 3).collect();
    dep.commit_deletes(&dead, &[]).expect("delete");
    let adhoc = vec![vec![5, 6], vec![5, 6, 7], vec![9], vec![6]];
    let itemsets = batch(&adhoc, (5, 2), &[0, 6, 9, 30], &[0, 3], 2002);
    assert_three_way(&b, dep, &itemsets);
}

/// Fixture row for the interleaving test: item 7 everywhere plus a
/// rotating tail (same shape as tests/concurrent.rs).
fn txn(i: u64) -> Transaction {
    Transaction::new(i, Itemset::from_values(&[7, 100 + (i % 8) as u32]))
}

/// Concurrent-appender interleavings: while a writer group-commits,
/// every snapshot a reader takes must answer `count_many` exactly as N
/// single `count` calls on that same snapshot — the shared scan may never
/// mix epochs across the queries of one batch.
#[test]
fn concurrent_appenders_never_split_a_batch_across_epochs() {
    const BATCH: u64 = 32;
    const BATCHES: u64 = 24;
    let b = base("interleave");
    let _g = Cleanup(b.clone());
    let shared = SharedDeployment::open(&b, 64, hasher(), 128).expect("open");
    let done = Arc::new(AtomicBool::new(false));
    let queries: Vec<Itemset> = [
        &[7u32][..],
        &[100],
        &[7, 101],
        &[104, 7],
        &[],
        &[9999],
    ]
    .iter()
    .map(|q| Itemset::from_values(q))
    .collect();

    let mut readers = Vec::new();
    for r in 0..3 {
        let shared = Arc::clone(&shared);
        let done = Arc::clone(&done);
        let queries = queries.clone();
        readers.push(std::thread::spawn(move || {
            let mut observations = 0u64;
            loop {
                let finished = done.load(Ordering::Acquire);
                let snap = shared.snapshot();
                let batched = snap.count_many(&queries).expect("count_many");
                for (i, q) in queries.iter().enumerate() {
                    let alone = snap.count(q).expect("count");
                    assert_eq!(
                        batched[i],
                        alone,
                        "reader {r}: query {q:?} split from its snapshot"
                    );
                }
                // Item 7 is in every row and the empty itemset counts all
                // rows — both answers are pinned to the snapshot's epoch.
                assert_eq!(batched[0], snap.rows(), "reader {r}: torn batch");
                assert_eq!(batched[4], snap.rows(), "reader {r}: empty itemset");
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
        shared.commit(&txns).expect("commit");
    }
    done.store(true, Ordering::Release);
    for h in readers {
        assert!(h.join().expect("reader") >= 1);
    }

    let snap = shared.snapshot();
    let final_counts = snap.count_many(&queries).expect("final");
    assert_eq!(final_counts[0], BATCH * BATCHES);
    assert_eq!(final_counts[4], BATCH * BATCHES);
}
