//! Proptest oracle for the batched shared-scan executor — the one path a
//! request counts through (a single `count` is a batch of one): `count_many`
//! answers must be bit-for-bit identical to the in-memory reference index
//! and obey the τ contract, across mixed-length itemsets, τ early-exit
//! bounds, the reader cursor's extension batches over a constraint prefix,
//! and concurrent-appender interleavings.

use bbs_bitslice::BitVec;
use bbs_core::{CountSource, EXACT};
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_storage::diskbbs::DiskDeployment;
use bbs_storage::snapshot::SharedDeployment;
use bbs_tdb::{IoStats, ItemId, Itemset, Transaction};
use proptest::prelude::*;
use std::path::PathBuf;
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

fn build(b: &std::path::Path, rows: &[Vec<u32>]) -> DiskDeployment {
    let mut dep = DiskDeployment::open(b, 64, hasher(), 8).expect("open");
    for (i, r) in rows.iter().enumerate() {
        dep.append(&Transaction::new(i as u64, Itemset::from_values(r)))
            .expect("append");
    }
    dep.flush().expect("flush");
    dep
}

proptest! {
    // Each case builds a real on-disk deployment; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core oracle chain: batched == in-memory reference, with
    /// τ-consistency of early-exit answers against the exact count.
    #[test]
    fn batched_matches_memory_reference(
        rows in rows_strategy(),
        queries in queries_strategy(),
        // The vendored proptest has no `option::of`; fold "no tau" into
        // the top of the range instead.
        tau in (0u64..80).prop_map(|t| if t >= 64 { None } else { Some(t) }),
    ) {
        let b = base("chain");
        let _g = Cleanup(b.clone());
        let dep = build(&b, &rows);
        let itemsets: Vec<Itemset> =
            queries.iter().map(|q| Itemset::from_values(q)).collect();

        let batched = dep.index.count_itemsets(&itemsets, tau).expect("count_many");

        // An independent reader handle (its own cache + hot slices) agrees.
        let mut counter = dep.index.counter().expect("counter");
        let via_counter = counter.count_many(&itemsets, tau).expect("reader count_many");
        prop_assert_eq!(&via_counter, &batched);

        // Exact batched answers equal the in-memory reference index.
        let mem = dep.index.load().expect("load");
        let mut io = IoStats::default();
        let exact = dep.index.count_itemsets(&itemsets, None).expect("exact");
        for (i, q) in itemsets.iter().enumerate() {
            prop_assert_eq!(exact[i], mem.est_count(q, &mut io), "memory ref {:?}", q);
            // τ-consistency: ≥ τ answers are exact, < τ answers are upper
            // bounds on the exact count (so "infrequent" stays settled).
            if let Some(t) = tau {
                if batched[i] >= t {
                    prop_assert_eq!(batched[i], exact[i], "exact above tau {:?}", q);
                } else {
                    prop_assert!(batched[i] >= exact[i], "bound below tau {:?}", q);
                }
            }
        }
    }

    /// Extension batches through the reader's cursor: counting
    /// `prefix ∪ {e}` on the AND-result the cursor carries for the prefix
    /// equals the executor's count of the union and the in-memory
    /// constrained path (§3.4 — the prefix's AND *is* a materialised
    /// constraint slice applied to every sibling).
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

/// Multi-chunk τ dropout: when a query exits early after chunk 0, the
/// slices it shared drop multiplicity mid-scan; the survivor must keep
/// reading fresh chunk-1 data — never a decoded segment left over from
/// chunk 0.  Needs ≥ 2 chunks, so this is the one test that pays for a
/// 65k-row build.
#[test]
fn tau_dropout_mid_scan_never_reuses_stale_shared_segments() {
    const CHUNK: u64 = bbs_storage::CHUNK_ROWS as u64;
    let b = base("dropout");
    let _g = Cleanup(b.clone());
    let mut dep = DiskDeployment::open(&b, 64, hasher(), 192).expect("open");
    for i in 0..2 * CHUNK {
        let mut items = vec![5u32];
        // Chunk 0: item 6 on even rows only; chunk 1: on every row — so a
        // stale chunk-0 segment visibly corrupts a chunk-1 count.
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

    // B and C τ-exit after chunk 0 (their chunk-0 counts are far below
    // the bound); A runs to completion.  While all three are active the
    // slices A shares with B (items 5 and 6) are shared-but-not-universal
    // — exactly the decoded-segment case — and the exits drop their
    // multiplicity mid-scan.
    // Between the dropouts' chunk-0 bounds (≈ CHUNK) and A's exact count
    // (≈ 1.5 × CHUNK).
    let tau = CHUNK + CHUNK / 4;
    let queries = [
        Itemset::from_values(&[5, 6]),
        Itemset::from_values(&[5, 6, 7]),
        Itemset::from_values(&[9]),
    ];
    let batched = dep
        .index
        .count_itemsets(&queries, Some(tau))
        .expect("batched");
    for (i, q) in queries.iter().enumerate() {
        let alone = dep
            .index
            .count_itemsets(std::slice::from_ref(q), Some(tau))
            .expect("alone");
        assert_eq!(batched[i], alone[0], "query {q:?}");
    }
    // Premise checks: the dropouts actually happened (their answers are
    // early-exit bounds below τ) and A's answer is exact and ≥ τ.
    assert!(batched[1] < tau, "B must tau-exit after chunk 0");
    assert!(batched[2] < tau, "C must tau-exit after chunk 0");
    assert_eq!(
        batched[0],
        dep.index.count_itemset(&queries[0]).expect("exact"),
        "A ran to completion, so its bounded answer is exact"
    );
    assert!(batched[0] >= tau);
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
