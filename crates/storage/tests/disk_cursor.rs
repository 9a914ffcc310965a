//! The disk reader as a depth-first cursor ([`DiskCounter`] behind
//! [`CountSource`]), on a file that has the hard cases: three chunks, the
//! middle one wholly tombstoned, dead stragglers in the other two, a
//! boundary chunk, and reader caches of 1, 2 and ample pages.  The oracle
//! is [`DiskBbs::count_itemset`] — the per-op executor, which shares no
//! counting code with the cursor.

use bbs_core::{run_filter_source_threaded, CountSource, FilterKind, EXACT};
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_storage::diskbbs::DiskDeployment;
use bbs_storage::{DiskBbs, DiskCounter, CHUNK_ROWS};
use bbs_tdb::{ItemId, Itemset, Transaction};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const CHUNK: u64 = CHUNK_ROWS as u64;
const WIDTH: usize = 64;
const K: usize = 3;
/// Rows of the boundary chunk.
const TAIL: u64 = 5000;
/// The walk's own threshold: deep enough for a few hundred nodes.
const WALK_TAU: u64 = 400;
/// The dense alphabet: items `0..ALPHABET` appear in every chunk.
const ALPHABET: u32 = 9;

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_disk_cursor_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        DiskDeployment::remove_files(&self.0).ok();
    }
}

fn hasher() -> Arc<dyn ItemHasher> {
    Arc::new(Md5BloomHasher::new(K))
}

/// An item that lives in the boundary chunk only and owns a slice no dense
/// item touches — so its AND-result is empty, not merely sparse, in the
/// chunks before.
fn sparse_item() -> u32 {
    let h = hasher();
    let dense: Vec<usize> = (0..ALPHABET)
        .flat_map(|j| h.positions_vec(u64::from(j), WIDTH))
        .collect();
    (1000..)
        .find(|&cand| {
            h.positions_vec(u64::from(cand), WIDTH)
                .iter()
                .any(|p| !dense.contains(p))
        })
        .expect("some item owns a slice")
}

/// Builds the fixture at `b`: `2·CHUNK + TAIL` rows, item `j` on the rows
/// a cheap generator picks with probability `1/(2 + j % 4)`, the sparse
/// item on every third boundary-chunk row; then tombstones all of chunk 1
/// and every 97th row of chunks 0 and 2.
fn build(b: &Path) {
    let sparse = sparse_item();
    let mut dep = DiskDeployment::open(b, WIDTH, hasher(), 512).expect("open");
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..2 * CHUNK + TAIL {
        let mut items = Vec::new();
        for j in 0..ALPHABET {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (state >> 33).is_multiple_of(u64::from(2 + j % 4)) {
                items.push(j);
            }
        }
        if i >= 2 * CHUNK && i.is_multiple_of(3) {
            items.push(sparse);
        }
        dep.append(&Transaction::new(i, Itemset::from_values(&items)))
            .expect("append");
    }
    dep.flush().expect("flush");
    let dead: Vec<u64> = (0..2 * CHUNK + TAIL)
        .filter(|&r| (CHUNK..2 * CHUNK).contains(&r) || r.is_multiple_of(97))
        .collect();
    let deleted = dep.commit_deletes(&dead, &[]).expect("delete");
    assert_eq!(deleted, dead.len() as u64);
}

/// The τ contract of [`CountSource`]: exact at or above τ, never an
/// undercount below it.
fn assert_contract(got: u64, exact: u64, tau: u64, what: &dyn std::fmt::Debug) {
    if got >= tau {
        assert_eq!(got, exact, "{what:?} τ={tau}: an answer ≥ τ is exact");
    } else {
        assert!(got >= exact, "{what:?} τ={tau}: {got} undercounts {exact}");
    }
}

/// A cursor that checks every answer it gives the walk — and, at every
/// node, the answers under the other τ's a caller may pass — against the
/// per-op executor.
struct Audited<'a> {
    cursor: DiskCounter,
    oracle: &'a DiskBbs,
    descents: u64,
}

impl CountSource for Audited<'_> {
    fn count_itemset(&mut self, itemset: &Itemset, tau: u64) -> io::Result<u64> {
        let got = self.cursor.count_itemset(itemset, tau)?;
        assert_contract(got, self.oracle.count_itemset(itemset)?, tau, itemset);
        Ok(got)
    }

    fn count_extensions(
        &mut self,
        prefix: &Itemset,
        extensions: &[ItemId],
        tau: u64,
    ) -> io::Result<Vec<u64>> {
        self.descents += 1;
        let exact: Vec<u64> = extensions
            .iter()
            .map(|&e| self.oracle.count_itemset(&prefix.with_item(e)))
            .collect::<io::Result<_>>()?;
        // A τ that splits the siblings: some just below it, some above.
        let mut sorted = exact.clone();
        sorted.sort_unstable();
        let near = sorted[sorted.len() / 2] + 1;
        for t in [EXACT, 1, 12, near, u64::MAX] {
            let got = self.cursor.count_extensions(prefix, extensions, t)?;
            assert_eq!(got.len(), exact.len());
            for ((&g, &x), &e) in got.iter().zip(&exact).zip(extensions) {
                assert_contract(g, x, t, &(prefix, e));
            }
            // The one-sibling case rides the same path.
            let solo = prefix.with_item(extensions[0]);
            assert_contract(self.cursor.count_itemset(&solo, t)?, exact[0], t, &solo);
        }
        let got = self.cursor.count_extensions(prefix, extensions, tau)?;
        for ((&g, &x), &e) in got.iter().zip(&exact).zip(extensions) {
            assert_contract(g, x, tau, &(prefix, e));
        }
        Ok(got)
    }
}

/// (i) + (ii): every node of a full depth-first walk, both filter kinds,
/// every reader cache size — each answer obeys the τ contract against the
/// per-op count, and the walk costs exactly one extend per node descended.
#[test]
fn every_node_of_a_walk_obeys_the_tau_contract_at_one_extend_per_descent() {
    let b = base("walk");
    let _g = Cleanup(b.clone());
    build(&b);
    for cache_pages in [1, 2, 512] {
        let dep = DiskDeployment::open(&b, WIDTH, hasher(), cache_pages).expect("reopen");
        for kind in [FilterKind::Single, FilterKind::Dual] {
            let make = || {
                Ok(Audited {
                    cursor: dep.index.counter()?,
                    oracle: &dep.index,
                    descents: 0,
                })
            };
            let (out, sources) =
                run_filter_source_threaded(make, dep.index.item_counts(), kind, WALK_TAU, 1)
                    .expect("walk");
            let [src] = &sources[..] else {
                panic!("one worker, one source")
            };
            assert!(out.stats.candidates > 100, "the walk is not trivial");
            let stats = src.cursor.cursor_stats();
            assert_eq!(
                stats.extends, src.descents,
                "{kind:?}, {cache_pages} page(s): one AND-result per node, never a prefix re-AND"
            );
            // Chunk 1 is wholly dead, so every count and extend skips it;
            // u64::MAX (and the near-τ siblings) stop on the parent's ones.
            assert!(stats.chunks_skipped >= stats.extends, "{stats:?}");
            assert!(stats.tau_exits > 0, "{stats:?}");
        }
    }
}

/// (ii): order is a cost matter only.  Deep into one subtree, a cousin
/// under another top-level item, the root, a strict prefix, deep again —
/// wherever the cursor stands, every answer obeys the contract.
#[test]
fn out_of_order_calls_still_answer_correctly() {
    let b = base("jumps");
    let _g = Cleanup(b.clone());
    build(&b);
    let dep = DiskDeployment::open(&b, WIDTH, hasher(), 2).expect("reopen");
    let vocab = dep.index.vocabulary();
    let mut cursor = dep.index.counter().expect("counter");
    let deep = Itemset::from_items(vocab[..4].to_vec());
    let jumps = [
        deep.clone(),
        Itemset::from_items(vec![vocab[1], vocab[3], vocab[5]]),
        Itemset::empty(),
        Itemset::from_items(vocab[..2].to_vec()),
        deep,
    ];
    for (prefix, tau) in jumps.iter().zip([EXACT, 1, 12, u64::MAX, 300]) {
        let got = cursor.count_extensions(prefix, &vocab, tau).expect("batch");
        for (&g, &e) in got.iter().zip(&vocab) {
            let exact = dep.index.count_itemset(&prefix.with_item(e)).expect("oracle");
            assert_contract(g, exact, tau, &(prefix, e));
        }
        let solo = cursor.count_itemset(prefix, tau).expect("solo");
        let exact = dep.index.count_itemset(prefix).expect("oracle");
        assert_contract(solo, exact, tau, prefix);
    }
    // Re-syncing keeps the common prefix: deep costs 4 extends, the cousin
    // 3 (it shares only the root), the strict prefix 2, and deep again 3
    // on top of the one level the last solo call left standing; each solo
    // call finds its itemset's own prefix already on the path.
    assert_eq!(cursor.cursor_stats().extends, 12);
}

/// (iii): the snapshot clamp lives in level 0.  A reader opened at `N`
/// rows never counts rows appended later, although the boundary pages it
/// reads now carry their bits.
#[test]
fn a_reader_never_counts_rows_appended_after_it_opened() {
    let b = base("clamp");
    let _g = Cleanup(b.clone());
    let mut dep = DiskDeployment::open(&b, WIDTH, hasher(), 64).expect("open");
    let opened_at = CHUNK + 100; // mid-word, one chunk in
    let txn = |i: u64| Transaction::new(i, Itemset::from_values(&[1, 2 + (i % 2) as u32]));
    for i in 0..opened_at {
        dep.append(&txn(i)).expect("append");
    }
    dep.flush().expect("flush");
    let mut reader = dep.index.counter().expect("counter");
    assert_eq!(reader.rows(), opened_at);
    // More rows with the same items: into the reader's boundary words,
    // the rest of its boundary chunk, and a chunk it has no words for.
    for i in opened_at..2 * CHUNK + 7 {
        dep.append(&txn(i)).expect("append");
    }
    dep.flush().expect("flush");

    let one = Itemset::from_values(&[1]);
    let pair = Itemset::from_values(&[1, 2]);
    assert_eq!(reader.count_itemset(&Itemset::empty(), EXACT).expect("all"), opened_at);
    assert_eq!(reader.count_itemset(&one, EXACT).expect("one"), opened_at);
    assert_eq!(reader.count_itemset(&pair, EXACT).expect("pair"), opened_at / 2);
    let exts = reader
        .count_extensions(&one, &[ItemId(2), ItemId(3)], EXACT)
        .expect("extensions");
    assert_eq!(exts, [opened_at / 2, opened_at / 2]);
    // A reader opened now sees them all.
    let mut fresh = dep.index.counter().expect("fresh counter");
    assert_eq!(fresh.count_itemset(&one, EXACT).expect("one"), 2 * CHUNK + 7);
}

/// (iv): where the parent has no ones the cursor reads nothing.  The
/// sparse item's AND-result is empty in chunks 0 and 1; a one-page cache
/// makes every page touched a physical read.
#[test]
fn chunks_the_parent_is_empty_in_are_never_read() {
    let b = base("sparse");
    let _g = Cleanup(b.clone());
    build(&b);
    let dep = DiskDeployment::open(&b, WIDTH, hasher(), 1).expect("reopen");
    let parent = Itemset::from_values(&[sparse_item()]);
    let support = dep.index.count_itemset(&parent).expect("support");
    assert!(support > 1000 && support < TAIL / 2);
    let exts: Vec<ItemId> = (0..ALPHABET).map(ItemId).collect();

    let mut cursor = dep.index.counter().expect("counter");
    // Stand on the parent: chunk 1 is dead, chunks 0 and 2 are read.
    cursor.count_extensions(&parent, &[], EXACT).expect("seek");
    let (reads, stats) = (cursor.pager_stats().reads, cursor.cursor_stats());
    assert_eq!((stats.extends, stats.chunks_skipped), (1, 1));

    // τ above the parent's support: decided on its ones, no page read.
    let bounds = cursor.count_extensions(&parent, &exts, support + 1).expect("bounded");
    assert_eq!(bounds, vec![support; exts.len()]);
    assert_eq!(cursor.pager_stats().reads, reads, "no page was read");
    assert_eq!(cursor.cursor_stats().tau_exits, exts.len() as u64);

    // Exact counts: only the boundary chunk's pages, k per sibling.
    let exact = cursor.count_extensions(&parent, &exts, EXACT).expect("exact");
    for (&got, &e) in exact.iter().zip(&exts) {
        let want = dep.index.count_itemset(&parent.with_item(e)).expect("oracle");
        assert_eq!(got, want, "extension {e:?}");
    }
    let read = cursor.pager_stats().reads - reads;
    assert!(
        read > 0 && read <= (K * exts.len()) as u64,
        "{read} page reads for {} siblings of k = {K} in one chunk",
        exts.len()
    );
    let skipped = cursor.cursor_stats().chunks_skipped - stats.chunks_skipped;
    assert_eq!(skipped, 2 * exts.len() as u64, "chunks 0 and 1, per sibling");
}

// ---------------------------------------------------------------------
// The sparse operand: where a parent is mostly zero words in a chunk the
// cursor gathers only its nonzero words.  Same rows, same answers, same
// pages — fewer words.
// ---------------------------------------------------------------------

/// Two slices per item and no collisions below item 32 at width 64: the
/// AND-result of `{i}` is exactly the live rows holding `i`, so a test can
/// place a parent's nonzero words one by one.
struct TwoSliceHasher;

impl ItemHasher for TwoSliceHasher {
    fn positions(&self, item: u64, width: usize, out: &mut Vec<usize>) {
        out.extend([(item % 32) as usize, (item % 32) as usize + width / 2]);
    }

    fn k(&self) -> usize {
        2
    }
}

/// Sibling items: on every row with probability 1/2, 1/3, 1/4, 1/5.
const SIBLINGS: [u32; 6] = [20, 21, 22, 23, 24, 25];

/// A marker item: three rows (bits 5, 21 and 37) in every `stride`-th
/// word of a chunk, `words` of them, per `(chunk, words, stride)` span.  A
/// full chunk has 512 words and goes sparse under 64 nonzero ones; the
/// 5 000-row boundary chunk has 79 and goes sparse under 10.
struct Marker {
    item: u32,
    spans: &'static [(u64, u64, u64)],
    /// Chunks the item's AND-result is sparse in.
    sparse_chunks: u64,
    /// Chunks it has live rows in.
    live_chunks: u64,
}

const fn marker(
    item: u32,
    spans: &'static [(u64, u64, u64)],
    sparse_chunks: u64,
    live_chunks: u64,
) -> Marker {
    Marker {
        item,
        spans,
        sparse_chunks,
        live_chunks,
    }
}

const MARKERS: [Marker; 8] = [
    marker(0, &[(0, 1, 7)], 1, 1),
    marker(1, &[(0, 63, 7)], 1, 1),
    marker(2, &[(0, 64, 7)], 0, 1),
    marker(3, &[(0, 65, 7)], 0, 1),
    marker(4, &[(2, 9, 7)], 1, 1),
    marker(5, &[(2, 10, 7)], 0, 1),
    marker(6, &[(2, 11, 7)], 0, 1),
    // Sparse in chunk 0, wholly dead in chunk 1, dense in the boundary.
    marker(7, &[(0, 20, 7), (1, 30, 7), (2, 40, 1)], 1, 2),
];

fn marker_rows(spans: &[(u64, u64, u64)]) -> Vec<u64> {
    let mut rows = Vec::new();
    for &(chunk, words, stride) in spans {
        for word in (0..words).map(|j| j * stride) {
            rows.extend([5, 21, 37].map(|bit| chunk * CHUNK + word * 64 + bit));
        }
    }
    assert!(rows.iter().all(|&r| r < 2 * CHUNK + TAIL));
    rows
}

/// `2·CHUNK + TAIL` rows of sibling items, the marker items on their
/// rows; then chunk 1 wholly tombstoned and every 640th row of the others
/// (bit 0 of every tenth word — never a marker row).
fn build_sparse(b: &Path) {
    let mut marked: std::collections::HashMap<u64, Vec<u32>> = Default::default();
    for m in &MARKERS {
        for row in marker_rows(m.spans) {
            marked.entry(row).or_default().push(m.item);
        }
    }
    let mut dep = DiskDeployment::open(b, WIDTH, Arc::new(TwoSliceHasher), 512).expect("open");
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for i in 0..2 * CHUNK + TAIL {
        let mut items = marked.remove(&i).unwrap_or_default();
        for (j, &s) in SIBLINGS.iter().enumerate() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (state >> 33).is_multiple_of(2 + j as u64 % 4) {
                items.push(s);
            }
        }
        dep.append(&Transaction::new(i, Itemset::from_values(&items)))
            .expect("append");
    }
    dep.flush().expect("flush");
    let dead: Vec<u64> = (0..2 * CHUNK + TAIL)
        .filter(|&r| (CHUNK..2 * CHUNK).contains(&r) || r.is_multiple_of(640))
        .collect();
    dep.commit_deletes(&dead, &[]).expect("delete");
}

/// (v): parents on both sides of the density switch and exactly at it — in
/// a full chunk, in the boundary chunk, beside the wholly tombstoned one.
/// Every node of a walk that descends under each of them obeys the τ
/// contract for every τ, at one extend per descent, and the sparse path
/// was taken.
#[test]
fn sparse_parents_obey_the_tau_contract_at_every_node() {
    let b = base("sparse_walk");
    let _g = Cleanup(b.clone());
    build_sparse(&b);
    for cache_pages in [1, 512] {
        let dep = DiskDeployment::open(&b, WIDTH, Arc::new(TwoSliceHasher), cache_pages)
            .expect("reopen");
        let make = || {
            Ok(Audited {
                cursor: dep.index.counter()?,
                oracle: &dep.index,
                descents: 0,
            })
        };
        // τ = 2: the one-word marker (3 rows) is still a node of the walk.
        let (out, sources) =
            run_filter_source_threaded(make, dep.index.item_counts(), FilterKind::Single, 2, 1)
                .expect("walk");
        let [src] = &sources[..] else {
            panic!("one worker, one source")
        };
        assert!(out.stats.candidates > 200, "{} candidates", out.stats.candidates);
        let stats = src.cursor.cursor_stats();
        assert_eq!(stats.extends, src.descents, "{cache_pages} page(s)");
        assert!(stats.sparse_ands > 0 && stats.tau_exits > 0, "{stats:?}");
    }
}

/// (vi): the switch is where the constant says, and the sparse path reads
/// no page the dense one would not: per sibling, `k` pages for each chunk
/// the parent has ones in.  A one-page cache makes every page touched a
/// physical read.
#[test]
fn the_density_switch_is_exact_and_reads_no_more_pages() {
    let b = base("sparse_switch");
    let _g = Cleanup(b.clone());
    build_sparse(&b);
    let dep = DiskDeployment::open(&b, WIDTH, Arc::new(TwoSliceHasher), 1).expect("reopen");
    let exts: Vec<ItemId> = SIBLINGS.iter().map(|&s| ItemId(s)).collect();
    let k = 2;
    for Marker {
        item,
        spans,
        sparse_chunks,
        live_chunks,
    } in MARKERS
    {
        let parent = Itemset::from_values(&[item]);
        let live_rows = marker_rows(spans)
            .iter()
            .filter(|r| !(CHUNK..2 * CHUNK).contains(r))
            .count() as u64;
        assert_eq!(dep.index.count_itemset(&parent).expect("support"), live_rows);

        let mut cursor = dep.index.counter().expect("counter");
        cursor.count_extensions(&parent, &[], EXACT).expect("seek");
        let (reads, before) = (cursor.pager_stats().reads, cursor.cursor_stats());
        assert_eq!(before.extends, 1);
        let exact = cursor.count_extensions(&parent, &exts, EXACT).expect("exact");
        for (&got, &e) in exact.iter().zip(&exts) {
            let want = dep.index.count_itemset(&parent.with_item(e)).expect("oracle");
            assert_eq!(got, want, "marker {item}, extension {e:?}");
        }
        let after = cursor.cursor_stats();
        assert_eq!(
            after.sparse_ands - before.sparse_ands,
            k * sparse_chunks * exts.len() as u64,
            "marker {item}: {sparse_chunks} sparse chunk(s)"
        );
        let read = cursor.pager_stats().reads - reads;
        assert!(
            read > 0 && read <= k * live_chunks * exts.len() as u64,
            "marker {item}: {read} page reads for {} siblings of k = {k} in {live_chunks} chunk(s)",
            exts.len()
        );
        // Below τ on the parent's ones: nothing is read on either path.
        let bounds = cursor.count_extensions(&parent, &exts, live_rows + 1).expect("bounded");
        assert_eq!(bounds, vec![live_rows; exts.len()]);
        assert_eq!(cursor.pager_stats().reads - reads, read, "marker {item}");
    }
}
