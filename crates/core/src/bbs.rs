//! The Bit-Sliced Bloom-Filtered Signature File itself.

use bbs_bitslice::matrix::fold_signature;
use bbs_bitslice::{BitVec, Signature, SliceMatrix};
use bbs_hash::ItemHasher;
use bbs_tdb::io::pages_for;
use bbs_tdb::{IoStats, ItemId, Itemset, Transaction, TransactionDb, DEFAULT_PAGE_SIZE};
use std::collections::HashMap;
use std::sync::Arc;

/// The BBS index (§2 of the paper).
///
/// A `Bbs` is a dynamic, persistent companion structure to a
/// [`TransactionDb`]: row `r` of the index is the `m`-bit Bloom-filter
/// signature of row `r` of the database, stored slice-major.  It supports:
///
/// * **Incremental insertion** — adding a transaction appends one row; no
///   reconstruction is ever required (the paper's key advantage over
///   FP-trees, §3.4).
/// * **`CountItemSet`** — an upper-bound estimate of an itemset's support,
///   computed by ANDing the slices selected by the itemset's signature and
///   popcounting (Fig. 1; never undercounts, Lemmas 3–4).
/// * **Exact 1-itemset counts** — the "additional information" (§3.1) that
///   powers the DualFilter's certainty logic: maintaining these is O(items)
///   per insert, and they let Lemma 5 / Corollary 1 certify longer patterns
///   without touching the database.
///
/// All read operations charge a simulated I/O ledger at page granularity;
/// see the crate-level docs for the cost model.
///
/// Cloning is cheap relative to rebuilding (it copies the slice storage but
/// shares the hasher) and lets several miners run over one index.
#[derive(Clone)]
pub struct Bbs {
    width: usize,
    hasher: Arc<dyn ItemHasher>,
    matrix: SliceMatrix,
    /// Exact support of every 1-itemset ever inserted.
    item_counts: HashMap<ItemId, u64>,
    /// Deduplicated hash positions per inserted item (populated at insert
    /// time, so lookups need no interior mutability and `Bbs` stays `Sync`).
    positions_cache: HashMap<ItemId, Arc<[usize]>>,
    /// Bytes appended since the last full simulated page was charged.
    unflushed_write_bytes: usize,
    page_size: usize,
}

impl Bbs {
    /// Creates an empty index with `width`-bit signatures (the paper's `m`)
    /// and the given hash family.
    pub fn new(width: usize, hasher: Arc<dyn ItemHasher>) -> Self {
        Bbs::with_page_size(width, hasher, DEFAULT_PAGE_SIZE)
    }

    /// Creates an empty index with an explicit page size for I/O accounting.
    pub fn with_page_size(
        width: usize,
        hasher: Arc<dyn ItemHasher>,
        page_size: usize,
    ) -> Self {
        assert!(width > 0, "signature width must be positive");
        Bbs {
            width,
            hasher,
            matrix: SliceMatrix::new(width),
            item_counts: HashMap::new(),
            positions_cache: HashMap::new(),
            unflushed_write_bytes: 0,
            page_size,
        }
    }

    /// Builds an index over every transaction of `db`, charging the inserts
    /// to `stats`.
    pub fn build(
        width: usize,
        hasher: Arc<dyn ItemHasher>,
        db: &TransactionDb,
        stats: &mut IoStats,
    ) -> Self {
        let mut bbs = Bbs::with_page_size(width, hasher, db.page_size());
        for txn in db.transactions() {
            bbs.insert(txn, stats);
        }
        bbs
    }

    /// Signature width `m`.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of indexed transactions.
    #[inline]
    pub fn rows(&self) -> usize {
        self.matrix.rows()
    }

    /// The hash family in use.
    pub fn hasher(&self) -> &Arc<dyn ItemHasher> {
        &self.hasher
    }

    /// Bytes a dense slice-major file image of the index occupies.
    pub fn dense_bytes(&self) -> usize {
        self.matrix.dense_bytes()
    }

    /// The deduplicated hash positions of one item.
    ///
    /// Positions of inserted items come from the cache; an item never seen
    /// by the index (possible in ad-hoc queries) is hashed on the fly.
    pub fn positions(&self, item: ItemId) -> Arc<[usize]> {
        if let Some(p) = self.positions_cache.get(&item) {
            return Arc::clone(p);
        }
        self.compute_positions(item)
    }

    fn compute_positions(&self, item: ItemId) -> Arc<[usize]> {
        item_positions(&*self.hasher, item, self.width).into()
    }

    /// The Bloom signature of an itemset (union of its items' positions).
    pub fn signature_of(&self, itemset: &Itemset) -> Signature {
        let mut sig = Signature::zeros(self.width);
        for &item in itemset.items() {
            for &p in self.positions(item).iter() {
                sig.set(p);
            }
        }
        sig
    }

    /// Inserts one transaction, appending a row and updating the exact
    /// 1-itemset counts.  Charges amortised write I/O.
    pub fn insert(&mut self, txn: &Transaction, stats: &mut IoStats) -> usize {
        for &item in txn.items.items() {
            if !self.positions_cache.contains_key(&item) {
                let p = self.compute_positions(item);
                self.positions_cache.insert(item, p);
            }
        }
        let sig = self.signature_of(&txn.items);
        let row = self.matrix.push_row(&sig);
        for &item in txn.items.items() {
            *self.item_counts.entry(item).or_insert(0) += 1;
        }
        // A row adds m bits = m/8 bytes to the slice file (amortised across
        // slices); charge full pages as they fill.
        self.unflushed_write_bytes += self.width.div_ceil(8);
        let pages = self.unflushed_write_bytes / self.page_size;
        if pages > 0 {
            stats.bbs_pages_written += pages as u64;
            self.unflushed_write_bytes -= pages * self.page_size;
        }
        row
    }

    /// The exact support of a 1-itemset (0 if the item never occurred).
    pub fn actual_singleton_count(&self, item: ItemId) -> u64 {
        self.item_counts.get(&item).copied().unwrap_or(0)
    }

    /// Exact supports of every 1-itemset ever inserted; its keys are the
    /// mining vocabulary.
    pub fn item_counts(&self) -> &HashMap<ItemId, u64> {
        &self.item_counts
    }

    /// Every distinct item ever inserted, sorted ascending.
    pub fn vocabulary(&self) -> Vec<ItemId> {
        let mut v: Vec<ItemId> = self.item_counts.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Bytes of one slice in a dense file image.
    fn slice_bytes(&self) -> usize {
        self.rows().div_ceil(8)
    }

    /// Charges the read of `n_slices` full slices (batched: the slices of
    /// one query are read together, so partial pages coalesce).
    fn charge_slice_reads(&self, n_slices: usize, stats: &mut IoStats) {
        stats.bbs_pages_read += pages_for(n_slices * self.slice_bytes(), self.page_size);
    }

    /// Charges one cold sequential load of the whole slice file.
    ///
    /// The mining algorithms call this once per run: after the first pass a
    /// memory-resident index serves every subsequent `CountItemSet` from
    /// RAM ("BBS is typically small and will not take too many scans if it
    /// does not fit into the memory", §1) — which is why a
    /// [`crate::Cursor`] walking the loaded index charges nothing per
    /// count.
    pub fn charge_cold_load(&self, stats: &mut IoStats) {
        stats.bbs_passes += 1;
        stats.bbs_pages_read += pages_for(self.dense_bytes(), self.page_size);
    }

    /// `CountItemSet` (Fig. 1): upper-bound estimate of the itemset's
    /// support.  An empty itemset counts every transaction.
    pub fn est_count(&self, itemset: &Itemset, stats: &mut IoStats) -> u64 {
        let sig = self.signature_of(itemset);
        self.charge_slice_reads(sig.weight(), stats);
        self.matrix.count_selected(&sig) as u64
    }

    /// `CountItemSet`, returning the result bit vector as well (the set of
    /// candidate rows, which the Probe refiner fetches).
    pub fn est_result(&self, itemset: &Itemset, out: &mut BitVec, stats: &mut IoStats) -> u64 {
        let sig = self.signature_of(itemset);
        self.charge_slice_reads(sig.weight(), stats);
        self.matrix.and_selected(&sig, out);
        out.count_ones() as u64
    }

    /// Constrained estimate (§3.4): `CountItemSet` with one extra
    /// constraint slice ANDed into the result.
    pub fn est_count_constrained(
        &self,
        itemset: &Itemset,
        constraint: &BitVec,
        stats: &mut IoStats,
    ) -> u64 {
        let sig = self.signature_of(itemset);
        // The constraint slice is one more slice read.
        self.charge_slice_reads(sig.weight() + 1, stats);
        let words = bbs_bitslice::words_for(self.rows());
        let mut operands: Vec<&[u64]> = Vec::with_capacity(sig.weight() + 1);
        let slice_refs: Vec<&[u64]> = sig.iter_ones().map(|p| self.matrix.slice_words(p)).collect();
        operands.extend(slice_refs);
        operands.push(constraint.words());
        bbs_bitslice::ops::and_all_count(&operands, words) as u64
    }

    /// Constrained estimate returning the result rows as well.
    pub fn est_result_constrained(
        &self,
        itemset: &Itemset,
        constraint: &BitVec,
        out: &mut BitVec,
        stats: &mut IoStats,
    ) -> u64 {
        self.est_result(itemset, out, stats);
        self.charge_slice_reads(1, stats);
        out.and_assign(constraint);
        out.count_ones() as u64
    }

    /// Folds the index to `new_width` slices (the adaptive filter's
    /// *MemBBS*, §3.1): slice `j` is ORed into slice `j % new_width`, and
    /// the item position cache is rebuilt through [`fold_signature`]'s
    /// mapping.  Exact 1-itemset counts are carried over unchanged.
    ///
    /// Charges one full read pass over the original slice file.
    pub fn fold(&self, new_width: usize, stats: &mut IoStats) -> Bbs {
        assert!(new_width > 0);
        stats.bbs_passes += 1;
        stats.bbs_pages_read += pages_for(self.dense_bytes(), self.page_size);
        let folded_hasher = Arc::new(FoldedHasher {
            inner: Arc::clone(&self.hasher),
            original_width: self.width,
        });
        let width = new_width.min(self.width);
        // Fold the cached positions through the same j → j mod k map.
        let positions_cache = self
            .positions_cache
            .iter()
            .map(|(&item, ps)| {
                let mut v: Vec<usize> = ps.iter().map(|&p| p % width).collect();
                v.sort_unstable();
                v.dedup();
                (item, Arc::<[usize]>::from(v))
            })
            .collect();
        Bbs {
            width,
            hasher: folded_hasher,
            matrix: self.matrix.fold(new_width),
            item_counts: self.item_counts.clone(),
            positions_cache,
            unflushed_write_bytes: 0,
            page_size: self.page_size,
        }
    }

    /// Read access to the underlying slice matrix (benchmarks, tests).
    pub fn matrix(&self) -> &SliceMatrix {
        &self.matrix
    }

    /// Assembles an index from externally stored parts: the slices (each at
    /// most `rows` bits; shorter slices zero-extend), the exact 1-itemset
    /// counts, and the hash family the signatures were built with.
    ///
    /// This is the integration point for external storage layers (e.g. the
    /// `bbs-storage` crate's disk-backed slice file): load the columns
    /// however you store them, hand them over, and mine.
    ///
    /// # Errors
    /// Returns a description of the structural inconsistency if the slices
    /// do not form a valid matrix.
    pub fn from_raw_parts(
        hasher: Arc<dyn ItemHasher>,
        width: usize,
        rows: usize,
        slices: Vec<BitVec>,
        item_counts: Vec<(ItemId, u64)>,
    ) -> Result<Bbs, &'static str> {
        let matrix = SliceMatrix::from_slices(width, rows, slices)?;
        let mut bbs = Bbs {
            width: matrix.width(),
            hasher,
            matrix,
            item_counts: item_counts.into_iter().collect(),
            positions_cache: HashMap::new(),
            unflushed_write_bytes: 0,
            page_size: DEFAULT_PAGE_SIZE,
        };
        let items: Vec<ItemId> = bbs.item_counts.keys().copied().collect();
        for item in items {
            let p = bbs.compute_positions(item);
            bbs.positions_cache.insert(item, p);
        }
        Ok(bbs)
    }
}

/// The slice positions one item selects at `width`, ascending and
/// deduplicated — what every position cache memoises.
pub fn item_positions(hasher: &dyn ItemHasher, item: ItemId, width: usize) -> Vec<usize> {
    let mut v = hasher.positions_vec(item.value(), width);
    v.sort_unstable();
    v.dedup();
    v
}

/// A hasher that first hashes at an original width and then folds the
/// positions down, so that a folded [`Bbs`] produces query signatures
/// consistent with its folded slices.
struct FoldedHasher {
    inner: Arc<dyn ItemHasher>,
    original_width: usize,
}

impl ItemHasher for FoldedHasher {
    fn positions(&self, item: u64, width: usize, out: &mut Vec<usize>) {
        let start = out.len();
        self.inner.positions(item, self.original_width, out);
        for p in out[start..].iter_mut() {
            *p %= width;
        }
    }

    fn k(&self) -> usize {
        self.inner.k()
    }
}

/// Consistency check used by tests: folding the signature of an itemset at
/// the original width must equal the signature the folded BBS computes.
pub fn folded_signature_of(original: &Bbs, itemset: &Itemset, new_width: usize) -> Signature {
    fold_signature(&original.signature_of(itemset), new_width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::Cursor;
    use crate::filter::{CountSource, EXACT};
    use bbs_hash::{Md5BloomHasher, ModuloHasher};

    fn set(vals: &[u32]) -> Itemset {
        Itemset::from_values(vals)
    }

    /// Table 1 of the paper, indexed with h(x) = x mod 8, m = 8.
    fn paper_bbs() -> (Bbs, TransactionDb, IoStats) {
        let db = TransactionDb::from_transactions(vec![
            Transaction::new(100, set(&[0, 1, 2, 3, 4, 5, 14, 15])),
            Transaction::new(200, set(&[1, 2, 3, 5, 6, 7])),
            Transaction::new(300, set(&[1, 5, 14, 15])),
            Transaction::new(400, set(&[0, 1, 2, 7])),
            Transaction::new(500, set(&[1, 2, 5, 6, 11, 15])),
        ]);
        let mut io = IoStats::new();
        let bbs = Bbs::build(8, Arc::new(ModuloHasher), &db, &mut io);
        (bbs, db, io)
    }

    #[test]
    fn example_2_counts() {
        let (bbs, _, _) = paper_bbs();
        let mut io = IoStats::new();
        // {0,1}: exact count 2.
        assert_eq!(bbs.est_count(&set(&[0, 1]), &mut io), 2);
        // {1,3}: overestimate 3 (true count 2).
        assert_eq!(bbs.est_count(&set(&[1, 3]), &mut io), 3);
    }

    #[test]
    fn est_never_undercounts_lemma_4() {
        let (bbs, db, _) = paper_bbs();
        let mut io = IoStats::new();
        // Check every 1- and 2-itemset over the vocabulary.
        let vocab = db.vocabulary();
        for (i, &a) in vocab.iter().enumerate() {
            let ia = Itemset::from_items(vec![a]);
            let act = db.count_support(&ia, &mut io);
            assert!(bbs.est_count(&ia, &mut io) >= act, "{ia:?}");
            for &b in &vocab[i + 1..] {
                let iab = ia.with_item(b);
                let act = db.count_support(&iab, &mut io);
                assert!(bbs.est_count(&iab, &mut io) >= act, "{iab:?}");
            }
        }
    }

    #[test]
    fn exact_when_width_covers_items() {
        // §2.2 extreme: m ≥ number of items with an injective hash makes the
        // estimate exact for every itemset.
        let (_, db, _) = paper_bbs();
        let mut io = IoStats::new();
        let bbs = Bbs::build(16, Arc::new(ModuloHasher), &db, &mut io);
        let vocab = db.vocabulary();
        for (i, &a) in vocab.iter().enumerate() {
            for &b in &vocab[i..] {
                let s = Itemset::from_items(vec![a, b]);
                assert_eq!(
                    bbs.est_count(&s, &mut io),
                    db.count_support(&s, &mut io),
                    "{s:?}"
                );
            }
        }
    }

    #[test]
    fn width_one_estimates_db_size() {
        // §2.2 other extreme: m = 1 returns |D| for every itemset.
        let (_, db, _) = paper_bbs();
        let mut io = IoStats::new();
        let bbs = Bbs::build(1, Arc::new(ModuloHasher), &db, &mut io);
        for items in [&[0u32][..], &[1, 3], &[9, 10, 11]] {
            assert_eq!(bbs.est_count(&set(items), &mut io), 5);
        }
    }

    #[test]
    fn singleton_counts_maintained_on_insert() {
        let (bbs, _, _) = paper_bbs();
        assert_eq!(bbs.actual_singleton_count(ItemId(1)), 5);
        assert_eq!(bbs.actual_singleton_count(ItemId(15)), 3);
        assert_eq!(bbs.actual_singleton_count(ItemId(11)), 1);
        assert_eq!(bbs.actual_singleton_count(ItemId(99)), 0);
    }

    #[test]
    fn vocabulary_sorted() {
        let (bbs, _, _) = paper_bbs();
        let v = bbs.vocabulary();
        assert_eq!(v.first(), Some(&ItemId(0)));
        assert_eq!(v.last(), Some(&ItemId(15)));
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_itemset_counts_all_rows() {
        let (bbs, _, _) = paper_bbs();
        let mut io = IoStats::new();
        assert_eq!(bbs.est_count(&Itemset::empty(), &mut io), 5);
    }

    #[test]
    fn est_result_names_candidate_rows() {
        let (bbs, _, _) = paper_bbs();
        let mut io = IoStats::new();
        let mut out = BitVec::new();
        let n = bbs.est_result(&set(&[1, 3]), &mut out, &mut io);
        assert_eq!(n, 3);
        assert_eq!(out.iter_ones().collect::<Vec<_>>(), vec![0, 1, 4]);
    }

    #[test]
    fn incremental_extend_matches_full_count() {
        let (bbs, _, _) = paper_bbs();
        let mut io = IoStats::new();
        let mut cursor = Cursor::resident(&bbs, None);
        let est = cursor
            .count_extensions(&set(&[1]), &[ItemId(3)], EXACT)
            .expect("extend");
        assert_eq!(est, [bbs.est_count(&set(&[1, 3]), &mut io)]);
        assert_eq!(cursor.stats().extends, 1, "the parent {{1}} once");
    }

    #[test]
    fn extend_from_all_rows_matches_singleton() {
        let (bbs, _, _) = paper_bbs();
        let mut io = IoStats::new();
        let mut cursor = Cursor::resident(&bbs, None);
        let items = [0u32, 1, 5, 9, 15].map(ItemId);
        let got = cursor
            .count_extensions(&Itemset::empty(), &items, EXACT)
            .expect("extend");
        for (item, got) in items.into_iter().zip(got) {
            assert_eq!(got, bbs.est_count(&set(&[item.0]), &mut io), "item {item:?}");
        }
    }

    #[test]
    fn constrained_count_restricts_rows() {
        let (bbs, _, _) = paper_bbs();
        let mut io = IoStats::new();
        // Constraint selecting rows 0 and 4 only.
        let constraint = BitVec::from_indices(5, &[0, 4]);
        // {1} matches all rows; constrained to 2.
        assert_eq!(
            bbs.est_count_constrained(&set(&[1]), &constraint, &mut io),
            2
        );
        let mut out = BitVec::new();
        let n = bbs.est_result_constrained(&set(&[1]), &constraint, &mut out, &mut io);
        assert_eq!(n, 2);
        assert_eq!(out.iter_ones().collect::<Vec<_>>(), vec![0, 4]);
    }

    #[test]
    fn fold_preserves_upper_bound() {
        let (bbs, db, _) = paper_bbs();
        let mut io = IoStats::new();
        let folded = bbs.fold(3, &mut io);
        assert_eq!(folded.width(), 3);
        assert_eq!(folded.rows(), 5);
        assert_eq!(io.bbs_passes, 1);
        for items in [&[0u32][..], &[1, 3], &[1, 2, 5], &[15]] {
            let s = set(items);
            let est_folded = folded.est_count(&s, &mut io);
            let est_orig = bbs.est_count(&s, &mut io);
            let act = db.count_support(&s, &mut io);
            assert!(est_folded >= est_orig, "{s:?}: folded < original");
            assert!(est_orig >= act, "{s:?}");
        }
    }

    #[test]
    fn fold_signature_consistency() {
        let (bbs, _, _) = paper_bbs();
        let mut io = IoStats::new();
        let folded = bbs.fold(3, &mut io);
        for items in [&[1u32, 3][..], &[0, 7], &[14, 15]] {
            let s = set(items);
            assert_eq!(
                folded.signature_of(&s).iter_ones().collect::<Vec<_>>(),
                folded_signature_of(&bbs, &s, 3).iter_ones().collect::<Vec<_>>(),
                "{s:?}"
            );
        }
    }

    #[test]
    fn incremental_equals_batch_build() {
        let (_, db, _) = paper_bbs();
        let mut io = IoStats::new();
        let batch = Bbs::build(8, Arc::new(ModuloHasher), &db, &mut io);
        let mut incremental = Bbs::new(8, Arc::new(ModuloHasher));
        for txn in db.transactions() {
            incremental.insert(txn, &mut io);
        }
        for j in 0..8 {
            assert_eq!(
                batch.matrix().slice(j).iter_ones().collect::<Vec<_>>(),
                incremental.matrix().slice(j).iter_ones().collect::<Vec<_>>(),
                "slice {j}"
            );
        }
        assert_eq!(batch.vocabulary(), incremental.vocabulary());
    }

    #[test]
    fn md5_hasher_bbs_upper_bound_holds() {
        let (_, db, _) = paper_bbs();
        let mut io = IoStats::new();
        let bbs = Bbs::build(64, Arc::new(Md5BloomHasher::new(4)), &db, &mut io);
        let vocab = db.vocabulary();
        for (i, &a) in vocab.iter().enumerate() {
            for &b in &vocab[i + 1..] {
                let s = Itemset::from_items(vec![a, b]);
                assert!(
                    bbs.est_count(&s, &mut io) >= db.count_support(&s, &mut io),
                    "{s:?}"
                );
            }
        }
    }

    #[test]
    fn io_charging_counts_slice_pages() {
        let (_, db, _) = paper_bbs();
        let mut io = IoStats::new();
        let bbs = Bbs::with_page_size(8, Arc::new(ModuloHasher), 4096, );
        let mut bbs = bbs;
        for t in db.transactions() {
            bbs.insert(t, &mut io);
        }
        let mut read_io = IoStats::new();
        bbs.est_count(&set(&[1, 3]), &mut read_io);
        // Two 1-byte slices selected: coalesce into a single page read.
        assert_eq!(read_io.bbs_pages_read, 1);
        // A cold load of the whole (8-byte dense) file is also one page.
        let mut cold_io = IoStats::new();
        bbs.charge_cold_load(&mut cold_io);
        assert_eq!(cold_io.bbs_pages_read, 1);
        assert_eq!(cold_io.bbs_passes, 1);
    }

    #[test]
    fn insert_write_charging_accumulates() {
        let hasher: Arc<dyn ItemHasher> = Arc::new(ModuloHasher);
        let mut bbs = Bbs::with_page_size(1600, Arc::clone(&hasher), 4096);
        let mut io = IoStats::new();
        // Each insert appends 200 bytes; the 21st crosses the 4096 boundary.
        for i in 0..20 {
            bbs.insert(&Transaction::new(i, set(&[1])), &mut io);
        }
        assert_eq!(io.bbs_pages_written, 0);
        bbs.insert(&Transaction::new(20, set(&[1])), &mut io);
        assert_eq!(io.bbs_pages_written, 1);
    }
}
