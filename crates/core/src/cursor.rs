//! The one depth-first cursor every walk counts through.
//!
//! A depth-first miner carries the *projected* bit vector of its prefix
//! down the recursion (Ramp): the AND-result of `prefix ∪ {item}` is the
//! prefix's AND-result ANDed with the item's own `k` slices, not a fresh
//! AND of all `k·|prefix ∪ {item}|` of them.  [`Cursor`] keeps that state
//! — the current path and one AND-result per depth — behind the counting
//! trait, and reads the slices page by page through a [`SliceSource`]:
//! the disk's slice file through its page cache, or a loaded [`Bbs`]
//! ([`Resident`]) in place.  Every walk — offline, sharded, served, over
//! pulled rows, in memory — is this one.

use crate::bbs::{item_positions, Bbs};
use crate::filter::{CountSource, EXACT};
use bbs_bitslice::ops::{self, OnesIter};
use bbs_bitslice::{BitVec, PAGE_WORDS};
use bbs_hash::ItemHasher;
use bbs_tdb::{BufferPool, IoStats, ItemId, Itemset, TransactionDb};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;

/// What a [`Cursor`] asks of the slices it walks: each is read one
/// [`PAGE_WORDS`]-word chunk at a time, chunk `c` holding rows
/// `c·64·PAGE_WORDS..`.
pub trait SliceSource {
    /// Signature width `m`: the slices are `0..width`.
    fn width(&self) -> usize;

    /// ANDs chunk `chunk` of slice `slice` onto `words` — that chunk's
    /// words of a row vector the caller holds — in place, and returns the
    /// popcount of the result.  `words` is at most [`PAGE_WORDS`] long; a
    /// boundary chunk passes only the words its rows fill.
    fn and_page(&mut self, chunk: u64, slice: usize, words: &mut [u64]) -> io::Result<u64>;

    /// [`SliceSource::and_page`] for a parent that is mostly zero words in
    /// this chunk: `run` holds only the words at the in-page `offsets`
    /// (ascending), so only those words of the page are touched — the
    /// popcount returned is the one `and_page` would give over the whole
    /// chunk, because every word left out is zero in the parent.
    fn and_page_at(
        &mut self,
        chunk: u64,
        slice: usize,
        offsets: &[u16],
        run: &mut [u64],
    ) -> io::Result<u64>;

    /// Whether [`SliceSource::verify`] can answer: the cursor positions
    /// itself on a candidate for a source that can, and only then.
    fn verifies(&self) -> bool {
        false
    }

    /// The integrated probe of §3.3: the exact support of `candidate`,
    /// whose AND-result `rows` names its candidate rows, charging the
    /// fetches to `io`.  `None` — the default — leaves the candidate
    /// uncertain.
    fn verify(
        &mut self,
        _rows: &[u64],
        _candidate: &Itemset,
        _io: &mut IoStats,
    ) -> io::Result<Option<u64>> {
        Ok(None)
    }
}

/// A chunk of a [`Level`] is gathered, not ANDed whole, when fewer than
/// one in this many of its words are nonzero.  Measured on the benchmark's
/// four workloads (DESIGN.md §8): at 2 the scalar gather loses to the
/// vectorised whole-page AND on the Quest files; at 8 those are unmoved
/// and a tombstone-heavy file keeps the whole gain.
const SPARSE_DIVISOR: usize = 8;

/// One depth of the cursor: the AND-result of a prefix as plain words
/// over all the source's rows, with how many ones it has left and where
/// they are in the chunks that hold few.
#[derive(Default)]
struct Level {
    words: Vec<u64>,
    /// `ones_from[c]` is the number of set bits in chunks `c..` —
    /// `chunks + 1` entries, the last one zero.
    ones_from: Vec<u64>,
    /// In-page offsets of the nonzero words of every sparse chunk,
    /// ascending, chunk after chunk.
    nonzero: Vec<u16>,
    /// Chunk `c`'s offsets are `nonzero[nonzero_from[c]..nonzero_from[c +
    /// 1]]` — none for a chunk that is dense (or empty).
    nonzero_from: Vec<u32>,
}

impl Level {
    /// Rebuilds `ones_from` and the sparse chunks' offsets from the words.
    fn recount(&mut self) {
        self.ones_from.clear();
        self.nonzero.clear();
        self.nonzero_from.clear();
        for chunk in self.words.chunks(PAGE_WORDS) {
            let start = self.nonzero.len();
            self.nonzero_from.push(start as u32);
            let ones = ops::count_ones(chunk) as u64;
            self.ones_from.push(ones);
            // Sparse is `nonzero × SPARSE_DIVISOR < words`: collect offsets
            // until that fails, which a dense chunk does within its first
            // eighth.
            let dense_at = chunk.len().div_ceil(SPARSE_DIVISOR);
            for (offset, &word) in chunk.iter().enumerate() {
                if word != 0 {
                    if self.nonzero.len() - start + 1 >= dense_at {
                        self.nonzero.truncate(start);
                        break;
                    }
                    self.nonzero.push(offset as u16);
                }
            }
        }
        self.nonzero_from.push(self.nonzero.len() as u32);
        self.ones_from.push(0);
        for c in (1..self.ones_from.len()).rev() {
            self.ones_from[c - 1] += self.ones_from[c];
        }
    }

    /// Whether the vector has no set bit in chunk `c`.
    fn empty_in(&self, c: usize) -> bool {
        self.ones_from[c] == self.ones_from[c + 1]
    }

    /// The in-page offsets of chunk `c`'s nonzero words when the chunk is
    /// sparse; empty when it is dense (or [`Level::empty_in`]).
    fn nonzero_in(&self, c: usize) -> &[u16] {
        &self.nonzero[self.nonzero_from[c] as usize..self.nonzero_from[c + 1] as usize]
    }
}

/// What a [`Cursor`]'s depth-first walk did, in the paper's terms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CursorStats {
    /// AND-results materialised: one per item ANDed into a level the
    /// cursor keeps.
    pub extends: u64,
    /// Counts answered before their last slice, with an upper bound
    /// below τ.
    pub tau_exits: u64,
    /// Chunks never read because the parent has no ones in them.
    pub chunks_skipped: u64,
    /// Page ANDs that touched only the parent's nonzero words.
    pub sparse_ands: u64,
}

impl CursorStats {
    /// Adds what another walk did.
    pub fn absorb(&mut self, other: CursorStats) {
        self.extends += other.extends;
        self.tau_exits += other.tau_exits;
        self.chunks_skipped += other.chunks_skipped;
        self.sparse_ands += other.sparse_ands;
    }
}

/// A cursor into the enumeration tree over the slices of a
/// [`SliceSource`].
///
/// As a [`CountSource`] it keeps the path it is positioned on and, per
/// depth, the AND-result of that prefix over all rows (`⌈rows/64⌉ × 8`
/// bytes a level, plus one scratch vector).  A call re-syncs by the
/// longest common prefix of its itemset and the path — at most one extend
/// in depth-first order, and calls in any other order are merely slower,
/// never wrong — and then counts each sibling by ANDing the item's own `k`
/// slice pages onto the parent's words, slice by slice.  A chunk the
/// parent has no ones in is not read, and a count stops as soon as what it
/// has is below τ — `counted + parent's ones left` within the first slice,
/// the popcount of the running result after each: both are upper bounds on
/// the estimate, so the τ contract holds.  Where the parent is mostly zero
/// words in a chunk (`SPARSE_DIVISOR`) the operand is only its nonzero
/// words, gathered once and ANDed against the same offsets of each page:
/// the same rows, the same counts, a fraction of the words.
pub struct Cursor<S> {
    source: S,
    hasher: Arc<dyn ItemHasher>,
    positions: HashMap<ItemId, Vec<usize>>,
    /// The itemset the cursor is positioned on, in enumeration order.
    path: Vec<ItemId>,
    /// `levels[d]` is the AND-result of `path[..d]` for `d ≤ path.len()`
    /// (`levels[0]` is the root the cursor was built with); deeper entries
    /// are spare buffers from earlier descents.
    levels: Vec<Level>,
    /// As long as a level: where a sibling's AND-result is built.
    scratch: Vec<u64>,
    stats: CursorStats,
}

/// The cached slice positions of `item`, hashed on first use.
fn cached_positions<'a>(
    cache: &'a mut HashMap<ItemId, Vec<usize>>,
    hasher: &dyn ItemHasher,
    item: ItemId,
    width: usize,
) -> &'a [usize] {
    cache
        .entry(item)
        .or_insert_with(|| item_positions(hasher, item, width))
}

/// Sets `out` to the slice positions `items` select, ascending and
/// deduplicated, hashing each item once into `cache`.
pub fn union_positions(
    out: &mut Vec<usize>,
    cache: &mut HashMap<ItemId, Vec<usize>>,
    hasher: &dyn ItemHasher,
    items: &[ItemId],
    width: usize,
) {
    out.clear();
    for &item in items {
        out.extend_from_slice(cached_positions(cache, hasher, item, width));
    }
    out.sort_unstable();
    out.dedup();
}

/// How many leading items `a` and `b` share.
fn common_prefix(a: &[ItemId], b: &[ItemId]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Builds `child` as `parent` ANDed with the slices at `positions`.  A
/// chunk the parent has no ones in is not read; where the parent is
/// sparse, its nonzero words are gathered into `scratch`, every slice is
/// ANDed onto that short run, and the run is scattered back (the words
/// left out stay zero).
fn and_level<S: SliceSource>(
    slices: &mut S,
    stats: &mut CursorStats,
    scratch: &mut [u64],
    parent: &Level,
    child: &mut Level,
    positions: &[usize],
) -> io::Result<()> {
    child.words.clear();
    child.words.extend_from_slice(&parent.words);
    for (c, words) in child.words.chunks_mut(PAGE_WORDS).enumerate() {
        if parent.empty_in(c) {
            stats.chunks_skipped += 1;
            continue;
        }
        let nonzero = parent.nonzero_in(c);
        if nonzero.is_empty() {
            for &slice in positions {
                slices.and_page(c as u64, slice, words)?;
            }
            continue;
        }
        let run = &mut scratch[..nonzero.len()];
        for (r, &o) in run.iter_mut().zip(nonzero) {
            *r = words[usize::from(o)];
        }
        for &slice in positions {
            slices.and_page_at(c as u64, slice, nonzero, run)?;
        }
        stats.sparse_ands += positions.len() as u64;
        for (&r, &o) in run.iter().zip(nonzero) {
            words[usize::from(o)] = r;
        }
    }
    child.recount();
    Ok(())
}

/// The popcount of `parent` ANDed with the slices at `positions`, built in
/// `scratch`, under the τ contract.
///
/// Slice by slice: each slice is ANDed onto the running result over every
/// chunk the parent has ones in, and the popcount after a slice bounds the
/// estimate from above (the slices still to come can only clear bits) — so
/// a sibling that shares few rows with the parent is decided after one
/// page per chunk, not `k`.  During the first slice the chunks still
/// unread can add at most the ones the parent has left in them, which
/// decides a sibling of a near-τ parent before the pass is over.
///
/// In a chunk where the parent is sparse the running result is the short
/// run of its nonzero words (kept at the head of the chunk's scratch),
/// gathered in the first pass and ANDed at the same offsets in the later
/// ones: the popcounts, and so all three bounds, are what the whole-chunk
/// AND would give.
fn and_count<S: SliceSource>(
    slices: &mut S,
    stats: &mut CursorStats,
    scratch: &mut [u64],
    parent: &Level,
    positions: &[usize],
    tau: u64,
) -> io::Result<u64> {
    let acc = &mut scratch[..parent.words.len()];
    let mut total = parent.ones_from[0];
    for (pass, &slice) in positions.iter().enumerate() {
        total = 0;
        let first = pass == 0;
        for (c, words) in acc.chunks_mut(PAGE_WORDS).enumerate() {
            let bound = total + parent.ones_from[c];
            if first && bound < tau {
                stats.tau_exits += 1;
                return Ok(bound);
            }
            if parent.empty_in(c) {
                stats.chunks_skipped += u64::from(first);
                continue;
            }
            let lo = c * PAGE_WORDS;
            let nonzero = parent.nonzero_in(c);
            if nonzero.is_empty() {
                if first {
                    words.copy_from_slice(&parent.words[lo..lo + words.len()]);
                }
                total += slices.and_page(c as u64, slice, words)?;
                continue;
            }
            let run = &mut words[..nonzero.len()];
            if first {
                for (r, &o) in run.iter_mut().zip(nonzero) {
                    *r = parent.words[lo + usize::from(o)];
                }
            }
            stats.sparse_ands += 1;
            total += slices.and_page_at(c as u64, slice, nonzero, run)?;
        }
        if total < tau && pass + 1 < positions.len() {
            stats.tau_exits += 1;
            return Ok(total);
        }
    }
    Ok(total)
}

impl<S: SliceSource> Cursor<S> {
    /// Positions a cursor at the root of `source`, whose items hash to
    /// slices through `hasher`.  `root` is the AND-result of the empty
    /// itemset — every row the cursor may count, `⌈rows/64⌉` words with no
    /// bit at or past `rows` — so nothing ANDed onto it needs a clamp or a
    /// tombstone mask again.
    pub fn new(source: S, hasher: Arc<dyn ItemHasher>, root: Vec<u64>) -> Self {
        let mut level = Level {
            words: root,
            ..Level::default()
        };
        level.recount();
        Cursor {
            scratch: vec![0; level.words.len()],
            levels: vec![level],
            source,
            hasher,
            positions: HashMap::new(),
            path: Vec::new(),
            stats: CursorStats::default(),
        }
    }

    /// The slices the cursor reads.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// What the cursor's walk has done so far.
    pub fn stats(&self) -> CursorStats {
        self.stats
    }

    /// Level buffers the cursor holds, spare ones included.
    pub fn levels_held(&self) -> usize {
        self.levels.len()
    }

    /// Exact `CountItemSet` for a batch, as one walk of the batch's prefix
    /// trie.  Each itemset's items are ordered by how many itemsets of the
    /// batch name them (most first, ties by id), so itemsets that share
    /// items share a prefix, and the ordered itemsets are sorted.  Walking
    /// them in that order, the prefix an itemset shares with the next one
    /// (short of its last item) is ANDed into one level, kept while the
    /// itemsets after it start with it; each itemset is counted as the
    /// slices of its remaining items ANDed onto that level, or onto the
    /// root.  A group of siblings pays its common prefix once, and the
    /// walk holds three levels whatever the itemsets' lengths.  Duplicates
    /// are counted once.  Supports come back in request order; an empty
    /// itemset counts every root row.  The cursor's own path is given up:
    /// the walk leaves it empty.
    pub fn count_many(&mut self, itemsets: &[Itemset]) -> io::Result<Vec<u64>> {
        let mut named: HashMap<ItemId, usize> = HashMap::new();
        for items in itemsets {
            for &item in items.items() {
                *named.entry(item).or_default() += 1;
            }
        }
        let mut walk: Vec<(Vec<ItemId>, usize)> = itemsets
            .iter()
            .enumerate()
            .map(|(at, items)| {
                let mut path = items.items().to_vec();
                path.sort_unstable_by_key(|item| (std::cmp::Reverse(named[item]), *item));
                (path, at)
            })
            .collect();
        walk.sort_unstable();
        // Level 1 is the AND-result of `held`; level 2 is where the next
        // one is built before it is swapped in.
        self.path.clear();
        self.levels.resize_with(3, Level::default);
        let width = self.source.width();
        let mut held: &[ItemId] = &[];
        let mut positions = Vec::new();
        let mut supports = vec![0; itemsets.len()];
        for (i, (path, at)) in walk.iter().enumerate() {
            if let Some((previous, first)) = i.checked_sub(1).map(|p| &walk[p]) {
                if previous == path {
                    supports[*at] = supports[*first];
                    continue;
                }
            }
            if path.is_empty() {
                supports[*at] = self.levels[0].ones_from[0];
                continue;
            }
            if held.len() >= path.len() || !path.starts_with(held) {
                held = &[];
            }
            let shared = walk
                .get(i + 1)
                .map_or(0, |(next, _)| common_prefix(path, next))
                .min(path.len() - 1);
            if shared > held.len() {
                union_positions(
                    &mut positions,
                    &mut self.positions,
                    &*self.hasher,
                    &path[held.len()..shared],
                    width,
                );
                let (built, spare) = self.levels.split_at_mut(2);
                let parent = &built[usize::from(!held.is_empty())];
                and_level(
                    &mut self.source,
                    &mut self.stats,
                    &mut self.scratch,
                    parent,
                    &mut spare[0],
                    &positions,
                )?;
                self.levels.swap(1, 2);
                self.stats.extends += (shared - held.len()) as u64;
                held = &path[..shared];
            }
            union_positions(
                &mut positions,
                &mut self.positions,
                &*self.hasher,
                &path[held.len()..],
                width,
            );
            let parent = &self.levels[usize::from(!held.is_empty())];
            supports[*at] = and_count(
                &mut self.source,
                &mut self.stats,
                &mut self.scratch,
                parent,
                &positions,
                EXACT,
            )?;
        }
        Ok(supports)
    }

    /// Moves the cursor to `target`: keeps the levels of the longest
    /// common prefix and extends by the remaining items, one AND-result
    /// each.
    fn seek(&mut self, target: &[ItemId]) -> io::Result<()> {
        let common = common_prefix(&self.path, target);
        self.path.truncate(common);
        let width = self.source.width();
        for &item in &target[common..] {
            let depth = self.path.len();
            if self.levels.len() <= depth + 1 {
                self.levels.push(Level::default());
            }
            let (parents, children) = self.levels.split_at_mut(depth + 1);
            let positions = cached_positions(&mut self.positions, &*self.hasher, item, width);
            and_level(
                &mut self.source,
                &mut self.stats,
                &mut self.scratch,
                &parents[depth],
                &mut children[0],
                positions,
            )?;
            self.stats.extends += 1;
            self.path.push(item);
        }
        Ok(())
    }

    /// Estimated support of `path ∪ {item}` under the τ contract (see
    /// [`and_count`]).
    fn count_extension(&mut self, item: ItemId, tau: u64) -> io::Result<u64> {
        let width = self.source.width();
        let positions = cached_positions(&mut self.positions, &*self.hasher, item, width);
        and_count(
            &mut self.source,
            &mut self.stats,
            &mut self.scratch,
            &self.levels[self.path.len()],
            positions,
            tau,
        )
    }
}

impl<S: SliceSource> CountSource for Cursor<S> {
    fn count_itemset(&mut self, itemset: &Itemset, tau: u64) -> io::Result<u64> {
        let Some((&last, prefix)) = itemset.items().split_last() else {
            return Ok(self.levels[0].ones_from[0]);
        };
        self.seek(prefix)?;
        self.count_extension(last, tau)
    }

    fn count_extensions(
        &mut self,
        prefix: &Itemset,
        extensions: &[ItemId],
        tau: u64,
    ) -> io::Result<Vec<u64>> {
        self.seek(prefix.items())?;
        extensions
            .iter()
            .map(|&item| self.count_extension(item, tau))
            .collect()
    }

    /// The candidate's AND-result names its candidate rows; the source
    /// verifies them.  The walk descends into a confirmed candidate next,
    /// which finds the cursor already there.
    fn probe(&mut self, candidate: &Itemset, io: &mut IoStats) -> io::Result<Option<u64>> {
        if !self.source.verifies() {
            return Ok(None);
        }
        self.seek(candidate.items())?;
        self.source
            .verify(&self.levels[candidate.len()].words, candidate, io)
    }
}

/// A loaded [`Bbs`] as a [`SliceSource`]: chunk `c` of slice `j` is words
/// `c·PAGE_WORDS..` of the slice in memory, read in place.  Built with the
/// index's database, it also answers the integrated probe.
pub struct Resident<'a> {
    bbs: &'a Bbs,
    db: Option<&'a TransactionDb>,
    /// Scratch buffer of row indices for probing.
    probe_rows: Vec<usize>,
    /// Buffer pool for the probe: pages are charged on first touch only,
    /// modelling a run whose working set stays cached.
    pool: BufferPool,
}

impl Resident<'_> {
    /// The words of slice `slice` from chunk `chunk` on (a slice shorter
    /// than the rows zero-extends).
    fn page(&self, chunk: u64, slice: usize) -> &[u64] {
        let words = self.bbs.matrix().slice_words(slice);
        &words[(chunk as usize * PAGE_WORDS).min(words.len())..]
    }
}

impl<'a> Cursor<Resident<'a>> {
    /// Positions a cursor at the root of the loaded `bbs`, over all its
    /// rows.  `db: Some(..)` makes it a probing cursor; the index rows
    /// must then be the database's rows.
    pub fn resident(bbs: &'a Bbs, db: Option<&'a TransactionDb>) -> Self {
        assert!(
            db.is_none_or(|db| db.len() == bbs.rows()),
            "BBS rows must correspond 1:1 to database rows"
        );
        let source = Resident {
            bbs,
            db,
            probe_rows: Vec::new(),
            pool: BufferPool::new(),
        };
        let root = BitVec::ones(bbs.rows()).words().to_vec();
        Cursor::new(source, Arc::clone(bbs.hasher()), root)
    }
}

impl SliceSource for Resident<'_> {
    fn width(&self) -> usize {
        self.bbs.width()
    }

    fn and_page(&mut self, chunk: u64, slice: usize, words: &mut [u64]) -> io::Result<u64> {
        ops::and_assign(words, self.page(chunk, slice));
        Ok(ops::count_ones(words) as u64)
    }

    fn and_page_at(
        &mut self,
        chunk: u64,
        slice: usize,
        offsets: &[u16],
        run: &mut [u64],
    ) -> io::Result<u64> {
        let page = self.page(chunk, slice);
        for (w, &o) in run.iter_mut().zip(offsets) {
            *w &= ops::word_or_zero(page, usize::from(o));
        }
        Ok(ops::count_ones(run) as u64)
    }

    fn verifies(&self) -> bool {
        self.db.is_some()
    }

    /// Fetches each candidate row and checks it holds the candidate.
    fn verify(
        &mut self,
        rows: &[u64],
        candidate: &Itemset,
        io: &mut IoStats,
    ) -> io::Result<Option<u64>> {
        let Some(db) = self.db else {
            return Ok(None);
        };
        self.probe_rows.clear();
        self.probe_rows.extend(OnesIter::new(rows, self.bbs.rows()));
        let txns = db.probe_cached(&self.probe_rows, &mut self.pool, io);
        let actual = txns
            .iter()
            .filter(|t| candidate.is_subset_of(&t.items))
            .count();
        Ok(Some(actual as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{run_filter_source_threaded, FilterKind};
    use bbs_datagen::{generate_db, QuestConfig};
    use bbs_hash::Md5BloomHasher;

    fn quest() -> (Bbs, TransactionDb) {
        let db = generate_db(QuestConfig::tiny().with_transactions(400).with_seed(14));
        let hasher = Arc::new(Md5BloomHasher::new(3));
        let bbs = Bbs::build(96, hasher, &db, &mut IoStats::new());
        (bbs, db)
    }

    /// A cursor that also counts what the walk asked of it.
    struct Audited<'a> {
        cursor: Cursor<Resident<'a>>,
        descents: u64,
        probes: u64,
    }

    impl CountSource for Audited<'_> {
        fn count_itemset(&mut self, itemset: &Itemset, tau: u64) -> io::Result<u64> {
            self.cursor.count_itemset(itemset, tau)
        }

        fn count_extensions(
            &mut self,
            prefix: &Itemset,
            extensions: &[ItemId],
            tau: u64,
        ) -> io::Result<Vec<u64>> {
            self.descents += 1;
            self.cursor.count_extensions(prefix, extensions, tau)
        }

        fn probe(&mut self, candidate: &Itemset, io: &mut IoStats) -> io::Result<Option<u64>> {
            let answer = self.cursor.probe(candidate, io)?;
            self.probes += u64::from(answer.is_some());
            Ok(answer)
        }
    }

    /// The cost contract that keeps served MINE cheap: over a full
    /// depth-first walk the cursor materialises at most one AND-result per
    /// node descended into plus one per probe — never a prefix re-AND.
    #[test]
    fn a_depth_first_walk_costs_one_extend_per_descent_or_probe() {
        let (bbs, db) = quest();
        for kind in [FilterKind::Single, FilterKind::Dual] {
            for db in [None, Some(&db)] {
                let make = || {
                    Ok(Audited {
                        cursor: Cursor::resident(&bbs, db),
                        descents: 0,
                        probes: 0,
                    })
                };
                let (out, sources) =
                    run_filter_source_threaded(make, bbs.item_counts(), kind, 12, 1).expect("run");
                let [src] = &sources[..] else {
                    panic!("one worker, one source")
                };
                assert!(out.stats.candidates > 1000, "the walk is not trivial");
                assert!(src.descents > 0);
                assert_eq!(src.probes > 0, db.is_some(), "{kind:?}");
                let extends = src.cursor.stats().extends;
                assert!(
                    extends <= src.descents + src.probes,
                    "{kind:?}: {extends} extends for {} descents + {} probes",
                    src.descents,
                    src.probes
                );
                if db.is_none() {
                    assert_eq!(extends, src.descents, "{kind:?}: one per node, exactly");
                }
            }
        }
    }

    /// Order is a cost matter only: wherever the cursor stands, the answer
    /// for any itemset is `Bbs::est_count` at [`EXACT`], and under any
    /// other τ it keeps the τ contract — exact when it is ≥ τ, an upper
    /// bound on `Bbs::est_count` when it is below.
    #[test]
    fn out_of_order_calls_still_answer_est_count() {
        let (bbs, _) = quest();
        let vocab = bbs.vocabulary();
        let est = |items: &Itemset| bbs.est_count(items, &mut IoStats::new());
        let contract = |got: u64, exact: u64, tau: u64, what: &Itemset| {
            if got >= tau {
                assert_eq!(got, exact, "{what:?} τ={tau}");
            } else {
                assert!(got >= exact, "{what:?} τ={tau}: {got} undercounts {exact}");
            }
        };
        let mut cursor = Cursor::resident(&bbs, None);
        // Deep into one subtree, then a cousin under a different top-level
        // item, then back up to the root and to a strict prefix.
        let deep = Itemset::from_items(vocab[..4].to_vec());
        let cousin = Itemset::from_items(vec![vocab[1], vocab[3], vocab[5]]);
        let jumps = [
            deep.clone(),
            cousin,
            Itemset::empty(),
            Itemset::from_items(vocab[..2].to_vec()),
            deep,
        ];
        for (prefix, tau) in jumps.iter().zip([EXACT, 1, 12, u64::MAX, 3]) {
            let got = cursor.count_extensions(prefix, &vocab, tau).expect("batch");
            assert_eq!(got.len(), vocab.len());
            for (&g, &e) in got.iter().zip(&vocab) {
                let extended = prefix.with_item(e);
                contract(g, est(&extended), tau, &extended);
            }
            let solo = cursor.count_itemset(prefix, tau).expect("solo");
            contract(solo, est(prefix), tau, prefix);
        }
    }
}
