//! The filtering phase: SingleFilter, DualFilter and CheckCount (§3.1).
//!
//! One recursive engine implements all four of the paper's algorithms:
//!
//! * **SingleFilter** (Fig. 2) — depth-first enumeration; a candidate is any
//!   itemset whose `CountItemSet` estimate reaches the threshold.
//! * **DualFilter** (Fig. 4) — additionally consults [`check_count`]
//!   (Fig. 3), which uses the exact 1-itemset counts the index maintains to
//!   certify candidates through Lemma 5 and Corollary 1.
//! * **Integrated probing** (§3.3, SFP/DFP) — when a database handle is
//!   supplied, every still-uncertain candidate is verified against the
//!   database *the moment it is generated*, so false drops never trigger
//!   chains of further false drops.

use crate::bbs::Bbs;
use bbs_bitslice::BitVec;
use bbs_tdb::{
    BufferPool, IoStats, ItemId, Itemset, MineResult, MineStats, PatternSet, TransactionDb,
};
use std::collections::HashMap;
use std::io;

/// Which filtering algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterKind {
    /// Fig. 2: estimates only.
    Single,
    /// Fig. 4: estimates + exact 1-itemset counts + CheckCount certainty.
    Dual,
}

/// The certainty flag of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `flag = -1`: certainly not frequent.
    Infrequent,
    /// `flag = 0`: frequent according to the estimate, validity uncertain.
    Uncertain,
    /// `flag = 1`: certainly frequent, count is *actual*.
    CertainExact,
    /// `flag = 2`: certainly frequent, count is an estimate (lower bound
    /// reached the threshold via Lemma 5).
    CertainEstimated,
}

/// Per-node state threaded through the recursion: the itemset's estimate,
/// its best-known count, and the certainty flag describing that count.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    est: u64,
    count: u64,
    flag: Flag,
}

/// Result of a filtering run.
#[derive(Debug, Default)]
pub struct FilterOutput {
    /// Patterns certain to be frequent with exact counts
    /// (DualFilter flag 1, or any pattern verified by an integrated probe).
    pub frequent: PatternSet,
    /// Patterns certain to be frequent whose reported count is the BBS
    /// estimate (DualFilter flag 2).  The estimate is an upper bound on the
    /// actual support, and Lemma 5's lower bound reached the threshold.
    pub approx: PatternSet,
    /// Candidates that still need refinement: `(itemset, estimated count)`.
    /// Empty for the integrated-probe runs.
    pub uncertain: Vec<(Itemset, u64)>,
    /// Filter-phase statistics (BBS counts, candidates, certified patterns,
    /// probe I/O for integrated runs, false drops discovered so far).
    pub stats: MineStats,
}

impl FilterOutput {
    /// Total candidates that are certainly frequent.
    pub fn certain_len(&self) -> usize {
        self.frequent.len() + self.approx.len()
    }

    /// Settles a run into the mining result — the step every out-of-core
    /// miner ends on.  Certain patterns carry over (the `approx` ones
    /// marked as carrying estimates), and each uncertain candidate is
    /// kept iff its exact support reaches `tau`; the rest are false drops.
    /// `exact_supports` is asked for all of them at once, in order, and
    /// only when there are any: it is the caller's one refinement scan.
    pub fn settle(
        self,
        tau: u64,
        exact_supports: impl FnOnce(&[Itemset]) -> io::Result<Vec<u64>>,
    ) -> io::Result<MineResult> {
        let mut result = MineResult {
            patterns: self.frequent,
            stats: self.stats,
            ..MineResult::default()
        };
        for (items, count) in self.approx.iter() {
            result.patterns.insert(items.clone(), count);
            result.approx_supports.insert(items.clone());
        }
        if !self.uncertain.is_empty() {
            let cands: Vec<Itemset> = self.uncertain.into_iter().map(|(items, _)| items).collect();
            let supports = exact_supports(&cands)?;
            for (items, count) in cands.into_iter().zip(supports) {
                if count >= tau {
                    result.patterns.insert(items, count);
                } else {
                    result.stats.false_drops += 1;
                }
            }
        }
        Ok(result)
    }
}

/// One refinement step: bumps the count of every candidate `items` holds.
pub fn tally_subsets(cands: &[Itemset], counts: &mut [u64], items: &Itemset) {
    for (cand, count) in cands.iter().zip(counts) {
        if cand.is_subset_of(items) {
            *count += 1;
        }
    }
}

/// `CheckCount` (Fig. 3), expressed over the node states.
///
/// `item` is the paper's `I1 = {i}`; `parent` describes `I2` (its flag and
/// count) together with its cached estimate `parent_est`; `union_est` is
/// `estCount(I1 ∪ I2)`; `act1`/`est1` are the exact and estimated supports
/// of the single item; `tau` the threshold.
///
/// Returns the flag and count for `I1 ∪ I2`.
fn check_count(
    parent_items_is_empty: bool,
    parent: NodeState,
    act1: u64,
    est1: u64,
    union_est: u64,
    tau: u64,
) -> (Flag, u64) {
    if parent_items_is_empty {
        // Lines 1–3: a 1-itemset's actual count is maintained directly.
        return if act1 < tau {
            (Flag::Infrequent, act1)
        } else {
            (Flag::CertainExact, act1)
        };
    }
    if parent.flag == Flag::CertainExact {
        // Lines 5–12: parent count is actual.
        let act2 = parent.count;
        let est2 = parent.est;
        if est1 == act1 && act2 == est2 {
            // Corollary 1: both operands exact ⇒ union exact.
            return (Flag::CertainExact, union_est);
        }
        if est1 == act1 && union_est.saturating_sub(est2 - act2) >= tau {
            // Lemma 5 lower bound through I1's exactness.
            return (Flag::CertainEstimated, union_est);
        }
        if est2 == act2 && union_est.saturating_sub(est1 - act1) >= tau {
            // Lemma 5 lower bound through I2's exactness.
            return (Flag::CertainEstimated, union_est);
        }
    }
    (Flag::Uncertain, union_est)
}

/// A single filtering run.  See [`run_filter`].
struct FilterRun<'a> {
    bbs: &'a Bbs,
    db: Option<&'a TransactionDb>,
    kind: FilterKind,
    tau: u64,
    /// AND-result buffers, one per recursion depth.
    levels: Vec<BitVec>,
    /// Estimated singleton supports, filled during level-1 enumeration.
    est_singleton: HashMap<ItemId, u64>,
    out: FilterOutput,
    /// Scratch buffer of row indices for probing.
    probe_rows: Vec<usize>,
    /// Buffer pool for the integrated probe: pages are charged on first
    /// touch only, modelling a run whose working set stays cached.
    pool: BufferPool,
}

/// Runs a filtering pass over `bbs`.
///
/// * `kind` selects SingleFilter or DualFilter.
/// * `db: Some(..)` selects the integrated probe (§3.3 SFP/DFP): every
///   uncertain candidate is verified immediately and its actual count feeds
///   the recursion; `FilterOutput::uncertain` comes back empty.
/// * `db: None` is the pure two-phase filter (SFS/DFS before refinement).
///
/// `tau` is the absolute support threshold.
pub fn run_filter(
    bbs: &Bbs,
    kind: FilterKind,
    db: Option<&TransactionDb>,
    tau: u64,
) -> FilterOutput {
    if let Some(db) = db {
        assert_eq!(
            db.len(),
            bbs.rows(),
            "BBS rows must correspond 1:1 to database rows"
        );
    }
    let mut run = FilterRun {
        bbs,
        db,
        kind,
        tau,
        levels: vec![bbs.all_rows_vector()],
        est_singleton: HashMap::new(),
        out: FilterOutput::default(),
        probe_rows: Vec::new(),
        pool: BufferPool::new(),
    };
    let vocab = bbs.vocabulary();
    // Precompute every singleton estimate up front: the recursion consults
    // est({i}) for items it has not yet reached in its own level-1 loop
    // (CheckCount at depth ≥ 1 needs est(I1) for the item being added).
    for &item in &vocab {
        let mut io = IoStats::new();
        let est = run.bbs.est_count_extend(&run.levels[0], item, &mut io);
        run.out.stats.io.merge(&io);
        run.out.stats.bbs_counts += 1;
        run.est_singleton.insert(item, est);
    }
    // Anti-monotonicity (Lemma 2 applied per item): est({i} ∪ X) ≤ est({i}),
    // so an item whose singleton estimate is already below τ can never
    // appear in a candidate.  Restricting the enumeration alphabet to the
    // "live" items cuts every level's inner loop from |V| to the frequent
    // vocabulary — the filter-side analogue of Apriori's L1 restriction.
    let live: Vec<ItemId> = vocab
        .iter()
        .copied()
        .filter(|item| run.est_singleton[item] >= tau)
        .collect();
    // The root: the empty itemset, whose count |D| is trivially exact.
    let root = NodeState {
        est: bbs.rows() as u64,
        count: bbs.rows() as u64,
        flag: Flag::CertainExact,
    };
    run.recurse(&live, 0, &Itemset::empty(), 0, root);
    run.out
}

impl FilterRun<'_> {
    fn recurse(
        &mut self,
        items: &[ItemId],
        start: usize,
        itemset: &Itemset,
        depth: usize,
        state: NodeState,
    ) {
        for idx in start..items.len() {
            self.visit(items, idx, itemset, depth, state);
        }
    }

    /// Processes one extension `itemset ∪ {items[idx]}` (filter test,
    /// CheckCount / probe, and recursion into its subtree).
    fn visit(
        &mut self,
        items: &[ItemId],
        idx: usize,
        itemset: &Itemset,
        depth: usize,
        state: NodeState,
    ) {
        {
            let item = items[idx];
            // CountItemSet({i} ∪ itemset) via the incremental AND.  Depth 0
            // reuses the precomputed singleton estimates.
            let union_est = if depth == 0 {
                *self
                    .est_singleton
                    .get(&item)
                    .expect("precomputed in run_filter")
            } else {
                let mut io = IoStats::new();
                let e = self.bbs.est_count_extend(&self.levels[depth], item, &mut io);
                self.out.stats.io.merge(&io);
                self.out.stats.bbs_counts += 1;
                e
            };
            if union_est < self.tau {
                return; // rejected outright by the filter
            }
            self.out.stats.candidates += 1;
            let candidate = itemset.with_item(item);

            let (flag, count) = match self.kind {
                FilterKind::Single => (Flag::Uncertain, union_est),
                FilterKind::Dual => {
                    let act1 = self.bbs.actual_singleton_count(item);
                    let est1 = *self
                        .est_singleton
                        .get(&item)
                        .expect("level-1 pass caches every singleton estimate");
                    check_count(itemset.is_empty(), state, act1, est1, union_est, self.tau)
                }
            };

            match flag {
                Flag::Infrequent => {
                    // A filter-time false drop, discovered for free.
                    self.out.stats.false_drops += 1;
                }
                Flag::CertainExact => {
                    self.out.stats.certified += 1;
                    self.out.frequent.insert(candidate.clone(), count);
                    self.descend(items, idx + 1, &candidate, depth, NodeState {
                        est: union_est,
                        count,
                        flag,
                    });
                }
                Flag::CertainEstimated => {
                    self.out.stats.certified += 1;
                    self.out.approx.insert(candidate.clone(), count);
                    self.descend(items, idx + 1, &candidate, depth, NodeState {
                        est: union_est,
                        count,
                        flag,
                    });
                }
                Flag::Uncertain => {
                    if self.db.is_some() {
                        // Integrated probe: resolve immediately.
                        let actual = self.probe_candidate(&candidate, item, depth);
                        if actual >= self.tau {
                            self.out.frequent.insert(candidate.clone(), actual);
                            self.descend(items, idx + 1, &candidate, depth, NodeState {
                                est: union_est,
                                count: actual,
                                flag: Flag::CertainExact,
                            });
                        } else {
                            self.out.stats.false_drops += 1;
                            // No recursion: the chain of false drops is cut.
                        }
                    } else {
                        self.out.uncertain.push((candidate.clone(), union_est));
                        self.descend(items, idx + 1, &candidate, depth, NodeState {
                            est: union_est,
                            count: union_est,
                            flag,
                        });
                    }
                }
            }
        }
    }

    /// Materialises the child AND-result into `levels[depth + 1]` and
    /// recurses.
    fn descend(
        &mut self,
        items: &[ItemId],
        start: usize,
        candidate: &Itemset,
        depth: usize,
        state: NodeState,
    ) {
        if start >= items.len() {
            return;
        }
        self.materialize_child(candidate, depth);
        self.recurse(items, start, candidate, depth + 1, state);
    }

    /// Writes the AND-result of `candidate` (parent at `depth` extended by
    /// its last item) into the `depth + 1` buffer.
    fn materialize_child(&mut self, candidate: &Itemset, depth: usize) {
        if self.levels.len() <= depth + 1 {
            self.levels.push(BitVec::new());
        }
        let last = *candidate
            .items()
            .last()
            .expect("candidate itemsets are non-empty");
        let (parents, children) = self.levels.split_at_mut(depth + 1);
        self.bbs
            .extend_result(&parents[depth], last, &mut children[0]);
    }

    /// Probes the database for the candidate's actual support: the child
    /// AND-result names the candidate rows; fetch and verify each.
    fn probe_candidate(&mut self, candidate: &Itemset, item: ItemId, depth: usize) -> u64 {
        let db = self.db.expect("probe requires a database handle");
        // Materialise the candidate rows (reuses the child-level buffer,
        // which descend() will overwrite identically if we recurse).
        if self.levels.len() <= depth + 1 {
            self.levels.push(BitVec::new());
        }
        let (parents, children) = self.levels.split_at_mut(depth + 1);
        self.bbs.extend_result(&parents[depth], item, &mut children[0]);

        self.probe_rows.clear();
        self.probe_rows.extend(children[0].iter_ones());
        let mut io = IoStats::new();
        let txns = db.probe_cached(&self.probe_rows, &mut self.pool, &mut io);
        self.out.stats.io.merge(&io);
        txns.iter()
            .filter(|t| candidate.is_subset_of(&t.items))
            .count() as u64
    }
}


/// Multi-threaded variant of [`run_filter`]: the top-level live items are
/// dealt round-robin to `threads` workers, each of which enumerates its
/// subtrees independently (a top-level item's subtree never touches another
/// top-level item's, so the partition is exact, not heuristic).
///
/// Results are identical to the serial engine's — same pattern buckets,
/// same candidate/false-drop/certified counts — except that `uncertain`
/// ordering differs and probe page charges are per-worker (each worker has
/// its own buffer pool, so shared pages may be charged up to `threads`
/// times).
pub fn run_filter_threaded(
    bbs: &Bbs,
    kind: FilterKind,
    db: Option<&TransactionDb>,
    tau: u64,
    threads: usize,
) -> FilterOutput {
    if threads <= 1 {
        return run_filter(bbs, kind, db, tau);
    }
    if let Some(db) = db {
        assert_eq!(
            db.len(),
            bbs.rows(),
            "BBS rows must correspond 1:1 to database rows"
        );
    }

    // Shared preparation: singleton estimates and the live alphabet.
    let all_rows = bbs.all_rows_vector();
    let vocab = bbs.vocabulary();
    let mut est_singleton = HashMap::with_capacity(vocab.len());
    let mut prep_stats = MineStats::default();
    for &item in &vocab {
        let mut io = IoStats::new();
        let est = bbs.est_count_extend(&all_rows, item, &mut io);
        prep_stats.io.merge(&io);
        prep_stats.bbs_counts += 1;
        est_singleton.insert(item, est);
    }
    let live: Vec<ItemId> = vocab
        .iter()
        .copied()
        .filter(|item| est_singleton[item] >= tau)
        .collect();
    let root = NodeState {
        est: bbs.rows() as u64,
        count: bbs.rows() as u64,
        flag: Flag::CertainExact,
    };

    let workers = threads.min(live.len().max(1));
    let outputs: Vec<FilterOutput> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for t in 0..workers {
            let live = &live;
            let est_singleton = &est_singleton;
            handles.push(scope.spawn(move || {
                let mut run = FilterRun {
                    bbs,
                    db,
                    kind,
                    tau,
                    levels: vec![bbs.all_rows_vector()],
                    est_singleton: est_singleton.clone(),
                    out: FilterOutput::default(),
                    probe_rows: Vec::new(),
                    pool: BufferPool::new(),
                };
                // Round-robin deal balances the skew of early (deep) vs
                // late (shallow) subtrees.
                let empty = Itemset::empty();
                let mut idx = t;
                while idx < live.len() {
                    run.visit(live, idx, &empty, 0, root);
                    idx += workers;
                }
                run.out
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("filter worker panicked"))
            .collect()
    });

    let mut merged = FilterOutput {
        stats: prep_stats,
        ..FilterOutput::default()
    };
    for out in outputs {
        merged.frequent.extend_from(&out.frequent);
        merged.approx.extend_from(&out.approx);
        merged.uncertain.extend(out.uncertain);
        merged.stats.candidates += out.stats.candidates;
        merged.stats.false_drops += out.stats.false_drops;
        merged.stats.certified += out.stats.certified;
        merged.stats.bbs_counts += out.stats.bbs_counts;
        merged.stats.io.merge(&out.stats.io);
    }
    merged
}

/// A fallible `CountItemSet` provider for the source-generic filter engine
/// — how the enumeration of Figs. 2/4 runs against an index that is not
/// memory-resident (e.g. a disk-backed BBS counting cached pages in place).
///
/// Implementations may exploit the early-exit contract of
/// [`bbs_bitslice::ops::and_count_many`]: the returned value must be exact
/// whenever it is `≥ tau`, and may be any **upper bound** on the true
/// estimate when it is `< tau`.  BBS estimates never undercount (Lemmas
/// 1–4) and the engine only ever compares the value against `tau` — or
/// uses it in CheckCount, which it reaches only when the value is `≥ tau`
/// and therefore exact — so the accept/prune/certify decisions are
/// identical to those made with exact estimates.
///
/// This is the one τ convention at every counting seam — memory, disk,
/// shard, wire: [`EXACT`] (`τ = 0`) asks for the exact estimate, because
/// no value is below zero and so the "upper bound below `tau`" case
/// cannot arise.
pub trait CountSource {
    /// Estimated support of `itemset` (`CountItemSet`), fallible.
    fn count_itemset(&mut self, itemset: &Itemset, tau: u64) -> io::Result<u64>;

    /// Batched estimates of every sibling extension `prefix ∪ {item}` for
    /// `item` in `extensions` — the shape the enumeration generates one
    /// whole node at a time.  Each returned value obeys the same τ
    /// contract as [`CountSource::count_itemset`], and the results must be
    /// identical to counting the extensions one at a time.
    ///
    /// The default implementation is that per-item loop; batched backends
    /// (e.g. the shared-scan disk executor) override it to walk the shared
    /// slice pages once per batch and to AND the common prefix once
    /// instead of once per sibling.
    fn count_extensions(
        &mut self,
        prefix: &Itemset,
        extensions: &[ItemId],
        tau: u64,
    ) -> io::Result<Vec<u64>> {
        extensions
            .iter()
            .map(|&item| self.count_itemset(&prefix.with_item(item), tau))
            .collect()
    }
}

/// The τ that requests an exact estimate from any [`CountSource`].
pub const EXACT: u64 = 0;

/// The memory-resident index as a [`CountSource`]: every answer is the
/// exact estimate, which satisfies any τ budget.
impl CountSource for &Bbs {
    fn count_itemset(&mut self, itemset: &Itemset, _tau: u64) -> io::Result<u64> {
        Ok(self.est_count(itemset, &mut IoStats::new()))
    }
}

/// Upper bound on the number of sibling candidates submitted to
/// [`CountSource::count_extensions`] in one call.  The number of
/// extensions of a node is bounded by the live alphabet (and, in
/// aggregate per level, by the Geerts–Goethals–Van den Bussche tight
/// candidate bound), but a single batch also bounds the executor's
/// accumulator scratch, so outsized alphabets are split.
const MAX_COUNT_BATCH: usize = 256;

/// One worker's walk over the enumeration tree, counting through a
/// [`CountSource`].  Unlike [`FilterRun`] there are no per-depth AND-result
/// buffers: the source counts whole itemsets, so the recursion threads only
/// the candidate itemset and the parent's [`NodeState`].
struct SourceRun<'a, C: CountSource> {
    src: &'a mut C,
    kind: FilterKind,
    tau: u64,
    est_singleton: &'a HashMap<ItemId, u64>,
    /// Exact 1-itemset supports (DualFilter's CheckCount input).
    actuals: &'a HashMap<ItemId, u64>,
    out: FilterOutput,
}

impl<C: CountSource> SourceRun<'_, C> {
    /// Filter test + CheckCount + bucket insert for one candidate whose
    /// estimate is already known.  Returns the child [`NodeState`] when
    /// the candidate's subtree should be explored, `None` when the
    /// candidate was pruned or its false drop was discovered.
    fn admit(
        &mut self,
        item: ItemId,
        itemset: &Itemset,
        state: NodeState,
        union_est: u64,
        candidate: &Itemset,
    ) -> Option<NodeState> {
        if union_est < self.tau {
            return None; // rejected outright by the filter
        }
        self.out.stats.candidates += 1;
        let (flag, count) = match self.kind {
            FilterKind::Single => (Flag::Uncertain, union_est),
            FilterKind::Dual => {
                let act1 = self.actuals.get(&item).copied().unwrap_or(0);
                let est1 = *self
                    .est_singleton
                    .get(&item)
                    .expect("singleton estimates are precomputed");
                check_count(itemset.is_empty(), state, act1, est1, union_est, self.tau)
            }
        };
        match flag {
            Flag::Infrequent => {
                self.out.stats.false_drops += 1;
                return None;
            }
            Flag::CertainExact => {
                self.out.stats.certified += 1;
                self.out.frequent.insert(candidate.clone(), count);
            }
            Flag::CertainEstimated => {
                self.out.stats.certified += 1;
                self.out.approx.insert(candidate.clone(), count);
            }
            Flag::Uncertain => {
                self.out.uncertain.push((candidate.clone(), union_est));
            }
        }
        Some(NodeState {
            est: union_est,
            count,
            flag,
        })
    }

    /// Processes one top-level extension `itemset ∪ {items[idx]}` (the
    /// entry point the round-robin deal of the threaded runner targets;
    /// singletons reuse the precomputed estimates) and expands its subtree
    /// through the batched path.
    fn visit(
        &mut self,
        items: &[ItemId],
        idx: usize,
        itemset: &Itemset,
        state: NodeState,
    ) -> io::Result<()> {
        let item = items[idx];
        let candidate = itemset.with_item(item);
        let union_est = if itemset.is_empty() {
            *self
                .est_singleton
                .get(&item)
                .expect("singleton estimates are precomputed")
        } else {
            self.out.stats.bbs_counts += 1;
            self.src.count_itemset(&candidate, self.tau)?
        };
        if let Some(child) = self.admit(item, itemset, state, union_est, &candidate) {
            self.expand(items, idx + 1, &candidate, child)?;
        }
        Ok(())
    }

    /// Expands every extension of `itemset` by the alphabet tail
    /// `items[start..]`: all sibling candidates of the node are counted
    /// through **one** batched [`CountSource::count_extensions`] call
    /// (split at [`MAX_COUNT_BATCH`]), then each survivor's subtree is
    /// explored depth-first.  The candidates counted — and every output
    /// bucket — are identical to the one-at-a-time recursion; only the
    /// counting is grouped so a batched source can share its scan.
    fn expand(
        &mut self,
        items: &[ItemId],
        start: usize,
        itemset: &Itemset,
        state: NodeState,
    ) -> io::Result<()> {
        if start >= items.len() {
            return Ok(());
        }
        let exts = &items[start..];
        let mut ests = Vec::with_capacity(exts.len());
        for batch in exts.chunks(MAX_COUNT_BATCH) {
            self.out.stats.bbs_counts += batch.len() as u64;
            ests.extend(self.src.count_extensions(itemset, batch, self.tau)?);
        }
        for (k, &item) in exts.iter().enumerate() {
            let candidate = itemset.with_item(item);
            if let Some(child) = self.admit(item, itemset, state, ests[k], &candidate) {
                self.expand(items, start + k + 1, &candidate, child)?;
            }
        }
        Ok(())
    }
}

/// Computes the singleton estimates and live alphabet for a source run.
fn source_prep<C: CountSource>(
    src: &mut C,
    vocab: &[ItemId],
    tau: u64,
) -> io::Result<(HashMap<ItemId, u64>, Vec<ItemId>, u64)> {
    let mut est_singleton = HashMap::with_capacity(vocab.len());
    for &item in vocab {
        let est = src.count_itemset(&Itemset::empty().with_item(item), tau)?;
        est_singleton.insert(item, est);
    }
    let live: Vec<ItemId> = vocab
        .iter()
        .copied()
        .filter(|item| est_singleton[item] >= tau)
        .collect();
    Ok((est_singleton, live, vocab.len() as u64))
}

/// [`run_filter`] over an arbitrary [`CountSource`]: same SingleFilter /
/// DualFilter semantics, but every `CountItemSet` goes through `src` and
/// I/O failures propagate instead of panicking.
///
/// `vocab` is the enumeration alphabet (typically every item the index has
/// seen, sorted), `actuals` the exact 1-itemset supports, and `rows` the
/// number of indexed transactions.
pub fn run_filter_source<C: CountSource>(
    src: &mut C,
    vocab: &[ItemId],
    actuals: &HashMap<ItemId, u64>,
    rows: u64,
    kind: FilterKind,
    tau: u64,
) -> io::Result<FilterOutput> {
    let (est_singleton, live, prep_counts) = source_prep(src, vocab, tau)?;
    let root = NodeState {
        est: rows,
        count: rows,
        flag: Flag::CertainExact,
    };
    let mut run = SourceRun {
        src,
        kind,
        tau,
        est_singleton: &est_singleton,
        actuals,
        out: FilterOutput::default(),
    };
    let empty = Itemset::empty();
    for idx in 0..live.len() {
        run.visit(&live, idx, &empty, root)?;
    }
    let mut out = run.out;
    out.stats.bbs_counts += prep_counts;
    Ok(out)
}

/// Multi-threaded [`run_filter_source`]: the top-level live items are dealt
/// round-robin to `threads` workers exactly as in [`run_filter_threaded`],
/// and each worker counts through its **own** source (`make_source` is
/// called once per worker — e.g. an independent reader with its own page
/// cache over the same slice file).
///
/// Pattern buckets and candidate/false-drop/certified counts are identical
/// to the serial run; only the order of `uncertain` differs.
pub fn run_filter_source_threaded<C, F>(
    make_source: F,
    vocab: &[ItemId],
    actuals: &HashMap<ItemId, u64>,
    rows: u64,
    kind: FilterKind,
    tau: u64,
    threads: usize,
) -> io::Result<FilterOutput>
where
    C: CountSource + Send,
    F: Fn() -> io::Result<C> + Sync,
{
    let mut prep_src = make_source()?;
    let (est_singleton, live, prep_counts) = source_prep(&mut prep_src, vocab, tau)?;
    let root = NodeState {
        est: rows,
        count: rows,
        flag: Flag::CertainExact,
    };
    let empty = Itemset::empty();
    let workers = threads.max(1).min(live.len().max(1));
    if workers <= 1 {
        let mut run = SourceRun {
            src: &mut prep_src,
            kind,
            tau,
            est_singleton: &est_singleton,
            actuals,
            out: FilterOutput::default(),
        };
        for idx in 0..live.len() {
            run.visit(&live, idx, &empty, root)?;
        }
        let mut out = run.out;
        out.stats.bbs_counts += prep_counts;
        return Ok(out);
    }
    drop(prep_src);

    let outputs: Vec<io::Result<FilterOutput>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for t in 0..workers {
            let live = &live;
            let est_singleton = &est_singleton;
            let make_source = &make_source;
            let empty = &empty;
            handles.push(scope.spawn(move || -> io::Result<FilterOutput> {
                let mut src = make_source()?;
                let mut run = SourceRun {
                    src: &mut src,
                    kind,
                    tau,
                    est_singleton,
                    actuals,
                    out: FilterOutput::default(),
                };
                let mut idx = t;
                while idx < live.len() {
                    run.visit(live, idx, empty, root)?;
                    idx += workers;
                }
                Ok(run.out)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("source filter worker panicked"))
            .collect()
    });

    let mut merged = FilterOutput::default();
    merged.stats.bbs_counts = prep_counts;
    for out in outputs {
        let out = out?;
        merged.frequent.extend_from(&out.frequent);
        merged.approx.extend_from(&out.approx);
        merged.uncertain.extend(out.uncertain);
        merged.stats.candidates += out.stats.candidates;
        merged.stats.false_drops += out.stats.false_drops;
        merged.stats.certified += out.stats.certified;
        merged.stats.bbs_counts += out.stats.bbs_counts;
        merged.stats.io.merge(&out.stats.io);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_hash::ModuloHasher;
    use bbs_tdb::{Transaction, TransactionDb};
    use std::sync::Arc;

    fn set(vals: &[u32]) -> Itemset {
        Itemset::from_values(vals)
    }

    fn paper_fixture() -> (Bbs, TransactionDb) {
        let db = TransactionDb::from_transactions(vec![
            Transaction::new(100, set(&[0, 1, 2, 3, 4, 5, 14, 15])),
            Transaction::new(200, set(&[1, 2, 3, 5, 6, 7])),
            Transaction::new(300, set(&[1, 5, 14, 15])),
            Transaction::new(400, set(&[0, 1, 2, 7])),
            Transaction::new(500, set(&[1, 2, 5, 6, 11, 15])),
        ]);
        let mut io = IoStats::new();
        let bbs = Bbs::build(8, Arc::new(ModuloHasher), &db, &mut io);
        (bbs, db)
    }

    /// The true frequent patterns of the fixture at τ = 3 (hand-checked in
    /// the tdb crate's NaiveMiner tests).
    fn truth() -> Vec<Itemset> {
        vec![
            set(&[1]),
            set(&[2]),
            set(&[5]),
            set(&[15]),
            set(&[1, 2]),
            set(&[1, 5]),
            set(&[2, 5]),
            set(&[1, 15]),
            set(&[5, 15]),
            set(&[1, 2, 5]),
            set(&[1, 5, 15]),
        ]
    }

    #[test]
    fn single_filter_yields_superset_of_truth() {
        let (bbs, _) = paper_fixture();
        let out = run_filter(&bbs, FilterKind::Single, None, 3);
        assert!(out.frequent.is_empty() && out.approx.is_empty());
        let candidates: Vec<&Itemset> = out.uncertain.iter().map(|(s, _)| s).collect();
        for t in truth() {
            assert!(candidates.contains(&&t), "missing {t:?}");
        }
        // And estimates dominate the threshold.
        assert!(out.uncertain.iter().all(|&(_, e)| e >= 3));
    }

    #[test]
    fn dual_filter_partitions_candidates() {
        let (bbs, db) = paper_fixture();
        let out = run_filter(&bbs, FilterKind::Dual, None, 3);
        // Everything certain must genuinely be frequent with a correct count
        // (exact bucket) or a guaranteed-frequent upper bound (approx).
        let mut io = IoStats::new();
        for (items, count) in out.frequent.iter() {
            let act = db.count_support(items, &mut io);
            assert_eq!(count, act, "exact bucket wrong for {items:?}");
            assert!(act >= 3);
        }
        for (items, count) in out.approx.iter() {
            let act = db.count_support(items, &mut io);
            assert!(act >= 3, "approx bucket has infrequent {items:?}");
            assert!(count >= act, "estimate below actual for {items:?}");
        }
        // Union of all three buckets covers the truth.
        for t in truth() {
            let covered = out.frequent.contains(&t)
                || out.approx.contains(&t)
                || out.uncertain.iter().any(|(s, _)| s == &t);
            assert!(covered, "missing {t:?}");
        }
    }

    #[test]
    fn dual_filter_certifies_all_true_singletons() {
        let (bbs, _) = paper_fixture();
        let out = run_filter(&bbs, FilterKind::Dual, None, 3);
        for s in [set(&[1]), set(&[2]), set(&[5]), set(&[15])] {
            assert!(
                out.frequent.contains(&s),
                "singleton {s:?} should be certified exact"
            );
        }
    }

    #[test]
    fn integrated_probe_returns_exactly_the_truth() {
        let (bbs, db) = paper_fixture();
        for kind in [FilterKind::Single, FilterKind::Dual] {
            let out = run_filter(&bbs, kind, Some(&db), 3);
            assert!(out.uncertain.is_empty(), "{kind:?}");
            let mut got: Vec<Itemset> = out
                .frequent
                .iter()
                .map(|(s, _)| s.clone())
                .chain(out.approx.iter().map(|(s, _)| s.clone()))
                .collect();
            got.sort_unstable();
            let mut want = truth();
            want.sort_unstable();
            assert_eq!(got, want, "{kind:?}");
            // Exact bucket counts are actual supports.
            let mut io = IoStats::new();
            for (items, count) in out.frequent.iter() {
                assert_eq!(count, db.count_support(items, &mut io), "{items:?}");
            }
        }
    }

    #[test]
    fn probe_counts_rows_fetched() {
        let (bbs, db) = paper_fixture();
        let out = run_filter(&bbs, FilterKind::Single, Some(&db), 3);
        assert!(out.stats.io.db_probes > 0, "SFP must probe");
        let dual = run_filter(&bbs, FilterKind::Dual, Some(&db), 3);
        assert!(
            dual.stats.io.db_probes < out.stats.io.db_probes,
            "DFP ({}) should probe less than SFP ({})",
            dual.stats.io.db_probes,
            out.stats.io.db_probes
        );
    }

    #[test]
    fn dual_certification_rate_nontrivial() {
        let (bbs, db) = paper_fixture();
        let out = run_filter(&bbs, FilterKind::Dual, Some(&db), 3);
        // The paper reports 80–90 % of candidates certified without probing;
        // on this tiny fixture we just require a meaningful fraction.
        assert!(out.stats.certified > 0);
    }

    #[test]
    fn threshold_one_and_huge_threshold() {
        let (bbs, db) = paper_fixture();
        let all = run_filter(&bbs, FilterKind::Dual, Some(&db), 1);
        assert!(all.certain_len() >= 11);
        let none = run_filter(&bbs, FilterKind::Dual, Some(&db), 6);
        assert_eq!(none.certain_len(), 0);
        assert!(none.uncertain.is_empty());
    }


    #[test]
    fn threaded_filter_matches_serial() {
        let (bbs, db) = paper_fixture();
        for kind in [FilterKind::Single, FilterKind::Dual] {
            for threads in [1usize, 2, 4, 9] {
                let serial = run_filter(&bbs, kind, None, 3);
                let par = run_filter_threaded(&bbs, kind, None, 3, threads);
                assert_eq!(par.frequent, serial.frequent, "{kind:?} x{threads}");
                assert_eq!(par.approx, serial.approx, "{kind:?} x{threads}");
                let mut a: Vec<_> = par.uncertain.clone();
                let mut b: Vec<_> = serial.uncertain.clone();
                a.sort();
                b.sort();
                assert_eq!(a, b, "{kind:?} x{threads}");
                assert_eq!(par.stats.candidates, serial.stats.candidates);
                assert_eq!(par.stats.false_drops, serial.stats.false_drops);
                assert_eq!(par.stats.certified, serial.stats.certified);
            }
        }
        let _ = db;
    }

    #[test]
    fn threaded_integrated_probe_matches_serial() {
        let (bbs, db) = paper_fixture();
        for kind in [FilterKind::Single, FilterKind::Dual] {
            let serial = run_filter(&bbs, kind, Some(&db), 3);
            let par = run_filter_threaded(&bbs, kind, Some(&db), 3, 3);
            assert_eq!(par.frequent, serial.frequent, "{kind:?}");
            assert_eq!(par.approx, serial.approx, "{kind:?}");
            assert!(par.uncertain.is_empty());
            assert_eq!(par.stats.false_drops, serial.stats.false_drops);
        }
    }

    #[test]
    fn threaded_with_more_threads_than_items() {
        let (bbs, db) = paper_fixture();
        let par = run_filter_threaded(&bbs, FilterKind::Dual, Some(&db), 3, 64);
        assert_eq!(par.certain_len(), 11);
    }

    /// The `&Bbs` source answers `est_count` whatever τ it is handed, one
    /// itemset at a time or as a batch of sibling extensions.
    #[test]
    fn bbs_count_source_is_est_count() {
        let (bbs, _) = paper_fixture();
        let vocab = bbs.vocabulary();
        let mut src = &bbs;
        for &a in &vocab {
            let prefix = Itemset::from_items(vec![a]);
            let want: Vec<u64> = vocab
                .iter()
                .map(|&b| bbs.est_count(&prefix.with_item(b), &mut IoStats::new()))
                .collect();
            for tau in [EXACT, 1, 3, u64::MAX] {
                let got = src.count_extensions(&prefix, &vocab, tau).expect("batch");
                assert_eq!(got, want, "prefix {a:?} τ={tau}");
                let solo = src.count_itemset(&prefix, tau).expect("solo");
                assert_eq!(solo, bbs.est_count(&prefix, &mut IoStats::new()));
            }
        }
    }

    fn fixture_actuals(bbs: &Bbs) -> HashMap<ItemId, u64> {
        bbs.vocabulary()
            .into_iter()
            .map(|i| (i, bbs.actual_singleton_count(i)))
            .collect()
    }

    #[test]
    fn source_engine_matches_memory_engine() {
        let (bbs, _) = paper_fixture();
        let vocab = bbs.vocabulary();
        let actuals = fixture_actuals(&bbs);
        for kind in [FilterKind::Single, FilterKind::Dual] {
            let mem = run_filter(&bbs, kind, None, 3);
            let mut src = &bbs;
            let out = run_filter_source(&mut src, &vocab, &actuals, bbs.rows() as u64, kind, 3)
                .expect("source run");
            assert_eq!(out.frequent, mem.frequent, "{kind:?}");
            assert_eq!(out.approx, mem.approx, "{kind:?}");
            let mut a: Vec<_> = out.uncertain.clone();
            let mut b: Vec<_> = mem.uncertain.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{kind:?}");
            assert_eq!(out.stats.candidates, mem.stats.candidates, "{kind:?}");
            assert_eq!(out.stats.false_drops, mem.stats.false_drops, "{kind:?}");
            assert_eq!(out.stats.certified, mem.stats.certified, "{kind:?}");
        }
    }

    #[test]
    fn threaded_source_engine_matches_serial() {
        let (bbs, _) = paper_fixture();
        let vocab = bbs.vocabulary();
        let actuals = fixture_actuals(&bbs);
        for kind in [FilterKind::Single, FilterKind::Dual] {
            let mut src = &bbs;
            let serial = run_filter_source(&mut src, &vocab, &actuals, bbs.rows() as u64, kind, 3)
                .expect("serial");
            for threads in [1usize, 2, 4, 9] {
                let par = run_filter_source_threaded(
                    || Ok(&bbs),
                    &vocab,
                    &actuals,
                    bbs.rows() as u64,
                    kind,
                    3,
                    threads,
                )
                .expect("threaded");
                assert_eq!(par.frequent, serial.frequent, "{kind:?} x{threads}");
                assert_eq!(par.approx, serial.approx, "{kind:?} x{threads}");
                let mut a: Vec<_> = par.uncertain.clone();
                let mut b: Vec<_> = serial.uncertain.clone();
                a.sort();
                b.sort();
                assert_eq!(a, b, "{kind:?} x{threads}");
                assert_eq!(par.stats.candidates, serial.stats.candidates);
                assert_eq!(par.stats.certified, serial.stats.certified);
            }
        }
    }

    #[test]
    fn check_count_corollary_1() {
        // Both operands exact ⇒ union exact.
        let parent = NodeState {
            est: 10,
            count: 10,
            flag: Flag::CertainExact,
        };
        let (flag, count) = check_count(false, parent, 7, 7, 6, 3);
        assert_eq!(flag, Flag::CertainExact);
        assert_eq!(count, 6);
    }

    #[test]
    fn check_count_lemma5_lower_bound() {
        // I1 exact, I2 inexact, but est(union) − slack ≥ τ ⇒ flag 2.
        let parent = NodeState {
            est: 12,
            count: 10, // actual
            flag: Flag::CertainExact,
        };
        // slack = est2 − act2 = 2; union_est = 6 ⇒ lower bound 4 ≥ τ = 3.
        let (flag, count) = check_count(false, parent, 7, 7, 6, 3);
        assert_eq!(flag, Flag::CertainEstimated);
        assert_eq!(count, 6);
        // With τ = 5 the lower bound 4 no longer suffices.
        let (flag, _) = check_count(false, parent, 7, 7, 6, 5);
        assert_eq!(flag, Flag::Uncertain);
    }

    #[test]
    fn check_count_symmetric_case() {
        // I2 exact (est == count), I1 inexact but small slack.
        let parent = NodeState {
            est: 10,
            count: 10,
            flag: Flag::CertainExact,
        };
        // est1 − act1 = 1; union_est = 5 ⇒ bound 4 ≥ τ = 4.
        let (flag, _) = check_count(false, parent, 6, 7, 5, 4);
        assert_eq!(flag, Flag::CertainEstimated);
    }

    #[test]
    fn check_count_singleton_cases() {
        let parent = NodeState {
            est: 5,
            count: 5,
            flag: Flag::CertainExact,
        };
        assert_eq!(
            check_count(true, parent, 2, 4, 4, 3),
            (Flag::Infrequent, 2)
        );
        assert_eq!(
            check_count(true, parent, 4, 4, 4, 3),
            (Flag::CertainExact, 4)
        );
    }

    #[test]
    fn check_count_uncertain_parent_stays_uncertain() {
        let parent = NodeState {
            est: 10,
            count: 10,
            flag: Flag::Uncertain,
        };
        let (flag, _) = check_count(false, parent, 7, 7, 6, 3);
        assert_eq!(flag, Flag::Uncertain);
        let parent2 = NodeState {
            est: 10,
            count: 10,
            flag: Flag::CertainEstimated,
        };
        let (flag2, _) = check_count(false, parent2, 7, 7, 6, 3);
        assert_eq!(flag2, Flag::Uncertain);
    }
}
