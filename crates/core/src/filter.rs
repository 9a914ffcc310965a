//! The filtering phase: SingleFilter, DualFilter and CheckCount (§3.1).
//!
//! There is **one** depth-first enumerator ([`run_filter_source_threaded`])
//! and it counts through a [`CountSource`] — whatever answers the paper's
//! `CountItemSet`: a [`Cursor`] over the memory-resident index or over a
//! slice file, a cross-shard sum.  It implements all four of the paper's
//! algorithms:
//!
//! * **SingleFilter** (Fig. 2) — depth-first enumeration; a candidate is any
//!   itemset whose `CountItemSet` estimate reaches the threshold.
//! * **DualFilter** (Fig. 4) — additionally consults `check_count`
//!   (Fig. 3), which uses the exact 1-itemset counts the index maintains to
//!   certify candidates through Lemma 5 and Corollary 1.
//! * **Integrated probing** (§3.3, SFP/DFP) — a source that can reach the
//!   database answers [`CountSource::probe`], and every still-uncertain
//!   candidate is then verified *the moment it is generated*, so false
//!   drops never trigger chains of further false drops.  Sources that
//!   cannot leave the candidate uncertain for the caller's refinement scan.
//!
//! Who keeps the AND-result of the enumeration prefix is a property of the
//! source, not of the walk: the walk hands every node's sibling extensions
//! to the source in one call, prefix first, in depth-first order.
//! [`run_filter`] and [`run_filter_threaded`] are that runner over a
//! [`Cursor`] on the loaded index.

use crate::bbs::Bbs;
use crate::cursor::{Cursor, CursorStats};
use bbs_tdb::{IoStats, ItemId, Itemset, MineResult, MineStats, PatternSet, TransactionDb};
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
    /// What the walk's cursors did, summed over its workers (left zero by
    /// [`run_filter_source_threaded`], whose sources report their own).
    pub cursor: CursorStats,
}

impl FilterOutput {
    /// Total candidates that are certainly frequent.
    pub fn certain_len(&self) -> usize {
        self.frequent.len() + self.approx.len()
    }

    /// Folds another worker's output into this one.  Workers own disjoint
    /// subtrees, so the buckets are disjoint and the counters add.
    fn absorb(&mut self, other: FilterOutput) {
        self.frequent.extend_from(&other.frequent);
        self.approx.extend_from(&other.approx);
        self.uncertain.extend(other.uncertain);
        self.stats.candidates += other.stats.candidates;
        self.stats.false_drops += other.stats.false_drops;
        self.stats.certified += other.stats.certified;
        self.stats.bbs_counts += other.stats.bbs_counts;
        self.stats.io.merge(&other.stats.io);
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
/// The candidate is `I1 ∪ I2` with `I1 = {i}` the item being added:
/// `parent` describes `I2` (its flag, count and cached estimate), `None`
/// when `I2` is empty and the candidate is the 1-itemset itself;
/// `union_est` is `estCount(I1 ∪ I2)`; `act1`/`est1` are the exact and
/// estimated supports of the single item; `tau` the threshold.
///
/// Returns the flag and count for `I1 ∪ I2`.
fn check_count(
    parent: Option<NodeState>,
    act1: u64,
    est1: u64,
    union_est: u64,
    tau: u64,
) -> (Flag, u64) {
    let Some(parent) = parent else {
        // Lines 1–3: a 1-itemset's actual count is maintained directly.
        return if act1 < tau {
            (Flag::Infrequent, act1)
        } else {
            (Flag::CertainExact, act1)
        };
    };
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

/// A fallible `CountItemSet` provider: what the enumeration of Figs. 2/4
/// counts through, whether or not the index is memory-resident.
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
    /// The default implementation is that per-item loop; sources that keep
    /// the prefix's AND-result (the [`Cursor`], on disk or in memory)
    /// override it to AND the common prefix once instead of once per
    /// sibling.  The enumeration calls it in depth-first order, so
    /// consecutive prefixes differ by one item below their common ancestor.
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

    /// The integrated probe of §3.3: the **exact** support of `candidate`
    /// right now, if this source can reach the database (charging the
    /// fetches to `io`).  `None` — the default — leaves the candidate
    /// uncertain, to be refined by the caller's scan after the run.
    fn probe(&mut self, _candidate: &Itemset, _io: &mut IoStats) -> io::Result<Option<u64>> {
        Ok(None)
    }
}

/// The τ that requests an exact estimate from any [`CountSource`].
pub const EXACT: u64 = 0;

/// Upper bound on the number of sibling candidates submitted to
/// [`CountSource::count_extensions`] in one call.  The number of
/// extensions of a node is bounded by the live alphabet (and, in
/// aggregate per level, by the Geerts–Goethals–Van den Bussche tight
/// candidate bound), but a single batch also bounds a source's per-call
/// scratch, so outsized alphabets are split.
const MAX_COUNT_BATCH: usize = 256;

/// The enumeration alphabet: every item whose singleton estimate reaches
/// τ, ascending, with the two per-item inputs of CheckCount alongside.
///
/// Anti-monotonicity (Lemma 2 applied per item) gives
/// `est({i} ∪ X) ≤ est({i})`, so an item below τ on its own can never
/// appear in a candidate; dropping it cuts every node's sibling loop from
/// the vocabulary to the frequent vocabulary — the filter-side analogue
/// of Apriori's L1 restriction.
#[derive(Default)]
struct Live {
    items: Vec<ItemId>,
    /// `est({item})`, exact (it is `≥ τ`).
    est: Vec<u64>,
    /// The maintained exact support of `{item}`.
    act: Vec<u64>,
}

impl Live {
    /// The level-1 pass: one `CountItemSet` per vocabulary item.
    fn survey<C: CountSource>(
        src: &mut C,
        actuals: &HashMap<ItemId, u64>,
        tau: u64,
    ) -> io::Result<Live> {
        let mut vocab: Vec<(ItemId, u64)> = actuals.iter().map(|(&i, &c)| (i, c)).collect();
        vocab.sort_unstable();
        let mut live = Live::default();
        for (item, act) in vocab {
            let est = src.count_itemset(&Itemset::from_items(vec![item]), tau)?;
            if est >= tau {
                live.items.push(item);
                live.est.push(est);
                live.act.push(act);
            }
        }
        Ok(live)
    }
}

/// One worker's walk over its share of the enumeration tree.
struct Walk<'a, C: CountSource> {
    src: C,
    kind: FilterKind,
    tau: u64,
    live: &'a Live,
    out: FilterOutput,
}

impl<C: CountSource> Walk<'_, C> {
    /// Processes the extension `itemset ∪ {live.items[idx]}` whose estimate
    /// is `union_est`: the filter test, CheckCount, the probe if the source
    /// offers one, the bucket insert, and the candidate's own subtree.
    /// `parent` is `itemset`'s state, `None` at the root.
    fn node(
        &mut self,
        idx: usize,
        itemset: &Itemset,
        parent: Option<NodeState>,
        union_est: u64,
    ) -> io::Result<()> {
        if union_est < self.tau {
            return Ok(()); // rejected outright by the filter
        }
        self.out.stats.candidates += 1;
        // Built only now: most extensions never get past the test above.
        let candidate = itemset.with_item(self.live.items[idx]);
        let (flag, count) = match self.kind {
            FilterKind::Single => (Flag::Uncertain, union_est),
            FilterKind::Dual => {
                let (act1, est1) = (self.live.act[idx], self.live.est[idx]);
                check_count(parent, act1, est1, union_est, self.tau)
            }
        };
        let (flag, count) = match flag {
            Flag::Infrequent => {
                // A filter-time false drop, discovered for free.
                self.out.stats.false_drops += 1;
                return Ok(());
            }
            Flag::CertainExact => {
                self.out.stats.certified += 1;
                self.out.frequent.insert(candidate.clone(), count);
                (flag, count)
            }
            Flag::CertainEstimated => {
                self.out.stats.certified += 1;
                self.out.approx.insert(candidate.clone(), count);
                (flag, count)
            }
            Flag::Uncertain => match self.src.probe(&candidate, &mut self.out.stats.io)? {
                Some(actual) if actual >= self.tau => {
                    self.out.frequent.insert(candidate.clone(), actual);
                    (Flag::CertainExact, actual)
                }
                Some(_) => {
                    // No recursion: the chain of false drops is cut.
                    self.out.stats.false_drops += 1;
                    return Ok(());
                }
                None => {
                    self.out.uncertain.push((candidate.clone(), union_est));
                    (flag, count)
                }
            },
        };
        let state = NodeState {
            est: union_est,
            count,
            flag,
        };
        self.expand(idx + 1, &candidate, state)
    }

    /// Expands `itemset` by the alphabet tail `live.items[start..]`: all
    /// sibling candidates of the node are counted through **one** batched
    /// [`CountSource::count_extensions`] call (split at
    /// [`MAX_COUNT_BATCH`]), then each survivor's subtree is explored
    /// depth-first.
    fn expand(&mut self, start: usize, itemset: &Itemset, state: NodeState) -> io::Result<()> {
        let exts = &self.live.items[start..];
        let mut ests = Vec::with_capacity(exts.len());
        for batch in exts.chunks(MAX_COUNT_BATCH) {
            self.out.stats.bbs_counts += batch.len() as u64;
            ests.extend(self.src.count_extensions(itemset, batch, self.tau)?);
        }
        for (k, est) in ests.into_iter().enumerate() {
            self.node(start + k, itemset, Some(state), est)?;
        }
        Ok(())
    }
}

/// The filtering pass of Figs. 2/4 over an arbitrary [`CountSource`], on
/// `threads` workers.
///
/// `actuals` holds the exact 1-itemset supports the index maintains; its
/// keys are the enumeration vocabulary.  After the level-1 pass the live
/// items are dealt round-robin to the workers — a top-level item's subtree
/// never touches another's, so the partition is exact, not heuristic, and
/// the deal balances the skew of early (deep) against late (shallow)
/// subtrees.  Each worker counts through its **own** source: worker 0 runs
/// on the calling thread with the source that did the level-1 pass, every
/// other worker calls `make_source` for its own (e.g. an independent
/// reader with its own page cache over the same slice file).  One worker
/// is therefore simply the serial run.
///
/// Pattern buckets and the candidate / false-drop / certified / count
/// totals do not depend on `threads`; only the order of `uncertain` does,
/// and probe page charges (each probing source has its own buffer pool, so
/// a shared page may be charged once per worker).  The sources come back
/// with the output, in worker order, so callers can read what their
/// readers did.
pub fn run_filter_source_threaded<C, F>(
    make_source: F,
    actuals: &HashMap<ItemId, u64>,
    kind: FilterKind,
    tau: u64,
    threads: usize,
) -> io::Result<(FilterOutput, Vec<C>)>
where
    C: CountSource + Send,
    F: Fn() -> io::Result<C> + Sync,
{
    let mut first = make_source()?;
    let live = Live::survey(&mut first, actuals, tau)?;
    let workers = threads.clamp(1, live.items.len().max(1));
    let run_worker = |src: C, worker: usize| -> io::Result<(FilterOutput, C)> {
        let mut walk = Walk {
            src,
            kind,
            tau,
            live: &live,
            out: FilterOutput::default(),
        };
        let root = Itemset::empty();
        for idx in (worker..live.items.len()).step_by(workers) {
            walk.node(idx, &root, None, live.est[idx])?;
        }
        Ok((walk.out, walk.src))
    };
    let walked: Vec<io::Result<(FilterOutput, C)>> = std::thread::scope(|scope| {
        let (run_worker, make_source) = (&run_worker, &make_source);
        let spawned: Vec<_> = (1..workers)
            .map(|worker| scope.spawn(move || run_worker(make_source()?, worker)))
            .collect();
        let mut walked = vec![run_worker(first, 0)];
        walked.extend(
            spawned
                .into_iter()
                .map(|h| h.join().expect("filter worker panicked")),
        );
        walked
    });

    let mut out = FilterOutput::default();
    out.stats.bbs_counts = actuals.len() as u64;
    let mut sources = Vec::with_capacity(workers);
    for result in walked {
        let (part, src) = result?;
        out.absorb(part);
        sources.push(src);
    }
    Ok((out, sources))
}

/// Runs a filtering pass over the memory-resident `bbs`.
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
    run_filter_threaded(bbs, kind, db, tau, 1)
}

/// [`run_filter`] on `threads` workers: [`run_filter_source_threaded`]
/// with one [`Cursor::resident`] per worker, whose walks are summed into
/// [`FilterOutput::cursor`].
pub fn run_filter_threaded(
    bbs: &Bbs,
    kind: FilterKind,
    db: Option<&TransactionDb>,
    tau: u64,
    threads: usize,
) -> FilterOutput {
    let make_source = || Ok(Cursor::resident(bbs, db));
    let (mut out, cursors) =
        run_filter_source_threaded(make_source, bbs.item_counts(), kind, tau, threads)
            .expect("the memory-resident index cannot fail a count");
    cursors.iter().for_each(|c| out.cursor.absorb(c.stats()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_hash::ModuloHasher;
    use bbs_tdb::Transaction;
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

    #[test]
    fn check_count_corollary_1() {
        // Both operands exact ⇒ union exact.
        let parent = NodeState {
            est: 10,
            count: 10,
            flag: Flag::CertainExact,
        };
        let (flag, count) = check_count(Some(parent), 7, 7, 6, 3);
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
        let (flag, count) = check_count(Some(parent), 7, 7, 6, 3);
        assert_eq!(flag, Flag::CertainEstimated);
        assert_eq!(count, 6);
        // With τ = 5 the lower bound 4 no longer suffices.
        let (flag, _) = check_count(Some(parent), 7, 7, 6, 5);
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
        let (flag, _) = check_count(Some(parent), 6, 7, 5, 4);
        assert_eq!(flag, Flag::CertainEstimated);
    }

    #[test]
    fn check_count_singleton_cases() {
        assert_eq!(check_count(None, 2, 4, 4, 3), (Flag::Infrequent, 2));
        assert_eq!(check_count(None, 4, 4, 4, 3), (Flag::CertainExact, 4));
    }

    #[test]
    fn check_count_uncertain_parent_stays_uncertain() {
        let parent = NodeState {
            est: 10,
            count: 10,
            flag: Flag::Uncertain,
        };
        let (flag, _) = check_count(Some(parent), 7, 7, 6, 3);
        assert_eq!(flag, Flag::Uncertain);
        let parent2 = NodeState {
            est: 10,
            count: 10,
            flag: Flag::CertainEstimated,
        };
        let (flag2, _) = check_count(Some(parent2), 7, 7, 6, 3);
        assert_eq!(flag2, Flag::Uncertain);
    }
}
