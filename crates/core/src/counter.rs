//! A [`CountSource`] that sums per-shard counts — the source every worker
//! of [`crate::mine_views`] counts through, and the one place the filter's
//! τ early exit crosses shards.
//!
//! The threaded filter deals top-level candidate subtrees round-robin to
//! workers ("shards × cores": every worker owns one reader per shard and
//! walks its subtrees against *all* shards).  Over one shard the sum is
//! the identity, so the counter hands every call to that shard's source.
//!
//! # The cross-shard τ scheme
//!
//! Early exit does not distribute naively: handing every shard the full
//! τ lets each return a local upper bound just below τ whose *sum*
//! crosses τ while being inexact — violating the contract that ≥ τ
//! answers are exact.  Instead each shard gets the scaled budget
//! `τᵢ = max(1, ⌈τ/n⌉)` ([`scaled_tau`]), and the shards are visited
//! serially:
//!
//! 1. **Early settle.**  Before shard `i`, if the accumulated count plus
//!    the most every unvisited shard can add cannot reach τ, the
//!    remaining shards are skipped and that sum is returned — an upper
//!    bound below τ, exactly what the contract allows.
//! 2. If the summed total `S < τ`, return `S`: a sum of per-shard upper
//!    bounds is an upper bound, and `< τ` answers may be bounds.  When
//!    *every* shard early-exits, `S ≤ n·(⌈τ/n⌉−1) ≤ τ−1 < τ` —
//!    all-shards-infrequent prunes with no second pass.
//! 3. If `S ≥ τ`, any shard whose answer was a possible bound (below its
//!    τᵢ but nonzero — zero is always exact) is re-queried exactly,
//!    skipping any whose need evaporated as refinement deflated the
//!    total.  An answer at or above τ is then exact.
//!
//! # Caps: what a shard can add to a sibling
//!
//! For a single count the most an unvisited shard can add is its live
//! rows, which almost never rules it out.  Sibling batches — the
//! enumeration's shape — use a far tighter bound.  An estimate is a sum
//! over rows, so the paper's Lemma 2, `est(X ∪ {i}) ≤ est({i})`, holds
//! shard by shard: shard `j`'s estimate of `prefix ∪ {e}` is at most
//! `capⱼ = min` over its items `x` of `estⱼ({x})`.  The counter keeps
//! each item's per-shard singleton estimate in a table, filled lazily by
//! one exact batch per shard for the items a call names that it has not
//! seen.  Before shard `j` a sibling whose running total plus the caps of
//! shards `j..n` is below τ settles at that sum (step 1 with caps for
//! rows), and a sibling whose `capⱼ` is 0 is not sent to shard `j` (its
//! exact answer there is 0).  Every settled answer is at least the
//! unsharded estimate and below τ, and answers ≥ τ are still exact, so
//! every decision the filter makes is the one it makes over the unsharded
//! estimates: patterns, approx markers and statistics are identical, and
//! only the shards' work shrinks.

use crate::filter::{CountSource, EXACT};
use bbs_tdb::{ItemId, Itemset};
use std::collections::HashMap;
use std::io;

/// Per-shard early-exit budget for a global threshold `tau` over
/// `shards` shards: `max(1, ⌈tau/shards⌉)`.
pub fn scaled_tau(tau: u64, shards: usize) -> u64 {
    let n = shards.max(1) as u64;
    tau.div_ceil(n).max(1)
}

/// Per-worker cross-shard counter: one per-shard [`CountSource`], the
/// most rows each shard can add to a count — its live rows — and, filled
/// as the walk meets items, each item's singleton estimate on every shard:
/// the caps that bound what a shard can add to a sibling.
pub struct ShardedCounter<C: CountSource> {
    shards: Vec<C>,
    rows: Vec<u64>,
    total_rows: u64,
    /// `caps[x][j]` is `est_j({x})`, shard `j`'s exact singleton estimate.
    caps: HashMap<ItemId, Vec<u64>>,
}

impl<C: CountSource> ShardedCounter<C> {
    /// Builds the counter from per-shard readers and row counts
    /// (`shards[i]` counts at most `rows[i]` rows).
    pub fn new(shards: Vec<C>, rows: Vec<u64>) -> Self {
        assert_eq!(shards.len(), rows.len());
        let total_rows = rows.iter().sum();
        ShardedCounter {
            shards,
            rows,
            total_rows,
            caps: HashMap::new(),
        }
    }

    /// The per-shard readers, in shard order (stats reporting walks
    /// these when the counter is retired).
    pub fn readers(&self) -> &[C] {
        &self.shards
    }

    /// Counts the singleton estimates of every item of `prefix` and
    /// `extensions` not yet in the cap table: one exact batch per shard.
    fn fill_caps(&mut self, prefix: &Itemset, extensions: &[ItemId]) -> io::Result<()> {
        let missing: Vec<ItemId> = (prefix.items().iter().chain(extensions))
            .filter(|item| !self.caps.contains_key(item))
            .copied()
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        let mut per_item = vec![Vec::with_capacity(self.shards.len()); missing.len()];
        for shard in &mut self.shards {
            let ests = shard.count_extensions(&Itemset::empty(), &missing, EXACT)?;
            for (caps, est) in per_item.iter_mut().zip(ests) {
                caps.push(est);
            }
        }
        self.caps.extend(missing.into_iter().zip(per_item));
        Ok(())
    }
}

impl<C: CountSource> CountSource for ShardedCounter<C> {
    fn count_itemset(&mut self, itemset: &Itemset, tau: u64) -> io::Result<u64> {
        if let [only] = &mut self.shards[..] {
            return only.count_itemset(itemset, tau);
        }
        let n = self.shards.len();
        let t_i = scaled_tau(tau, n);
        let mut per = Vec::with_capacity(n);
        let mut acc = 0u64;
        let mut after = self.total_rows;
        for (shard, &rows) in self.shards.iter_mut().zip(&self.rows) {
            after -= rows;
            let r = shard.count_itemset(itemset, t_i)?;
            per.push(r);
            acc += r;
            // Cross-shard running total: even if every remaining row
            // matched, τ is out of reach — prune without touching them.
            if acc.saturating_add(after) < tau {
                return Ok(acc + after);
            }
        }
        if acc < tau {
            return Ok(acc);
        }
        // The total crossed τ: patch every possibly-inexact addend (below
        // its budget but nonzero) with the exact shard count.  Refinement
        // only deflates, so once the total drops below τ the remaining
        // bounds can stay — the answer is then a < τ upper bound.
        for (shard, &r) in self.shards.iter_mut().zip(&per) {
            if acc < tau {
                break;
            }
            if r > 0 && r < t_i {
                let exact = shard.count_itemset(itemset, EXACT)?;
                acc = acc - r + exact;
            }
        }
        Ok(acc)
    }

    fn count_extensions(
        &mut self,
        prefix: &Itemset,
        extensions: &[ItemId],
        tau: u64,
    ) -> io::Result<Vec<u64>> {
        if let [only] = &mut self.shards[..] {
            return only.count_extensions(prefix, extensions, tau);
        }
        self.fill_caps(prefix, extensions)?;
        let n = self.shards.len();
        let t_i = scaled_tau(tau, n);
        let m = extensions.len();
        let mut prefix_caps = vec![u64::MAX; n];
        for item in prefix.items() {
            for (cap, &est) in prefix_caps.iter_mut().zip(&self.caps[item]) {
                *cap = (*cap).min(est);
            }
        }
        // `rest[e][j]` is the most shards `j..n` can add to sibling `e`:
        // the sum of their caps, `min` over its items of `est_j({x})`.
        let rest: Vec<Vec<u64>> = extensions
            .iter()
            .map(|item| {
                let mut rest = vec![0u64; n + 1];
                for j in (0..n).rev() {
                    rest[j] = rest[j + 1] + prefix_caps[j].min(self.caps[item][j]);
                }
                rest
            })
            .collect();
        let mut per = vec![vec![0u64; m]; n];
        let mut accs = vec![0u64; m];
        let mut open: Vec<usize> = (0..m).collect();
        for (j, shard) in self.shards.iter_mut().enumerate() {
            // Settle every sibling that cannot reach τ even if the shards
            // left answer their caps: that sum is a below-τ upper bound.
            open.retain(|&e| {
                let reachable = accs[e] + rest[e][j] >= tau;
                if !reachable {
                    accs[e] += rest[e][j];
                }
                reachable
            });
            // A sibling capped at 0 here has the exact answer 0 here.
            let sent: Vec<usize> = (open.iter().copied())
                .filter(|&e| rest[e][j] > rest[e][j + 1])
                .collect();
            if sent.is_empty() {
                continue;
            }
            let subset: Vec<ItemId> = sent.iter().map(|&e| extensions[e]).collect();
            let r = shard.count_extensions(prefix, &subset, t_i)?;
            for (&e, v) in sent.iter().zip(r) {
                per[j][e] = v;
                accs[e] += v;
            }
        }
        // The total crossed τ: patch every possibly-inexact addend (below
        // its budget but nonzero) with the exact shard count.  Refinement
        // only deflates, so a sibling whose total drops below τ keeps its
        // remaining bounds — its answer is then a < τ upper bound.
        for (shard, pi) in self.shards.iter_mut().zip(per.iter_mut()) {
            let need: Vec<usize> = (0..m)
                .filter(|&e| accs[e] >= tau && pi[e] > 0 && pi[e] < t_i)
                .collect();
            if need.is_empty() {
                continue;
            }
            let subset: Vec<ItemId> = need.iter().map(|&e| extensions[e]).collect();
            let exact = shard.count_extensions(prefix, &subset, EXACT)?;
            for (k, &e) in need.iter().enumerate() {
                accs[e] = accs[e] - pi[e] + exact[k];
                pi[e] = exact[k];
            }
        }
        Ok(accs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory scripted shard: a fixed transaction list, with exact
    /// subset counting; the bounded path inflates the answer to the
    /// largest value the τ contract tolerates (`min(rows, …)` capped just
    /// under the budget) whenever the exact count is below the budget —
    /// adversarially maximising the gather layer's refinement burden.
    struct AdversarialShard {
        rows: Vec<Vec<u32>>,
    }

    impl AdversarialShard {
        fn exact(&self, itemset: &Itemset) -> u64 {
            self.rows
                .iter()
                .filter(|r| itemset.items().iter().all(|i| r.contains(&i.0)))
                .count() as u64
        }
    }

    impl CountSource for AdversarialShard {
        fn count_itemset(&mut self, itemset: &Itemset, tau: u64) -> io::Result<u64> {
            let exact = self.exact(itemset);
            let worst = (self.rows.len() as u64).min(tau.saturating_sub(1));
            Ok(if exact < tau && exact > 0 {
                worst.max(exact)
            } else {
                exact
            })
        }
    }

    fn build(shards: usize, n_rows: usize) -> (ShardedCounter<AdversarialShard>, Vec<Vec<u32>>) {
        // Deterministic rows: item k appears on rows where tid % (k+2) == 0.
        let all: Vec<Vec<u32>> = (0..n_rows as u64)
            .map(|tid| (0..8u32).filter(|&k| tid % (k as u64 + 2) == 0).collect())
            .collect();
        let mut parts: Vec<Vec<Vec<u32>>> = vec![Vec::new(); shards];
        for (tid, row) in all.iter().enumerate() {
            parts[tid % shards].push(row.clone());
        }
        let rows: Vec<u64> = parts.iter().map(|p| p.len() as u64).collect();
        let counters = parts
            .into_iter()
            .map(|rows| AdversarialShard { rows })
            .collect();
        (ShardedCounter::new(counters, rows), all)
    }

    fn global_exact(all: &[Vec<u32>], itemset: &Itemset) -> u64 {
        all.iter()
            .filter(|r| itemset.items().iter().all(|i| r.contains(&i.0)))
            .count() as u64
    }

    #[test]
    fn tau_contract_holds_under_adversarial_shard_bounds() {
        for shards in [1, 2, 3, 4] {
            let (mut counter, all) = build(shards, 120);
            for items in [vec![0u32], vec![1], vec![0, 1], vec![2, 3], vec![7], vec![5, 6, 7]] {
                let q = Itemset::from_values(&items);
                let exact = global_exact(&all, &q);
                for tau in [1u64, 5, 20, 40, 60, 61, 120] {
                    let got = counter.count_itemset(&q, tau).unwrap();
                    if got >= tau {
                        assert_eq!(got, exact, "{items:?} τ={tau} n={shards}: ≥τ must be exact");
                    } else {
                        assert!(got >= exact, "{items:?} τ={tau} n={shards}: bound undercounts");
                    }
                }
            }
        }
    }

    /// A lone engine mines through a one-shard counter, so over one shard
    /// the wrapper must hand back the inner source's answer untouched —
    /// its below-τ bounds included — for single counts and sibling batches.
    #[test]
    fn one_shard_counter_answers_what_its_source_does() {
        let (mut counter, all) = build(1, 120);
        let mut inner = AdversarialShard { rows: all };
        let prefix = Itemset::from_values(&[0]);
        let exts: Vec<ItemId> = (1..8).map(ItemId).collect();
        for tau in [1u64, 5, 20, 40, 60, 61, 120] {
            for items in [vec![0u32], vec![1], vec![0, 1], vec![2, 3], vec![7], vec![5, 6, 7]] {
                let q = Itemset::from_values(&items);
                let want = inner.count_itemset(&q, tau).unwrap();
                assert_eq!(counter.count_itemset(&q, tau).unwrap(), want, "{items:?} τ={tau}");
            }
            let want = inner.count_extensions(&prefix, &exts, tau).unwrap();
            assert_eq!(counter.count_extensions(&prefix, &exts, tau).unwrap(), want, "τ={tau}");
        }
    }

    #[test]
    fn extensions_match_one_at_a_time_counting_decisions() {
        for shards in [2, 4] {
            let (mut counter, all) = build(shards, 90);
            let prefix = Itemset::from_values(&[0]);
            let exts: Vec<ItemId> = (1..8).map(ItemId).collect();
            for tau in [1u64, 10, 25, 45] {
                let batched = counter.count_extensions(&prefix, &exts, tau).unwrap();
                for (k, &e) in exts.iter().enumerate() {
                    let union = prefix.with_item(e);
                    let exact = global_exact(&all, &union);
                    if batched[k] >= tau {
                        assert_eq!(batched[k], exact, "ext {e:?} τ={tau} n={shards}");
                    } else {
                        assert!(batched[k] >= exact, "ext {e:?} τ={tau} n={shards}");
                    }
                }
            }
        }
    }

    /// [`tau_contract_holds_under_adversarial_shard_bounds`] for sibling
    /// batches: whatever the caps settle or skip, an answer ≥ τ is exact
    /// and one below τ never undercounts.  One counter serves every
    /// prefix and τ, so its cap table is reused across calls.
    #[test]
    fn extensions_honour_the_tau_contract_under_adversarial_shard_bounds() {
        for shards in [1, 2, 3, 4] {
            let (mut counter, all) = build(shards, 120);
            for prefix in [vec![], vec![0u32], vec![1], vec![0, 1], vec![2, 3], vec![5, 6]] {
                let prefix = Itemset::from_values(&prefix);
                let exts: Vec<ItemId> = (0..8u32)
                    .map(ItemId)
                    .filter(|e| !prefix.items().contains(e))
                    .collect();
                for tau in [1u64, 5, 20, 40, 60, 61, 120] {
                    let got = counter.count_extensions(&prefix, &exts, tau).unwrap();
                    for (&e, &v) in exts.iter().zip(&got) {
                        let exact = global_exact(&all, &prefix.with_item(e));
                        let what = format!("{prefix:?}+{e:?} τ={tau} n={shards}");
                        if v >= tau {
                            assert_eq!(v, exact, "{what}: ≥τ must be exact");
                        } else {
                            assert!(v >= exact, "{what}: bound undercounts");
                        }
                    }
                }
            }
        }
    }

    /// A shard that records every sibling batch it is sent.
    struct Recording {
        shard: AdversarialShard,
        calls: Vec<(Vec<ItemId>, Vec<ItemId>, u64)>,
    }

    impl CountSource for Recording {
        fn count_itemset(&mut self, itemset: &Itemset, tau: u64) -> io::Result<u64> {
            self.shard.count_itemset(itemset, tau)
        }

        fn count_extensions(
            &mut self,
            prefix: &Itemset,
            extensions: &[ItemId],
            tau: u64,
        ) -> io::Result<Vec<u64>> {
            self.calls
                .push((prefix.items().to_vec(), extensions.to_vec(), tau));
            self.shard.count_extensions(prefix, extensions, tau)
        }
    }

    /// A counter over shards holding `parts[j]` repeated rows each:
    /// `(copies, row)` pairs.
    fn recording(parts: &[&[(usize, &[u32])]]) -> ShardedCounter<Recording> {
        let shards: Vec<Recording> = parts
            .iter()
            .map(|rows| Recording {
                shard: AdversarialShard {
                    rows: rows
                        .iter()
                        .flat_map(|&(copies, row)| std::iter::repeat_n(row.to_vec(), copies))
                        .collect(),
                },
                calls: Vec::new(),
            })
            .collect();
        let rows = shards.iter().map(|s| s.shard.rows.len() as u64).collect();
        ShardedCounter::new(shards, rows)
    }

    /// Every batch a shard was sent, apart from the exact singleton counts
    /// that fill the cap table.
    fn sibling_calls(shard: &Recording) -> Vec<&(Vec<ItemId>, Vec<ItemId>, u64)> {
        shard
            .calls
            .iter()
            .filter(|(prefix, _, tau)| !(prefix.is_empty() && *tau == EXACT))
            .collect()
    }

    /// An item with no rows in a shard caps every sibling it is in at 0
    /// there: past the one singleton count that fills the cap table, no
    /// batch naming it — as a sibling or in the prefix — reaches that
    /// shard, and the answers stay exact.
    #[test]
    fn an_item_absent_from_a_shard_is_never_counted_there() {
        let mut counter = recording(&[
            &[(20, &[0, 9])],
            &[(20, &[0, 1])],
            &[(20, &[0, 1, 9])],
        ]);
        let (one, nine) = (ItemId(1), ItemId(9));
        let got = counter.count_extensions(&Itemset::from_values(&[0]), &[one, nine], 1);
        assert_eq!(got.unwrap(), vec![40, 40]);
        let got = counter.count_extensions(&Itemset::from_values(&[9]), &[ItemId(0), one], 1);
        assert_eq!(got.unwrap(), vec![40, 20]);
        let shards = counter.readers();
        for (j, absent) in [(0, one), (1, nine)] {
            for (prefix, exts, _) in sibling_calls(&shards[j]) {
                assert!(
                    !prefix.contains(&absent) && !exts.contains(&absent),
                    "shard {j} was sent {absent:?}: {prefix:?} + {exts:?}"
                );
            }
        }
        assert_eq!(sibling_calls(&shards[1]).len(), 1, "only the {{0}} batch");
        assert_eq!(sibling_calls(&shards[2]).len(), 2);
    }

    /// Shard 0 holds items 0 and 5 ten times each but never together; the
    /// later shards hold the pair once each.  At τ = 8 the caps admit
    /// `{0, 5}` to shard 0 (10 + 1 + 1 ≥ 8), whose answer of 0 leaves at
    /// most 0 + 1 + 1 < 8: the sibling settles at 2 and reaches no later
    /// shard.  At τ = 2 it must visit them all and come back exact.
    #[test]
    fn a_sibling_settled_by_its_caps_reaches_no_later_shard() {
        let parts: [&[(usize, &[u32])]; 3] = [
            &[(10, &[0]), (10, &[5])],
            &[(1, &[0, 5]), (5, &[3])],
            &[(1, &[0, 5]), (5, &[3])],
        ];
        let prefix = Itemset::from_values(&[0]);
        let mut counter = recording(&parts);
        assert_eq!(counter.count_extensions(&prefix, &[ItemId(5)], 8).unwrap(), vec![2]);
        let visits: Vec<usize> = counter.readers().iter().map(|s| sibling_calls(s).len()).collect();
        assert_eq!(visits, vec![1, 0, 0], "settled after shard 0");

        let mut counter = recording(&parts);
        assert_eq!(counter.count_extensions(&prefix, &[ItemId(5)], 2).unwrap(), vec![2]);
        let visits: Vec<usize> = counter.readers().iter().map(|s| sibling_calls(s).len()).collect();
        assert_eq!(visits, vec![1, 1, 1], "τ within reach: every shard counts");
    }

    #[test]
    fn scaled_tau_budgets() {
        assert_eq!(scaled_tau(10, 4), 3);
        assert_eq!(scaled_tau(12, 4), 3);
        assert_eq!(scaled_tau(13, 4), 4);
        assert_eq!(scaled_tau(0, 4), 1);
        assert_eq!(scaled_tau(1, 1), 1);
        // The all-early-exit prune bound: n·(τᵢ−1) < τ for every (τ, n).
        for tau in 1..200u64 {
            for n in 1..9usize {
                assert!((n as u64) * (scaled_tau(tau, n) - 1) < tau, "tau={tau} n={n}");
            }
        }
    }

    /// The running-total exit really skips trailing shards: with τ above
    /// the whole database size, nothing can reach it, and the first
    /// shard's answer plus the unvisited-row bound must come back.
    #[test]
    fn running_total_exit_returns_a_below_tau_bound() {
        let (mut counter, all) = build(4, 80);
        let q = Itemset::from_values(&[7]);
        let exact = global_exact(&all, &q);
        let got = counter.count_itemset(&q, 1000).unwrap();
        assert!(got < 1000);
        assert!(got >= exact);
    }
}
