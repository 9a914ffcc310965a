//! A [`CountSource`] that sums per-shard counts — the mining-side
//! executor one filter worker drives, and the one place the filter's τ
//! early exit crosses shards.
//!
//! The threaded filter deals top-level candidate subtrees round-robin to
//! workers ("shards × cores": every worker owns one reader per shard and
//! walks its subtrees against *all* shards).
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
//! 1. **Running-total exit.**  After shard `i`, if the accumulated count
//!    plus the total rows of every unvisited shard cannot reach τ, the
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
//! So the values the filter engine records are bit-for-bit the unsharded
//! estimates and the mined patterns are identical.

use bbs_core::{CountSource, EXACT};
use bbs_tdb::{ItemId, Itemset};
use std::io;

/// Per-shard early-exit budget for a global threshold `tau` over
/// `shards` shards: `max(1, ⌈tau/shards⌉)`.
pub fn scaled_tau(tau: u64, shards: usize) -> u64 {
    let n = shards.max(1) as u64;
    tau.div_ceil(n).max(1)
}

/// Per-worker cross-shard counter: one per-shard [`CountSource`] plus
/// the most rows each shard can add to a count — its live rows — which is
/// the running-total bound.
pub struct ShardedCounter<C: CountSource> {
    shards: Vec<C>,
    rows: Vec<u64>,
    total_rows: u64,
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
        }
    }

    /// The per-shard readers, in shard order (stats reporting walks
    /// these when the counter is retired).
    pub fn readers(&self) -> &[C] {
        &self.shards
    }
}

impl<C: CountSource> CountSource for ShardedCounter<C> {
    fn count_itemset(&mut self, itemset: &Itemset, tau: u64) -> io::Result<u64> {
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
        let n = self.shards.len();
        let t_i = scaled_tau(tau, n);
        let mut per: Vec<Vec<u64>> = Vec::with_capacity(n);
        let mut accs = vec![0u64; extensions.len()];
        let mut after = self.total_rows;
        for (shard, &rows) in self.shards.iter_mut().zip(&self.rows) {
            after -= rows;
            let r = shard.count_extensions(prefix, extensions, t_i)?;
            for (acc, &v) in accs.iter_mut().zip(&r) {
                *acc += v;
            }
            per.push(r);
            // The batch-wide running total: stop visiting shards once
            // *every* sibling is out of reach of τ.
            if accs.iter().all(|&a| a.saturating_add(after) < tau) {
                for acc in accs.iter_mut() {
                    *acc += after;
                }
                return Ok(accs);
            }
        }
        for (shard, pi) in self.shards.iter_mut().zip(per.iter_mut()) {
            let need: Vec<usize> = (0..extensions.len())
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
