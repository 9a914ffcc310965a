//! The IBM Quest synthetic market-basket generator.
//!
//! This follows the procedure of Agrawal & Srikant, *Fast Algorithms for
//! Mining Association Rules* (VLDB '94) — reference \[1\] of the BBS paper,
//! and the source of the paper's `T10.I10.D10K` datasets:
//!
//! 1. Build a pool of `L` *potentially large itemsets*.  Each has a length
//!    drawn from a Poisson with mean `I`; its items are partly inherited
//!    from the previous pool entry (an exponentially distributed fraction
//!    with mean 0.5) and partly drawn fresh, modelling correlated patterns.
//!    Each pool entry carries an exponential weight (normalised) and a
//!    *corruption level* drawn from a clipped normal (mean 0.5, σ 0.1).
//! 2. Emit transactions.  Each transaction's length is Poisson with mean
//!    `T`; it is filled by picking pool itemsets by weight, dropping items
//!    from each picked itemset while a uniform draw stays below its
//!    corruption level, and — when an itemset no longer fits — adding it
//!    anyway in half the cases and discarding it otherwise.

use crate::sampling;
use bbs_tdb::{ItemId, Itemset, Transaction, TransactionDb};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a Quest dataset, in the paper's notation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuestConfig {
    /// `D` — number of transactions.
    pub transactions: usize,
    /// `V` (sometimes `N`) — number of distinct items.
    pub items: u32,
    /// `T` — average transaction length.
    pub avg_txn_len: f64,
    /// `I` — average length of the maximal potentially large itemsets.
    pub avg_pattern_len: f64,
    /// `L` — size of the potentially-large-itemset pool (Quest default 2000).
    pub pattern_pool: usize,
    /// Mean fraction of items shared with the previous pool entry.
    pub correlation: f64,
    /// Mean corruption level (fraction of a pattern's items dropped).
    pub corruption_mean: f64,
    /// Std-dev of the corruption level.
    pub corruption_sd: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl QuestConfig {
    /// The paper's default dataset: `T10.I10.D10K` with 10 000 items,
    /// pool of 2000 patterns.
    pub fn paper_default() -> Self {
        QuestConfig {
            transactions: 10_000,
            items: 10_000,
            avg_txn_len: 10.0,
            avg_pattern_len: 10.0,
            pattern_pool: 2_000,
            correlation: 0.5,
            corruption_mean: 0.5,
            corruption_sd: 0.1,
            seed: 20020226, // ICDE 2002
        }
    }

    /// A small configuration for unit tests (fast, still structured).
    pub fn tiny() -> Self {
        QuestConfig {
            transactions: 200,
            items: 50,
            avg_txn_len: 6.0,
            avg_pattern_len: 3.0,
            pattern_pool: 20,
            correlation: 0.5,
            corruption_mean: 0.5,
            corruption_sd: 0.1,
            seed: 7,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different transaction count (`D`).
    pub fn with_transactions(mut self, d: usize) -> Self {
        self.transactions = d;
        self
    }

    /// Returns a copy with a different vocabulary size (`V`).
    pub fn with_items(mut self, v: u32) -> Self {
        self.items = v;
        self
    }

    /// Returns a copy with a different average transaction length (`T`).
    pub fn with_avg_txn_len(mut self, t: f64) -> Self {
        self.avg_txn_len = t;
        self
    }

    /// Dataset label in the paper's naming scheme, e.g. `T10.I10.D10K`.
    pub fn label(&self) -> String {
        let d = self.transactions;
        let d_str = if d.is_multiple_of(1000) {
            format!("{}K", d / 1000)
        } else {
            d.to_string()
        };
        format!(
            "T{}.I{}.D{}",
            self.avg_txn_len as u64, self.avg_pattern_len as u64, d_str
        )
    }
}

/// One entry of the potentially-large-itemset pool.
#[derive(Debug, Clone)]
struct PoolEntry {
    items: Vec<ItemId>,
    corruption: f64,
}

/// The Quest generator.  Construction builds the pattern pool; calling
/// [`QuestGenerator::generate`] (or [`generate_db`]) emits transactions.
pub struct QuestGenerator {
    config: QuestConfig,
    pool: Vec<PoolEntry>,
    cumulative_weights: Vec<f64>,
    rng: StdRng,
    next_tid: u64,
}

impl QuestGenerator {
    /// Builds the pattern pool for `config`.
    ///
    /// # Panics
    /// Panics if the configuration is degenerate (no items, no pool).
    pub fn new(config: QuestConfig) -> Self {
        assert!(config.items > 0, "need at least one item");
        assert!(config.pattern_pool > 0, "need a non-empty pattern pool");
        assert!(config.avg_txn_len > 0.0 && config.avg_pattern_len > 0.0);
        let mut rng = StdRng::seed_from_u64(config.seed);

        let mut pool: Vec<PoolEntry> = Vec::with_capacity(config.pattern_pool);
        let mut weights: Vec<f64> = Vec::with_capacity(config.pattern_pool);
        let mut prev: Vec<ItemId> = Vec::new();
        for _ in 0..config.pattern_pool {
            let len = sampling::poisson(&mut rng, config.avg_pattern_len).max(1) as usize;
            let len = len.min(config.items as usize);
            let mut items: Vec<ItemId> = Vec::with_capacity(len);
            // Inherit a prefix from the previous itemset.
            if !prev.is_empty() {
                let frac = sampling::exponential(&mut rng, config.correlation).min(1.0);
                let inherit = ((frac * len as f64).round() as usize).min(prev.len());
                for _ in 0..inherit {
                    let pick = prev[rng.random_range(0..prev.len())];
                    if !items.contains(&pick) {
                        items.push(pick);
                    }
                }
            }
            // Fill the remainder with fresh random items.
            while items.len() < len {
                let candidate = ItemId(rng.random_range(0..config.items));
                if !items.contains(&candidate) {
                    items.push(candidate);
                }
            }
            prev = items.clone();
            pool.push(PoolEntry {
                items,
                corruption: sampling::clipped_normal(
                    &mut rng,
                    config.corruption_mean,
                    config.corruption_sd,
                    0.0,
                    1.0,
                ),
            });
            weights.push(sampling::exponential(&mut rng, 1.0));
        }
        let cumulative_weights = sampling::cumulative(&weights);

        QuestGenerator {
            config,
            pool,
            cumulative_weights,
            rng,
            next_tid: 0,
        }
    }

    /// The configuration this generator was built with.
    pub fn config(&self) -> &QuestConfig {
        &self.config
    }

    /// Generates the next transaction.  TIDs are sequential from 0.
    pub fn next_transaction(&mut self) -> Transaction {
        let target = sampling::poisson(&mut self.rng, self.config.avg_txn_len).max(1) as usize;
        let target = target.min(self.config.items as usize);
        let mut items: Vec<ItemId> = Vec::with_capacity(target + 4);

        // Up to a bounded number of pool draws; bail out if corruption keeps
        // the transaction starved (can happen with tiny vocabularies).
        let mut attempts = 0usize;
        while items.len() < target && attempts < 8 * target + 16 {
            attempts += 1;
            let entry = &self.pool[sampling::pick_weighted(&mut self.rng, &self.cumulative_weights)];
            // Corrupt: drop items while uniform < corruption level.
            let mut picked: Vec<ItemId> = Vec::with_capacity(entry.items.len());
            for &it in &entry.items {
                if self.rng.random::<f64>() >= entry.corruption {
                    picked.push(it);
                }
            }
            if picked.is_empty() {
                continue;
            }
            let fits = items.len() + picked.len() <= target;
            // Quest rule: if the itemset overflows the transaction, add it
            // anyway half the time, otherwise move on.
            if fits || self.rng.random::<bool>() {
                for it in picked {
                    if !items.contains(&it) {
                        items.push(it);
                    }
                }
            }
        }
        if items.is_empty() {
            // Degenerate fallback: one random item, so every transaction is
            // non-empty (empty transactions carry no information).
            items.push(ItemId(self.rng.random_range(0..self.config.items)));
        }

        let tid = self.next_tid;
        self.next_tid += 1;
        Transaction::new(tid, Itemset::from_items(items))
    }

    /// Generates `n` transactions.
    pub fn take_transactions(&mut self, n: usize) -> Vec<Transaction> {
        (0..n).map(|_| self.next_transaction()).collect()
    }

    /// Generates the full configured database.
    pub fn generate(mut self) -> TransactionDb {
        let n = self.config.transactions;
        TransactionDb::from_transactions(self.take_transactions(n))
    }
}

/// One-shot convenience: build the generator and emit the database.
pub fn generate_db(config: QuestConfig) -> TransactionDb {
    QuestGenerator::new(config).generate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count() {
        let db = generate_db(QuestConfig::tiny());
        assert_eq!(db.len(), 200);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = generate_db(QuestConfig::tiny());
        let b = generate_db(QuestConfig::tiny());
        assert_eq!(a.transactions(), b.transactions());
        let c = generate_db(QuestConfig::tiny().with_seed(8));
        assert_ne!(a.transactions(), c.transactions());
    }

    #[test]
    fn items_stay_in_vocabulary() {
        let cfg = QuestConfig::tiny();
        let db = generate_db(cfg);
        for t in db.transactions() {
            assert!(!t.items.is_empty(), "empty transaction generated");
            for it in t.items.items() {
                assert!(it.0 < cfg.items);
            }
        }
    }

    #[test]
    fn average_length_tracks_t() {
        let cfg = QuestConfig {
            transactions: 2_000,
            items: 1_000,
            avg_txn_len: 10.0,
            avg_pattern_len: 4.0,
            pattern_pool: 200,
            correlation: 0.5,
            corruption_mean: 0.5,
            corruption_sd: 0.1,
            seed: 42,
        };
        let db = generate_db(cfg);
        let total: usize = db.transactions().iter().map(|t| t.items.len()).sum();
        let avg = total as f64 / db.len() as f64;
        // The overflow rule makes lengths drift a little above T; allow a
        // generous band — we care that T is the knob, not the exact moment.
        assert!(
            (6.0..=14.0).contains(&avg),
            "avg transaction length {avg}, expected near 10"
        );
    }

    #[test]
    fn has_frequent_structure() {
        // Planted patterns should make *some* 2-itemsets far more frequent
        // than independence would allow.
        let cfg = QuestConfig {
            transactions: 1_000,
            items: 500,
            avg_txn_len: 8.0,
            avg_pattern_len: 4.0,
            pattern_pool: 50,
            correlation: 0.5,
            corruption_mean: 0.3,
            corruption_sd: 0.1,
            seed: 99,
        };
        let db = generate_db(cfg);
        use std::collections::HashMap;
        let mut pair_counts: HashMap<(ItemId, ItemId), u32> = HashMap::new();
        for t in db.transactions() {
            let items = t.items.items();
            for i in 0..items.len() {
                for j in i + 1..items.len() {
                    *pair_counts.entry((items[i], items[j])).or_insert(0) += 1;
                }
            }
        }
        let max_pair = pair_counts.values().copied().max().unwrap_or(0);
        // Under independence a given pair would occur ~ D * (8/500)^2 ≈ 0.26
        // times; planted patterns should push some pair far above that.
        assert!(max_pair >= 20, "max pair support {max_pair}, no structure");
    }

    #[test]
    fn tid_sequence_is_contiguous() {
        let mut generator = QuestGenerator::new(QuestConfig::tiny());
        let batch1 = generator.take_transactions(5);
        let batch2 = generator.take_transactions(5);
        let tids: Vec<u64> = batch1.iter().chain(&batch2).map(|t| t.tid.0).collect();
        assert_eq!(tids, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn label_format() {
        assert_eq!(QuestConfig::paper_default().label(), "T10.I10.D10K");
        assert_eq!(
            QuestConfig::paper_default().with_transactions(123).label(),
            "T10.I10.D123"
        );
    }
}
