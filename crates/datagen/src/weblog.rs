//! The dynamic web-server-log workload of §4.8.
//!
//! The paper evaluates dynamic databases on a web-server access log
//! (reference \[10\]): 5000 files on the server, where each day 10 % of the
//! previous day's "hot" files turn cold, and the database grows day by day
//! (`D_0` is yesterday's log; `D_1 … D_n` are appended batches).
//!
//! The original trace is not available, so this module generates a synthetic
//! equivalent with the stated knobs: a rotating hot set drives a skewed
//! reference stream, day boundaries partition the growth, and each session
//! (transaction) requests a handful of files.  The experiment this feeds
//! (Fig. 12) measures *incremental update cost*, which depends only on the
//! growth pattern and the skew — both reproduced here.

use crate::sampling;
use bbs_tdb::{ItemId, Itemset, Transaction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the synthetic web-log workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeblogConfig {
    /// Number of files on the server (the item vocabulary).  Paper: 5000.
    pub files: u32,
    /// Fraction of files that are "hot" on any given day.
    pub hot_fraction: f64,
    /// Fraction of the hot set replaced each day.  Paper: 10 %.
    pub daily_rotation: f64,
    /// Probability that a single request hits the hot set.
    pub hot_hit_probability: f64,
    /// Number of days (batches) to generate, including day 0.
    pub days: usize,
    /// Sessions (transactions) per day.
    pub sessions_per_day: usize,
    /// Average files requested per session.
    pub avg_session_len: f64,
    /// Fraction of the previously live sessions that expire (are deleted
    /// from the index) each day.  `0.0` reproduces the paper's pure-growth
    /// log; a positive rate turns the workload dynamic: old sessions are
    /// tombstoned as new ones arrive, so the live set churns instead of
    /// only growing.
    pub churn_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl WeblogConfig {
    /// Paper-shaped defaults, scaled down from 6.55 M total transactions to
    /// a laptop-friendly volume while keeping all the stated ratios.
    pub fn paper_scaled(days: usize, sessions_per_day: usize) -> Self {
        WeblogConfig {
            files: 5_000,
            hot_fraction: 0.1,
            daily_rotation: 0.1,
            hot_hit_probability: 0.8,
            days,
            sessions_per_day,
            avg_session_len: 8.0,
            churn_rate: 0.0,
            seed: 1010,
        }
    }

    /// A small configuration for unit tests.
    pub fn tiny() -> Self {
        WeblogConfig {
            files: 100,
            hot_fraction: 0.1,
            daily_rotation: 0.1,
            hot_hit_probability: 0.8,
            days: 3,
            sessions_per_day: 50,
            avg_session_len: 5.0,
            churn_rate: 0.0,
            seed: 3,
        }
    }
}

/// One day's batch of sessions.
#[derive(Debug, Clone)]
pub struct DayBatch {
    /// Day index (0-based).
    pub day: usize,
    /// The day's transactions, with globally increasing TIDs.
    pub transactions: Vec<Transaction>,
    /// The files that were hot while this batch was generated.
    pub hot_files: Vec<ItemId>,
    /// TIDs of previously live sessions that expired this day (empty on
    /// day 0 and whenever `churn_rate` is zero).  A driver feeding an
    /// index deletes these alongside inserting `transactions`.
    pub expired_tids: Vec<u64>,
}

/// Generates the day-partitioned web-log workload.
pub struct WeblogGenerator {
    config: WeblogConfig,
    rng: StdRng,
    hot: Vec<ItemId>,
    live: Vec<u64>,
    day: usize,
    next_tid: u64,
}

impl WeblogGenerator {
    /// Creates the generator and draws the initial hot set.
    ///
    /// # Panics
    /// Panics on a degenerate configuration (no files, empty hot set).
    pub fn new(config: WeblogConfig) -> Self {
        assert!(config.files > 0, "need at least one file");
        let hot_count = ((config.files as f64 * config.hot_fraction).round() as usize).max(1);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut hot: Vec<ItemId> = Vec::with_capacity(hot_count);
        while hot.len() < hot_count {
            let f = ItemId(rng.random_range(0..config.files));
            if !hot.contains(&f) {
                hot.push(f);
            }
        }
        WeblogGenerator {
            config,
            rng,
            hot,
            live: Vec::new(),
            day: 0,
            next_tid: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &WeblogConfig {
        &self.config
    }

    /// Current hot set (changes after every [`WeblogGenerator::next_day`]).
    pub fn hot_files(&self) -> &[ItemId] {
        &self.hot
    }

    fn rotate_hot(&mut self) {
        let replace = ((self.hot.len() as f64 * self.config.daily_rotation).round() as usize)
            .min(self.hot.len());
        for _ in 0..replace {
            let victim = self.rng.random_range(0..self.hot.len());
            // Replace with a currently cold file.
            loop {
                let f = ItemId(self.rng.random_range(0..self.config.files));
                if !self.hot.contains(&f) {
                    self.hot[victim] = f;
                    break;
                }
            }
        }
    }

    /// Draws this day's expirations: `churn_rate` of the live sessions,
    /// removed from the live set in one swap-remove pass (order within
    /// the live set carries no meaning).
    fn expire_sessions(&mut self) -> Vec<u64> {
        let n = ((self.live.len() as f64 * self.config.churn_rate).round() as usize)
            .min(self.live.len());
        let mut expired = Vec::with_capacity(n);
        for _ in 0..n {
            let victim = self.rng.random_range(0..self.live.len());
            expired.push(self.live.swap_remove(victim));
        }
        expired.sort_unstable();
        expired
    }

    /// TIDs of the sessions still live (inserted and not yet expired).
    pub fn live_tids(&self) -> &[u64] {
        &self.live
    }

    fn next_session(&mut self) -> Transaction {
        let len = sampling::poisson(&mut self.rng, self.config.avg_session_len).max(1) as usize;
        let len = len.min(self.config.files as usize);
        let mut items: Vec<ItemId> = Vec::with_capacity(len);
        let mut attempts = 0usize;
        while items.len() < len && attempts < 16 * len + 32 {
            attempts += 1;
            let f = if self.rng.random::<f64>() < self.config.hot_hit_probability {
                self.hot[self.rng.random_range(0..self.hot.len())]
            } else {
                ItemId(self.rng.random_range(0..self.config.files))
            };
            if !items.contains(&f) {
                items.push(f);
            }
        }
        let tid = self.next_tid;
        self.next_tid += 1;
        Transaction::new(tid, Itemset::from_items(items))
    }

    /// Generates the next day's batch (rotating the hot set first, except
    /// for day 0).  Returns `None` once the configured number of days has
    /// been produced.
    pub fn next_day(&mut self) -> Option<DayBatch> {
        if self.day >= self.config.days {
            return None;
        }
        let mut expired_tids = Vec::new();
        if self.day > 0 {
            self.rotate_hot();
            if self.config.churn_rate > 0.0 {
                expired_tids = self.expire_sessions();
            }
        }
        let transactions: Vec<Transaction> = (0..self.config.sessions_per_day)
            .map(|_| self.next_session())
            .collect();
        self.live.extend(transactions.iter().map(|t| t.tid.0));
        let batch = DayBatch {
            day: self.day,
            transactions,
            hot_files: self.hot.clone(),
            expired_tids,
        };
        self.day += 1;
        Some(batch)
    }

    /// Generates all remaining days.
    pub fn all_days(mut self) -> Vec<DayBatch> {
        let mut out = Vec::with_capacity(self.config.days);
        while let Some(b) = self.next_day() {
            out.push(b);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn produces_configured_days_and_sessions() {
        let days = WeblogGenerator::new(WeblogConfig::tiny()).all_days();
        assert_eq!(days.len(), 3);
        for (i, d) in days.iter().enumerate() {
            assert_eq!(d.day, i);
            assert_eq!(d.transactions.len(), 50);
        }
    }

    #[test]
    fn tids_increase_across_days() {
        let days = WeblogGenerator::new(WeblogConfig::tiny()).all_days();
        let tids: Vec<u64> = days
            .iter()
            .flat_map(|d| d.transactions.iter().map(|t| t.tid.0))
            .collect();
        assert_eq!(tids, (0..150).collect::<Vec<u64>>());
    }

    #[test]
    fn hot_set_rotates_but_mostly_persists() {
        let cfg = WeblogConfig {
            files: 1000,
            hot_fraction: 0.1,
            daily_rotation: 0.1,
            ..WeblogConfig::tiny()
        };
        let mut generator = WeblogGenerator::new(cfg);
        let d0 = generator.next_day().expect("day 0");
        let d1 = generator.next_day().expect("day 1");
        let h0: HashSet<ItemId> = d0.hot_files.iter().copied().collect();
        let h1: HashSet<ItemId> = d1.hot_files.iter().copied().collect();
        assert_eq!(h0.len(), 100);
        let stayed = h0.intersection(&h1).count();
        // Exactly 10 % replaced (rotation picks victims with replacement, so
        // allow a small band).
        assert!((85..=95).contains(&stayed), "stayed {stayed}");
    }

    #[test]
    fn traffic_is_skewed_toward_hot_files() {
        let cfg = WeblogConfig::tiny();
        let mut generator = WeblogGenerator::new(cfg);
        let d0 = generator.next_day().expect("day 0");
        let hot: HashSet<ItemId> = d0.hot_files.iter().copied().collect();
        let mut hot_refs = 0usize;
        let mut total = 0usize;
        for t in &d0.transactions {
            for it in t.items.items() {
                total += 1;
                if hot.contains(it) {
                    hot_refs += 1;
                }
            }
        }
        let frac = hot_refs as f64 / total as f64;
        // 80 % of draws target the hot set (plus chance cold hits), but
        // within-session dedup against a 10-file hot set suppresses repeats,
        // so the realised share lands lower; it must still dominate the 10 %
        // a uniform reference stream would give.
        assert!(frac > 0.4, "hot fraction {frac}");
    }

    #[test]
    fn sessions_within_vocabulary_and_nonempty() {
        let cfg = WeblogConfig::tiny();
        for day in WeblogGenerator::new(cfg).all_days() {
            for t in &day.transactions {
                assert!(!t.items.is_empty());
                assert!(t.items.items().iter().all(|f| f.0 < cfg.files));
            }
        }
    }

    #[test]
    fn churn_expires_live_sessions_each_day() {
        let cfg = WeblogConfig {
            churn_rate: 0.2,
            ..WeblogConfig::tiny()
        };
        let mut generator = WeblogGenerator::new(cfg);
        let d0 = generator.next_day().expect("day 0");
        assert!(d0.expired_tids.is_empty(), "nothing can expire on day 0");
        let live_after_d0: HashSet<u64> = generator.live_tids().iter().copied().collect();
        let d1 = generator.next_day().expect("day 1");
        // 20% of day 0's 50 sessions expire on day 1, all drawn from the
        // previously live set, sorted and unique.
        assert_eq!(d1.expired_tids.len(), 10);
        let expired: HashSet<u64> = d1.expired_tids.iter().copied().collect();
        assert_eq!(expired.len(), 10, "expirations are unique");
        assert!(expired.is_subset(&live_after_d0));
        // The live set dropped the expired TIDs and gained day 1's.
        let live: HashSet<u64> = generator.live_tids().iter().copied().collect();
        assert!(live.is_disjoint(&expired));
        for t in &d1.transactions {
            assert!(live.contains(&t.tid.0));
        }
        assert_eq!(live.len(), 50 - 10 + 50);
    }

    #[test]
    fn zero_churn_never_expires() {
        for day in WeblogGenerator::new(WeblogConfig::tiny()).all_days() {
            assert!(day.expired_tids.is_empty());
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = WeblogGenerator::new(WeblogConfig::tiny()).all_days();
        let b = WeblogGenerator::new(WeblogConfig::tiny()).all_days();
        assert_eq!(a[2].transactions, b[2].transactions);
    }
}
