//! Correctness oracles, all computed harness-side from the generated
//! inputs and all run outside the timed sections.
//!
//! * every count reply must be **≥ the exact support** (Lemmas 1–4:
//!   `CountItemSet` never undercounts) — [`ExactIndex`];
//! * on a quiesced deployment it must **equal the in-memory BBS estimate**
//!   over the same live rows (the cross-tier bit-for-bit contract) —
//!   [`Expected::estimate`];
//! * every mined pattern set must equal FP-growth's exact frequent set —
//!   [`Expected::patterns_match`];
//! * counts answered *while* the writer commits are checked against the
//!   exact support at the epoch each reply names — [`check_reads_under_write`].

use crate::gen::{Frame, Inputs, HASHES, WIDTH};
use bbs_core::Bbs;
use bbs_fptree::FpGrowthMiner;
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_tdb::{
    FrequentPatternMiner, IoStats, ItemId, Itemset, SupportThreshold, Transaction, TransactionDb,
};
use std::collections::HashMap;
use std::sync::Arc;

pub fn hasher() -> Arc<dyn ItemHasher> {
    Arc::new(Md5BloomHasher::new(HASHES))
}

/// Inverted index item → ascending row ids; support is a list intersection.
pub struct ExactIndex {
    postings: HashMap<u32, Vec<u32>>,
}

impl ExactIndex {
    pub fn build(rows: &[Transaction]) -> ExactIndex {
        let mut postings: HashMap<u32, Vec<u32>> = HashMap::new();
        for (row, txn) in rows.iter().enumerate() {
            for item in txn.items.items() {
                postings.entry(item.0).or_default().push(row as u32);
            }
        }
        ExactIndex { postings }
    }

    pub fn support(&self, items: &[u32]) -> u64 {
        let mut lists: Vec<&[u32]> = Vec::with_capacity(items.len());
        for item in items {
            match self.postings.get(item) {
                Some(list) => lists.push(list),
                None => return 0,
            }
        }
        lists.sort_by_key(|l| l.len());
        let Some((first, rest)) = lists.split_first() else {
            return 0;
        };
        first
            .iter()
            .filter(|row| rest.iter().all(|l| l.binary_search(row).is_ok()))
            .count() as u64
    }
}

/// What the quiesced deployment must answer once base and tail are applied.
pub struct Expected {
    /// Exact support of each pool entry.
    pub exact: Vec<u64>,
    /// In-memory `Bbs` estimate of each pool entry.
    pub estimate: Vec<u64>,
    /// Exact frequent set at the workload's threshold.
    pub frequent: HashMap<Vec<u32>, u64>,
}

impl Expected {
    pub fn build(inputs: &Inputs) -> Expected {
        let index = ExactIndex::build(&inputs.live);
        let exact = inputs.pool.iter().map(|q| index.support(q)).collect();

        let db = TransactionDb::from_transactions(inputs.live.iter().cloned());
        let mut io = IoStats::new();
        let bbs = Bbs::build(WIDTH, hasher(), &db, &mut io);
        let estimate = inputs
            .pool
            .iter()
            .map(|q| bbs.est_count(&Itemset::from_values(q), &mut io))
            .collect();

        let mined = FpGrowthMiner::new().mine(&db, SupportThreshold::Count(inputs.tau));
        let frequent = mined
            .patterns
            .iter()
            .map(|(items, support)| (items.items().iter().map(|i| i.0).collect(), support))
            .collect();
        Expected {
            exact,
            estimate,
            frequent,
        }
    }

    /// A quiesced count reply for pool entry `idx`.
    pub fn count_ok(&self, idx: usize, support: u64) -> bool {
        support >= self.exact[idx] && support == self.estimate[idx]
    }

    /// A mined result: exactly the frequent itemsets, exact supports where
    /// the miner claims exactness, certified upper bounds elsewhere.
    pub fn patterns_match(&self, mined: &[(Vec<u32>, u64, bool)]) -> bool {
        mined.len() == self.frequent.len()
            && mined.iter().all(|(items, support, approximate)| {
                self.frequent.get(items).is_some_and(|&exact| {
                    if *approximate {
                        *support >= exact
                    } else {
                        *support == exact
                    }
                })
            })
    }
}

/// One count answered while the writer was committing.
#[derive(Debug, Clone, Copy)]
pub struct ReadUnderWrite {
    pub pool_idx: usize,
    pub support: u64,
    pub epoch: u64,
}

/// Exact supports of the pool entries, maintained row by row as frames
/// are applied.
struct RunningSupport<'a> {
    pool: &'a [Vec<u32>],
    /// Pool entries by smallest item: a row can only contain an entry
    /// whose smallest item it contains.
    by_first: HashMap<u32, Vec<usize>>,
    by_tid: HashMap<u64, &'a Transaction>,
    support: Vec<u64>,
}

impl<'a> RunningSupport<'a> {
    fn new(pool: &'a [Vec<u32>]) -> Self {
        let mut by_first: HashMap<u32, Vec<usize>> = HashMap::new();
        for (idx, q) in pool.iter().enumerate() {
            by_first.entry(q[0]).or_default().push(idx);
        }
        RunningSupport {
            pool,
            by_first,
            by_tid: HashMap::new(),
            support: vec![0; pool.len()],
        }
    }

    fn contained_in(&self, txn: &Transaction) -> Vec<usize> {
        let mut hits = Vec::new();
        for item in txn.items.items() {
            for &idx in self.by_first.get(&item.0).map_or(&[][..], Vec::as_slice) {
                if self.pool[idx]
                    .iter()
                    .all(|&v| txn.items.contains(ItemId(v)))
                {
                    hits.push(idx);
                }
            }
        }
        hits
    }

    fn apply(&mut self, frame: &'a Frame) {
        match frame {
            Frame::Insert(txns) => {
                for txn in txns {
                    self.by_tid.insert(txn.tid.0, txn);
                    for idx in self.contained_in(txn) {
                        self.support[idx] += 1;
                    }
                }
            }
            Frame::Delete(tids) => {
                for tid in tids {
                    if let Some(txn) = self.by_tid.remove(tid) {
                        for idx in self.contained_in(txn) {
                            self.support[idx] -= 1;
                        }
                    }
                }
            }
        }
    }
}

/// Checks every concurrent read against the exact support at its epoch.
///
/// One writer sends the tail frames in order and each acknowledgement
/// names the epoch that first shows the frame, so the deployment's state
/// at epoch `E` is the base plus every tail frame acknowledged at an epoch
/// `≤ E`.  The reads are replayed in epoch order against running exact
/// supports.  Returns how many replies undercounted.
pub fn check_reads_under_write(
    inputs: &Inputs,
    ack_epochs: &[u64],
    reads: &mut [ReadUnderWrite],
) -> u64 {
    assert_eq!(ack_epochs.len(), inputs.tail.len());
    let mut running = RunningSupport::new(&inputs.pool);
    for frame in &inputs.base {
        running.apply(frame);
    }
    reads.sort_by_key(|r| r.epoch);
    let mut next_write = 0;
    let mut undercounts = 0;
    for read in reads.iter() {
        while next_write < inputs.tail.len() && ack_epochs[next_write] <= read.epoch {
            running.apply(&inputs.tail[next_write]);
            next_write += 1;
        }
        if read.support < running.support[read.pool_idx] {
            undercounts += 1;
        }
    }
    undercounts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Dataset, Scale};

    fn brute_force(rows: &[Transaction], items: &[u32]) -> u64 {
        rows.iter()
            .filter(|t| items.iter().all(|&v| t.items.contains(ItemId(v))))
            .count() as u64
    }

    #[test]
    fn exact_index_matches_brute_force() {
        let inputs = generate(Dataset::Quest, Scale::Smoke.sizes(), 11);
        let index = ExactIndex::build(&inputs.live);
        for q in inputs.pool.iter().step_by(3) {
            assert_eq!(index.support(q), brute_force(&inputs.live, q), "{q:?}");
        }
        assert_eq!(index.support(&[u32::MAX]), 0);
        assert_eq!(index.support(&[]), 0);
    }

    #[test]
    fn running_support_tracks_inserts_and_deletes() {
        let inputs = generate(Dataset::WeblogChurn, Scale::Smoke.sizes(), 5);
        let mut running = RunningSupport::new(&inputs.pool);
        for frame in inputs.base.iter().chain(&inputs.tail) {
            running.apply(frame);
        }
        let index = ExactIndex::build(&inputs.live);
        for (idx, q) in inputs.pool.iter().enumerate() {
            assert_eq!(running.support[idx], index.support(q), "{q:?}");
        }
    }

    #[test]
    fn expected_estimates_never_undercount_and_oracle_flags_wrong_answers() {
        let inputs = generate(Dataset::Quest, Scale::Smoke.sizes(), 3);
        let expected = Expected::build(&inputs);
        for idx in 0..inputs.pool.len() {
            assert!(expected.estimate[idx] >= expected.exact[idx]);
            assert!(expected.count_ok(idx, expected.estimate[idx]));
            assert!(!expected.count_ok(idx, expected.estimate[idx] + 1));
        }
        assert!(!expected.frequent.is_empty());
        let mut mined: Vec<(Vec<u32>, u64, bool)> = expected
            .frequent
            .iter()
            .map(|(items, &s)| (items.clone(), s, false))
            .collect();
        assert!(expected.patterns_match(&mined));
        mined[0].1 += 1;
        assert!(!expected.patterns_match(&mined));
        mined[0].2 = true; // a certified upper bound may exceed the exact support
        assert!(expected.patterns_match(&mined));
        mined.pop();
        assert!(!expected.patterns_match(&mined));
    }
}
