//! Input generation: everything a workload feeds the system is made here
//! from `--seed`, and the program under test only ever sees the result.
//! The same seed gives the same rows, frames and query pool, byte for byte
//! (see [`Inputs::digest`]).

use bbs_datagen::{generate_db, QuestConfig, WeblogConfig, WeblogGenerator};
use bbs_tdb::Transaction;
use std::collections::HashMap;

/// Signature width `m` and hash count `k` of every deployment: the paper's
/// defaults (EXPERIMENTS.md).
pub const WIDTH: usize = 1600;
pub const HASHES: usize = 4;
/// Itemsets per `count_many` frame.
pub const BATCH: usize = 64;
/// Shards of the scatter deployment.
pub const SHARDS: usize = 4;
/// Sizes that define a scale.  `Full` is what `BENCHMARK.json` gates;
/// `Smoke` walks every phase and check in a few seconds and its timings
/// are never compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    pub fn sizes(self) -> Sizes {
        match self {
            Scale::Full => Sizes {
                base_rows: 16_384,
                tail_rows: 8_192,
                frame_rows: 128,
                delete_frame_tids: 256,
                sessions_per_day: 1_024,
                pool_size: 4_096,
                min_support: 0.004,
            },
            Scale::Smoke => Sizes {
                base_rows: 1_536,
                tail_rows: 512,
                frame_rows: 64,
                delete_frame_tids: 64,
                sessions_per_day: 128,
                pool_size: 256,
                min_support: 0.006,
            },
        }
    }
}

/// Row and frame counts of one workload at one scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Rows built offline before the server starts.
    pub base_rows: usize,
    /// Rows ingested through the server, in frames of `frame_rows`.
    pub tail_rows: usize,
    pub frame_rows: usize,
    /// TIDs per delete frame.
    pub delete_frame_tids: usize,
    /// Weblog sessions per day; the base is `base_rows / sessions` days
    /// and the tail `tail_rows / sessions` days.
    pub sessions_per_day: usize,
    pub pool_size: usize,
    /// Mining threshold as a share of the live rows.  The paper's default
    /// is 0.3 %; at 0.4 % the Quest rows still yield several hundred
    /// patterns and a dozen MINE repetitions per run fit the driver's time
    /// cap.  The smoke scale mines at 0.6 % to stay a smoke test.
    pub min_support: f64,
}

/// Rows per offline `append_batch` (one commit each).
pub const BUILD_BATCH_ROWS: usize = 4_096;

/// One write the benchmark performs: rows to append, or TIDs to tombstone.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    Insert(Vec<Transaction>),
    Delete(Vec<u64>),
}

impl Frame {
    pub fn rows(&self) -> usize {
        match self {
            Frame::Insert(txns) => txns.len(),
            Frame::Delete(_) => 0,
        }
    }
}

/// Which generator a workload draws its rows from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// IBM Quest T10.I10, 10 000 items, insert-only.
    Quest,
    /// Paper §4.8 weblog: 5 000 files, hot 10 %, rotation 10 %, session
    /// length 8, 20 % of the live sessions expiring each day.
    WeblogChurn,
}

pub struct Inputs {
    /// Applied offline, in order, before any server starts.
    pub base: Vec<Frame>,
    /// Sent through the server, in order per writer.
    pub tail: Vec<Frame>,
    /// Query itemsets (sorted item ids): first half ad-hoc subsets of live
    /// rows, second half sibling extensions of shared prefixes in groups
    /// of [`BATCH`] — the miner's candidate shape.
    pub pool: Vec<Vec<u32>>,
    /// The order single `count` calls walk the pool in, and the order
    /// `count_many` frames (consecutive [`BATCH`]-entry chunks of the pool)
    /// are sent in: seeded shuffles, so that any few hundred consecutive
    /// operations are the whole mix in miniature.  Ad-hoc and sibling
    /// queries cost differently (the siblings' slices are the hot ones),
    /// and a loop that walked the pool front to back would measure
    /// whichever half its window happened to cover.
    pub count_order: Vec<usize>,
    pub frame_order: Vec<usize>,
    /// Absolute mining threshold: `min_support` of the rows live at the end.
    pub tau: u64,
    /// Rows live once base and tail are applied.
    pub live: Vec<Transaction>,
    /// FNV-1a over every generated row, frame boundary and pool entry.
    pub digest: u64,
}

/// splitmix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is far
    /// below anything the benchmark resolves.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn item_values(txn: &Transaction) -> impl Iterator<Item = u32> + '_ {
    txn.items.items().iter().map(|i| i.0)
}

pub fn generate(dataset: Dataset, sizes: Sizes, seed: u64) -> Inputs {
    let (base, tail) = match dataset {
        Dataset::Quest => quest_frames(sizes, seed),
        Dataset::WeblogChurn => weblog_frames(sizes, seed),
    };
    let live = live_rows(base.iter().chain(&tail));
    let pool = query_pool(&live, sizes.pool_size, seed);
    let mut rng = Rng::new(seed ^ 0x0bde_0f5e_ed5e_7a11);
    let count_order = shuffled(pool.len(), &mut rng);
    let frame_order = shuffled(pool.len().div_ceil(BATCH), &mut rng);
    let tau = ((live.len() as f64 * sizes.min_support).ceil() as u64).max(2);

    let mut digest = 0xCBF2_9CE4_8422_2325;
    for frame in base.iter().chain(&tail) {
        match frame {
            Frame::Insert(txns) => {
                digest = fnv(digest, 1 + txns.len() as u64);
                for t in txns {
                    digest = fnv(digest, t.tid.0);
                    for v in item_values(t) {
                        digest = fnv(digest, u64::from(v));
                    }
                }
            }
            Frame::Delete(tids) => {
                digest = fnv(digest, u64::MAX - tids.len() as u64);
                for &tid in tids {
                    digest = fnv(digest, tid);
                }
            }
        }
    }
    for q in &pool {
        digest = fnv(digest, q.len() as u64);
        for &v in q {
            digest = fnv(digest, u64::from(v));
        }
    }
    for &i in count_order.iter().chain(&frame_order) {
        digest = fnv(digest, i as u64);
    }
    Inputs {
        base,
        tail,
        pool,
        count_order,
        frame_order,
        tau,
        live,
        digest,
    }
}

/// Fisher–Yates over `0..n`.
fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

fn quest_frames(sizes: Sizes, seed: u64) -> (Vec<Frame>, Vec<Frame>) {
    let total = sizes.base_rows + sizes.tail_rows;
    let db = generate_db(
        QuestConfig::paper_default()
            .with_transactions(total)
            .with_seed(seed),
    );
    let (base, tail) = db.transactions().split_at(sizes.base_rows);
    (
        vec![Frame::Insert(base.to_vec())],
        tail.chunks(sizes.frame_rows)
            .map(|c| Frame::Insert(c.to_vec()))
            .collect(),
    )
}

fn weblog_frames(sizes: Sizes, seed: u64) -> (Vec<Frame>, Vec<Frame>) {
    let per_day = sizes.sessions_per_day;
    let base_days = sizes.base_rows / per_day;
    let tail_days = sizes.tail_rows / per_day;
    let mut generator = WeblogGenerator::new(WeblogConfig {
        churn_rate: 0.2,
        seed,
        ..WeblogConfig::paper_scaled(base_days + tail_days, per_day)
    });
    let (mut base, mut tail) = (Vec::new(), Vec::new());
    while let Some(day) = generator.next_day() {
        // A day's expirations were drawn from the sessions live before it,
        // so they go first.
        if day.day < base_days {
            if !day.expired_tids.is_empty() {
                base.push(Frame::Delete(day.expired_tids));
            }
            base.push(Frame::Insert(day.transactions));
        } else {
            tail.extend(
                day.expired_tids
                    .chunks(sizes.delete_frame_tids)
                    .map(|c| Frame::Delete(c.to_vec())),
            );
            tail.extend(
                day.transactions
                    .chunks(sizes.frame_rows)
                    .map(|c| Frame::Insert(c.to_vec())),
            );
        }
    }
    (base, tail)
}

/// The rows left once `frames` are applied in order, in insertion order.
pub fn live_rows<'a>(frames: impl Iterator<Item = &'a Frame>) -> Vec<Transaction> {
    let mut rows: Vec<Option<Transaction>> = Vec::new();
    let mut by_tid: HashMap<u64, usize> = HashMap::new();
    for frame in frames {
        match frame {
            Frame::Insert(txns) => {
                for t in txns {
                    by_tid.insert(t.tid.0, rows.len());
                    rows.push(Some(t.clone()));
                }
            }
            Frame::Delete(tids) => {
                for tid in tids {
                    if let Some(row) = by_tid.remove(tid) {
                        rows[row] = None;
                    }
                }
            }
        }
    }
    rows.into_iter().flatten().collect()
}

fn query_pool(live: &[Transaction], size: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = Rng::new(seed ^ 0x0051_7E70_0C0F_FEE5);
    let mut pool: Vec<Vec<u32>> = Vec::with_capacity(size);

    // Ad-hoc half: 2–4 items that do occur together in some live row.
    while pool.len() < size / 2 {
        let txn = &live[rng.below(live.len())];
        let want = 2 + rng.below(3);
        if txn.items.len() < want {
            continue;
        }
        let mut picked: Vec<u32> = Vec::with_capacity(want);
        while picked.len() < want {
            let v = txn.items.items()[rng.below(txn.items.len())].0;
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        picked.sort_unstable();
        pool.push(picked);
    }

    // Sibling half: a 2-item prefix from a live row extended by each of
    // BATCH frequent items, one group per frame.
    let mut frequency: HashMap<u32, u32> = HashMap::new();
    for txn in live {
        for v in item_values(txn) {
            *frequency.entry(v).or_insert(0) += 1;
        }
    }
    let mut frequent: Vec<(u32, u32)> = frequency.into_iter().collect();
    frequent.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    frequent.truncate((4 * BATCH).max(8));
    while pool.len() < size {
        let txn = &live[rng.below(live.len())];
        if txn.items.len() < 2 {
            continue;
        }
        let a = txn.items.items()[rng.below(txn.items.len())].0;
        let b = txn.items.items()[rng.below(txn.items.len())].0;
        if a == b {
            continue;
        }
        let start = rng.below(frequent.len());
        let group = (size - pool.len()).min(BATCH);
        let mut added = 0;
        for k in 0..frequent.len() {
            if added == group {
                break;
            }
            let ext = frequent[(start + k) % frequent.len()].0;
            if ext != a && ext != b {
                let mut q = vec![a, b, ext];
                q.sort_unstable();
                pool.push(q);
                added += 1;
            }
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for dataset in [Dataset::Quest, Dataset::WeblogChurn] {
            let a = generate(dataset, Scale::Smoke.sizes(), 2002);
            let b = generate(dataset, Scale::Smoke.sizes(), 2002);
            let c = generate(dataset, Scale::Smoke.sizes(), 7);
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.tail, b.tail);
            assert_eq!(a.pool, b.pool);
            assert_eq!(
                (&a.count_order, &a.frame_order),
                (&b.count_order, &b.frame_order)
            );
            assert_ne!(a.digest, c.digest);
        }
    }

    #[test]
    fn frames_and_pool_have_the_advertised_shape() {
        let sizes = Scale::Smoke.sizes();
        let quest = generate(Dataset::Quest, sizes, 1);
        assert_eq!(quest.live.len(), sizes.base_rows + sizes.tail_rows);
        assert_eq!(quest.tail.len(), sizes.tail_rows / sizes.frame_rows);
        assert!(quest.tail.iter().all(|f| f.rows() == sizes.frame_rows));

        let weblog = generate(Dataset::WeblogChurn, sizes, 1);
        let inserted: usize = weblog
            .base
            .iter()
            .chain(&weblog.tail)
            .map(Frame::rows)
            .sum();
        assert_eq!(inserted, sizes.base_rows + sizes.tail_rows);
        assert!(weblog.live.len() < inserted / 2, "churn must expire rows");
        assert!(weblog
            .tail
            .iter()
            .any(|f| matches!(f, Frame::Delete(t) if !t.is_empty())));

        for inputs in [&quest, &weblog] {
            assert_eq!(inputs.pool.len(), sizes.pool_size);
            let mut order = inputs.count_order.clone();
            order.sort_unstable();
            assert!(
                order.iter().copied().eq(0..sizes.pool_size),
                "a permutation"
            );
            assert_eq!(inputs.frame_order.len(), sizes.pool_size / BATCH);
            for q in &inputs.pool {
                assert!((2..=4).contains(&q.len()));
                assert!(q.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            }
            // Sibling groups share their prefix across a whole frame.
            let siblings = &inputs.pool[sizes.pool_size / 2..][..BATCH];
            let shared = siblings[0]
                .iter()
                .filter(|v| siblings.iter().all(|q| q.contains(v)))
                .count();
            assert_eq!(shared, 2);
        }
    }
}
