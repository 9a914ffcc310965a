//! Known answers for the filtering phase.
//!
//! The expected values below were captured from `run_filter` as it stood
//! before the two depth-first enumerators were merged into one walk over
//! [`bbs_core::CountSource`]: every output bucket (as a length plus a
//! digest of its canonical sorted contents) and every filter-phase counter,
//! for all four schemes, on the paper's Table 1 fixture and on one seeded
//! Quest sample.  A change to the enumerator that moves a pattern between
//! buckets, changes a reported count, or counts one more or one fewer
//! candidate fails here — bit for bit, not just "still a superset".

use bbs_core::{run_filter, run_filter_threaded, Bbs, FilterKind, FilterOutput};
use bbs_datagen::{generate_db, QuestConfig};
use bbs_hash::{Md5BloomHasher, ModuloHasher};
use bbs_tdb::{IoStats, Itemset, Transaction, TransactionDb};
use std::sync::Arc;

/// `(len, digest)` of one bucket: FNV-1a over the sorted `(items, count)`
/// pairs, so ordering differences between runs do not matter but any
/// difference in content does.
fn bucket(mut entries: Vec<(Itemset, u64)>) -> (usize, u64) {
    entries.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (items, count) in &entries {
        eat(items.len() as u64);
        for item in items.items() {
            eat(item.value());
        }
        eat(*count);
    }
    (entries.len(), h)
}

/// Everything the filter phase reports, in comparable form:
/// `[frequent, approx, uncertain]` buckets and
/// `[candidates, false_drops, certified, bbs_counts]`.
type Answer = ([(usize, u64); 3], [u64; 4]);

fn answer(out: &FilterOutput) -> Answer {
    let set = |p: &bbs_tdb::PatternSet| bucket(p.iter().map(|(s, c)| (s.clone(), c)).collect());
    (
        [
            set(&out.frequent),
            set(&out.approx),
            bucket(out.uncertain.clone()),
        ],
        [
            out.stats.candidates,
            out.stats.false_drops,
            out.stats.certified,
            out.stats.bbs_counts,
        ],
    )
}

/// The four schemes as `run_filter` arguments, in the paper's order:
/// SFS, SFP, DFS, DFP.
const SCHEMES: [(FilterKind, bool); 4] = [
    (FilterKind::Single, false),
    (FilterKind::Single, true),
    (FilterKind::Dual, false),
    (FilterKind::Dual, true),
];

fn check(name: &str, bbs: &Bbs, db: &TransactionDb, tau: u64, want: [Answer; 4]) {
    for ((kind, probe), want) in SCHEMES.into_iter().zip(want) {
        let db = probe.then_some(db);
        let got = answer(&run_filter(bbs, kind, db, tau));
        assert_eq!(got, want, "{name} {kind:?} probe={probe}");
        // The thread count is not part of the answer.
        let threaded = answer(&run_filter_threaded(bbs, kind, db, tau, 3));
        assert_eq!(threaded, want, "{name} {kind:?} probe={probe} x3");
    }
}

#[test]
fn paper_fixture_known_answers() {
    let set = |vals: &[u32]| Itemset::from_values(vals);
    let db = TransactionDb::from_transactions(vec![
        Transaction::new(100, set(&[0, 1, 2, 3, 4, 5, 14, 15])),
        Transaction::new(200, set(&[1, 2, 3, 5, 6, 7])),
        Transaction::new(300, set(&[1, 5, 14, 15])),
        Transaction::new(400, set(&[0, 1, 2, 7])),
        Transaction::new(500, set(&[1, 2, 5, 6, 11, 15])),
    ]);
    let bbs = Bbs::build(8, Arc::new(ModuloHasher), &db, &mut IoStats::new());
    check("paper", &bbs, &db, 3, PAPER);
}

#[test]
fn quest_sample_known_answers() {
    let db = generate_db(QuestConfig::tiny().with_transactions(400).with_seed(14));
    let bbs = Bbs::build(
        96,
        Arc::new(Md5BloomHasher::new(3)),
        &db,
        &mut IoStats::new(),
    );
    check("quest", &bbs, &db, 12, QUEST);
}

/// The digest of an empty bucket (the FNV-1a offset basis).
const EMPTY: (usize, u64) = (0, 0xcbf2_9ce4_8422_2325);

const PAPER: [Answer; 4] = [
    // SFS
    (
        [EMPTY, EMPTY, (511, 0xb00f_7067_89fe_ba00)],
        [511, 0, 0, 513],
    ),
    // SFP
    ([(11, 0x8771_be6c_0dc0_8542), EMPTY, EMPTY], [51, 40, 0, 53]),
    // DFS
    (
        [
            (8, 0xd6b2_8c80_85d5_93ed),
            (1, 0x3a76_637d_301a_b36c),
            (408, 0xbef3_6275_9007_c3e9),
        ],
        [422, 5, 9, 424],
    ),
    // DFP
    (
        [
            (10, 0x0b97_0f9c_073a_d5ed),
            (1, 0x3a76_637d_301a_b36c),
            EMPTY,
        ],
        [51, 40, 9, 53],
    ),
];

const QUEST: [Answer; 4] = [
    // SFS
    (
        [EMPTY, EMPTY, (1153, 0xd9a1_3a1c_cdc5_34b6)],
        [1153, 0, 0, 8407],
    ),
    // SFP
    (
        [(1059, 0xf329_b809_1b5e_ee34), EMPTY, EMPTY],
        [1139, 80, 0, 7748],
    ),
    // DFS
    (
        [
            (507, 0x2596_c5e0_d459_08e5),
            (164, 0xf410_7c1c_be3d_b049),
            (482, 0x45fe_fe3e_0895_2907),
        ],
        [1153, 0, 671, 8407],
    ),
    // DFP
    (
        [
            (850, 0xb604_f8e4_127c_8fa4),
            (209, 0x020d_f2a2_d6c5_8b29),
            EMPTY,
        ],
        [1139, 80, 733, 7748],
    ),
];
