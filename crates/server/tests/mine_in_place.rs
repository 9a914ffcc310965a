//! A served MINE runs the disk cursor at the pinned snapshot.  On a
//! deployment where most rows are tombstoned, both engines answer the
//! exact frequent set of the survivors for every scheme — the threshold
//! against the live rows — and the stats document says what the cursors
//! did: `"mine_cursor"` on an engine, one `"shard_mine_cursor"` cell per
//! shard on the local router.

use bbs_core::Scheme;
use bbs_hash::Md5BloomHasher;
use bbs_server::{Engine, Reply, Request, RequestHandler, Response, ServerConfig, ShardedEngine};
use bbs_shard::ShardedDeployment;
use bbs_storage::diskbbs::DiskDeployment;
use bbs_tdb::{
    FrequentPatternMiner, Itemset, NaiveMiner, SupportThreshold, Transaction, TransactionDb,
};
use std::path::PathBuf;
use std::sync::Arc;

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_mine_in_place_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        DiskDeployment::remove_files(&self.0).ok();
        ShardedDeployment::remove_files(&self.0).ok();
    }
}

/// 600 rows; TIDs 200.. are deleted.  `{41,42}` rides every even row,
/// `{50,51}` only rows that die.
fn rows() -> Vec<(u64, Vec<u32>)> {
    (0..600u64)
        .map(|i| {
            let mut items = vec![(i % 20) as u32, ((i * 7 + 3) % 20) as u32];
            if i.is_multiple_of(2) {
                items.extend([41, 42]);
            }
            if i >= 250 {
                items.extend([50, 51]);
            }
            (i, items)
        })
        .collect()
}

const LIVE: u64 = 200;
/// 10 % of the live rows is 20; of all rows, 60 — above every background
/// item's live support.
const THRESHOLD: SupportThreshold = SupportThreshold::Fraction(0.10);

fn expected() -> Vec<(Vec<u32>, u64)> {
    let mut db = TransactionDb::new();
    for (tid, items) in rows().into_iter().take(LIVE as usize) {
        db.push(Transaction::new(tid, Itemset::from_values(&items)));
    }
    let mined = NaiveMiner::new().mine(&db, THRESHOLD);
    let mut want: Vec<(Vec<u32>, u64)> = mined
        .patterns
        .iter()
        .map(|(items, support)| (items.items().iter().map(|i| i.0).collect(), support))
        .collect();
    want.sort();
    want
}

/// The counters of the `mine_cursor` object (or per-shard column of
/// them) rendered after `key`, in document order.
fn cursor_counters(json: &str, key: &str) -> Vec<Vec<u64>> {
    let at = json
        .find(key)
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    let rest = &json[at + key.len()..];
    let close = if rest.starts_with('[') { ']' } else { '}' };
    let end = rest.find(close).expect("the value ends");
    rest[..end]
        .split('{')
        .skip(1)
        .map(|cell| {
            cell.split(|c: char| !c.is_ascii_digit())
                .filter(|n| !n.is_empty())
                .map(|n| n.parse().expect("counter"))
                .collect()
        })
        .collect()
}

fn check(handler: &impl RequestHandler, stats_key: &str, cells: usize) {
    let insert = handler.handle(&Request::Insert {
        req_id: 0,
        txns: rows(),
    });
    assert!(
        matches!(insert, Response::Ok(Reply::Insert { appended: 600, .. })),
        "{insert:?}"
    );
    let delete = handler.handle(&Request::Delete {
        req_id: 0,
        tids: (LIVE..600).collect(),
    });
    assert!(
        matches!(delete, Response::Ok(Reply::Delete { deleted: 400, .. })),
        "{delete:?}"
    );

    let want = expected();
    assert!(want.len() > 20 && want.contains(&(vec![41, 42], LIVE / 2)));
    for scheme in Scheme::ALL {
        for threads in [1, 2] {
            let req = Request::Mine {
                scheme,
                threshold: THRESHOLD,
                threads,
            };
            let Response::Ok(Reply::Mine { patterns, .. }) = handler.handle(&req) else {
                panic!("{scheme:?} x{threads}: MINE failed");
            };
            for (items, support, approx) in &patterns {
                let exact = want
                    .iter()
                    .find(|(w, _)| w == items)
                    .unwrap_or_else(|| panic!("{scheme:?} x{threads}: {items:?} is not frequent"))
                    .1;
                assert!(
                    if *approx {
                        *support >= exact
                    } else {
                        *support == exact
                    },
                    "{scheme:?} x{threads}: {items:?} at {support}, exactly {exact}"
                );
            }
            assert_eq!(patterns.len(), want.len(), "{scheme:?} x{threads}");
        }
    }

    let Response::Ok(Reply::Stats { json }) = handler.handle(&Request::Stats) else {
        panic!("stats");
    };
    let counters = cursor_counters(&json, stats_key);
    assert_eq!(counters.len(), cells, "{stats_key} in {json}");
    for cell in counters {
        // extends, tau_exits, chunks_skipped, sparse_ands, cache_hits,
        // cache_misses: every shard's readers descended, τ-exited and
        // read pages.
        let [extends, tau_exits, _, _, _, cache_misses] = cell[..] else {
            panic!("six counters: {cell:?}");
        };
        assert!(extends > 0 && tau_exits > 0 && cache_misses > 0, "{cell:?}");
    }
}

#[test]
fn both_engines_mine_the_survivors_in_place_and_report_their_cursors() {
    let cfg = || ServerConfig {
        cache_pages: 128,
        ..ServerConfig::default()
    };
    let single = base("engine");
    let sharded = base("sharded");
    let _g = (Cleanup(single.clone()), Cleanup(sharded.clone()));
    check(
        &*Engine::open(&single, cfg()).expect("open engine"),
        "\"mine_cursor\":",
        1,
    );

    let hasher = Arc::new(Md5BloomHasher::new(4));
    ShardedDeployment::create(&sharded, 3, 1600, hasher, 64).expect("create shards");
    let router = ShardedEngine::open(&sharded, cfg()).expect("open sharded");
    check(&*router, "\"shard_mine_cursor\":", 3);
    let Response::Ok(Reply::Stats { json }) = router.handle(&Request::Stats) else {
        panic!("stats");
    };
    assert!(
        !json.contains("\"mine_cursor\":"),
        "the router itself holds no cursors: {json}"
    );
}
