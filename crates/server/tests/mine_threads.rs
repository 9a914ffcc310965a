//! The wire `MINE` carries `threads: u16` from an untrusted peer.  Both
//! engines resolve it through `resolve_threads`, which caps it at the
//! cores there are; mined results never depend on the worker count, so a
//! hostile `threads = 65535` must answer exactly what `threads = 1` does.

use bbs_core::Scheme;
use bbs_hash::Md5BloomHasher;
use bbs_server::{Engine, Reply, Request, RequestHandler, Response, ServerConfig, ShardedEngine};
use bbs_shard::ShardedDeployment;
use bbs_storage::diskbbs::DiskDeployment;
use bbs_tdb::SupportThreshold;
use std::path::PathBuf;
use std::sync::Arc;

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_mine_threads_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        DiskDeployment::remove_files(&self.0).ok();
        ShardedDeployment::remove_files(&self.0).ok();
    }
}

/// 240 rows over 40 items with planted pairs and triples, so the live
/// alphabet is wide enough that an uncapped request would fan out.
fn rows() -> Vec<(u64, Vec<u32>)> {
    (0..240u64)
        .map(|i| {
            let mut items = vec![(i % 40) as u32, ((i * 7 + 3) % 40) as u32];
            if i % 2 == 0 {
                items.extend([41, 42]);
            }
            if i % 3 == 0 {
                items.extend([43, 44, 45]);
            }
            (i, items)
        })
        .collect()
}

fn mined(
    handler: &impl RequestHandler,
    scheme: Scheme,
    threads: u16,
) -> Vec<(Vec<u32>, u64, bool)> {
    let req = Request::Mine {
        scheme,
        threshold: SupportThreshold::Count(6),
        threads,
    };
    match handler.handle(&req) {
        Response::Ok(Reply::Mine { mut patterns, .. }) => {
            patterns.sort();
            patterns
        }
        other => panic!("MINE x{threads}: {other:?}"),
    }
}

fn check(handler: &impl RequestHandler) {
    let resp = handler.handle(&Request::Insert {
        req_id: 0,
        txns: rows(),
    });
    assert!(
        matches!(resp, Response::Ok(Reply::Insert { appended: 240, .. })),
        "{resp:?}"
    );
    for scheme in Scheme::ALL {
        let serial = mined(handler, scheme, 1);
        assert!(serial.len() > 40, "{scheme:?}: {} patterns", serial.len());
        assert_eq!(mined(handler, scheme, u16::MAX), serial, "{scheme:?}");
    }
}

#[test]
fn a_65535_thread_mine_answers_what_one_thread_does() {
    let cfg = || ServerConfig {
        cache_pages: 128,
        ..ServerConfig::default()
    };
    let single = base("engine");
    let sharded = base("sharded");
    let _g = (Cleanup(single.clone()), Cleanup(sharded.clone()));
    check(&*Engine::open(&single, cfg()).expect("open engine"));

    let hasher = Arc::new(Md5BloomHasher::new(4));
    ShardedDeployment::create(&sharded, 3, 64, hasher, 64).expect("create shards");
    check(&*ShardedEngine::open(&sharded, cfg()).expect("open sharded"));
}
