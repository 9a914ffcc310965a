//! How a router over N > 1 partitions merges what its nodes record: a
//! refused write is counted once, where the client's `Overloaded` is
//! made, and the measured FPR is the worst node's.

use bbs_hash::Md5BloomHasher;
use bbs_server::{
    maintain_action, Reply, Request, RequestHandler, Response, ServerConfig, ShardedEngine,
};
use bbs_storage::Deployment;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        Deployment::remove_files(&self.0).ok();
    }
}

/// A fresh directory of two partitions at width 64, opened as a router.
fn two_shards(name: &str) -> (Arc<ShardedEngine>, Cleanup) {
    let mut dir = std::env::temp_dir();
    dir.push(format!("bbs_stats_merge_{}_{}", std::process::id(), name));
    let guard = Cleanup(dir.clone());
    Deployment::create(&dir, 2, 64, Arc::new(Md5BloomHasher::new(4)), 64).expect("create");
    let cfg = ServerConfig {
        width: 64,
        cache_pages: 64,
        ..ServerConfig::default()
    };
    (ShardedEngine::open(&dir, cfg).expect("open"), guard)
}

fn stats(handler: &dyn RequestHandler) -> String {
    match handler.handle(&Request::Stats) {
        Response::Ok(Reply::Stats { json }) => json,
        other => panic!("stats: {other:?}"),
    }
}

#[test]
fn a_refused_write_is_counted_once_by_the_router() {
    let (router, _g) = two_shards("overloaded");
    RequestHandler::begin_drain(&*router.engines()[0]);
    let insert = Request::Insert {
        req_id: 1,
        txns: (0..8).map(|tid| (tid, vec![1, 2])).collect(),
    };
    assert_eq!(router.handle(&insert), Response::Overloaded);
    let json = stats(&*router);
    assert!(json.contains("\"overloaded\":1,"), "{json}");
    for engine in router.engines() {
        assert_eq!(engine.metrics().overloaded.load(Ordering::Relaxed), 0);
    }
    router.join();
}

#[test]
fn the_measured_fpr_is_the_worst_nodes() {
    let (router, _g) = two_shards("fpr");
    let txns: Vec<(u64, Vec<u32>)> = (0..400u64)
        .map(|tid| {
            let items = (0..8)
                .map(|k| ((tid * (7 + 2 * k) + k) % 120) as u32)
                .collect();
            (tid, items)
        })
        .collect();
    assert!(matches!(
        router.handle(&Request::Insert { req_id: 0, txns }),
        Response::Ok(Reply::Insert { appended: 400, .. })
    ));
    let probe = Request::Maintain {
        action: maintain_action::PROBE_FPR,
        arg: 256,
    };
    let Response::Ok(Reply::Maintain { fpr_bits, .. }) = router.handle(&probe) else {
        panic!("probe-fpr is answered");
    };
    let fpr = f64::from_bits(fpr_bits);
    assert!(fpr > 0.0, "width 64 over 400 rows of 8 items collides");
    let json = stats(&*router);
    let at = json.find("\"shard_fpr\":[").expect("shard_fpr") + 13;
    let cells = &json[at..at + json[at..].find(']').expect("column end")];
    let worst = cells
        .split(',')
        .max_by(|a, b| a.parse::<f64>().unwrap().total_cmp(&b.parse().unwrap()));
    assert_eq!(worst, Some(format!("{fpr:.6}").as_str()), "{json}");
    assert!(
        json.contains(&format!("\"last_measured_fpr\":{fpr:.6},")),
        "{json}"
    );
    router.join();
}
