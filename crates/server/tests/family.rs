//! The served open adopts the hash family a base records: whatever
//! family it would lay a new base out with, an existing one is counted,
//! and reported to coordinators, under its own.

use bbs_hash::{Md5BloomHasher, ModuloHasher};
use bbs_server::{Engine, Reply, Request, RequestHandler, Response, ServerConfig, ShardedEngine};
use bbs_storage::DiskDeployment;
use bbs_tdb::{Itemset, Transaction};
use std::path::PathBuf;
use std::sync::Arc;

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_served_family_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        DiskDeployment::remove_files(&self.0).ok();
    }
}

fn cfg() -> ServerConfig {
    ServerConfig {
        width: 64,
        cache_pages: 64,
        ..ServerConfig::default()
    }
}

fn txns() -> Vec<Transaction> {
    (0..80u64)
        .map(|i| {
            let items = [(i % 7) as u32, 10 + (i % 5) as u32, 20 + (i % 3) as u32];
            Transaction::new(i, Itemset::from_values(&items))
        })
        .collect()
}

/// The hash family a snapshot pin reports.
fn pinned_family(engine: &dyn RequestHandler) -> String {
    let pin = Request::CountManyAt {
        epoch: None,
        itemsets: vec![],
    };
    match engine.handle(&pin) {
        Response::Ok(Reply::CountsAt { hasher, .. }) => hasher,
        other => panic!("pin: {other:?}"),
    }
}

#[test]
fn a_base_laid_out_modulo_is_served_modulo() {
    let b = base("modulo");
    let _g = Cleanup(b.clone());
    let engine = Engine::open_with(&b, cfg(), Arc::new(ModuloHasher)).expect("lay out");
    let wire: Vec<(u64, Vec<u32>)> = txns()
        .iter()
        .map(|t| (t.tid.0, t.items.items().iter().map(|i| i.0).collect()))
        .collect();
    assert!(matches!(
        engine.insert_with_id(1, &wire),
        Response::Ok(Reply::Insert { appended: 80, .. })
    ));
    engine.join();
    drop(engine);

    let engine = Engine::open(&b, cfg()).expect("reopen");
    assert_eq!(pinned_family(&*engine), "mod/1");
    engine.join();
}

#[test]
fn a_served_count_never_falls_below_the_exact_support() {
    let b = base("md5_3");
    let _g = Cleanup(b.clone());
    let rows = txns();
    {
        let hasher = Arc::new(Md5BloomHasher::new(3));
        let mut dep = DiskDeployment::open(&b, 64, hasher, 64).expect("lay out at md5/3");
        dep.append_batch(&rows).expect("ingest");
    }
    let server = ShardedEngine::open(&b, cfg()).expect("serve");
    assert_eq!(pinned_family(&*server.engines()[0]), "md5/3");
    for item in 0..23u32 {
        let exact = rows
            .iter()
            .filter(|t| t.items.contains(item.into()))
            .count() as u64;
        let count = Request::CountMany {
            itemsets: vec![vec![item]],
        };
        match server.handle(&count) {
            Response::Ok(Reply::CountMany { supports, .. }) => {
                assert!(supports[0] >= exact, "item {item}: {supports:?} < {exact}")
            }
            other => panic!("count: {other:?}"),
        }
    }
    server.join();
}
