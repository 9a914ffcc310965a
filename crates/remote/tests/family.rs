//! A coordinator checks the hash family its shards serve against the one
//! its topology pins, and a shard serves the family its base records: a
//! shard ingested at `md5/3` and served through `Engine::open` is refused
//! at connect by a topology that pins `md5/4`, naming both.

use bbs_hash::Md5BloomHasher;
use bbs_remote::{CoordinatorEngine, CoordinatorOptions, NodeSpec, Topology, TOPOLOGY_VERSION};
use bbs_server::{serve, Bind, Engine, ServerConfig};
use bbs_storage::DiskDeployment;
use bbs_tdb::{Itemset, Transaction};
use std::path::PathBuf;
use std::sync::Arc;

const WIDTH: usize = 64;

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_remote_family_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        DiskDeployment::remove_files(&self.0).ok();
    }
}

#[test]
fn a_topology_pinning_another_family_is_refused_at_connect() {
    let bases: Vec<PathBuf> = (0..2).map(|i| base(&format!("shard{i}"))).collect();
    let _g: Vec<Cleanup> = bases.iter().cloned().map(Cleanup).collect();
    let cfg = ServerConfig {
        width: WIDTH,
        cache_pages: 64,
        ..ServerConfig::default()
    };
    let servers: Vec<_> = bases
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let rows: Vec<Transaction> = (0..20u64)
                .map(|t| {
                    Transaction::new(
                        2 * t + i as u64,
                        Itemset::from_values(&[1, 2 + t as u32 % 5]),
                    )
                })
                .collect();
            let hasher = Arc::new(Md5BloomHasher::new(3));
            let mut dep = DiskDeployment::open(b, WIDTH, hasher, 64).expect("ingest at md5/3");
            dep.append_batch(&rows).expect("ingest");
            drop(dep);
            let engine = Engine::open(b, cfg.clone()).expect("serve");
            let bind = Bind {
                tcp: Some("127.0.0.1:0".into()),
                unix: None,
            };
            serve(engine, &bind).expect("serve shard")
        })
        .collect();
    let topology = |hasher: &str| Topology {
        version: TOPOLOGY_VERSION,
        shards: servers.len(),
        width: WIDTH,
        hasher: hasher.into(),
        nodes: servers
            .iter()
            .enumerate()
            .map(|(id, s)| NodeSpec {
                id: id as u32,
                primary: s.tcp_addr().expect("tcp").to_string(),
                follower: None,
            })
            .collect(),
    };

    let refused = CoordinatorEngine::connect(topology("md5/4"), CoordinatorOptions::default())
        .expect_err("a topology pinning md5/4 is refused");
    let text = refused.to_string();
    assert!(text.contains("md5/3") && text.contains("md5/4"), "{text}");
    let coordinator = CoordinatorEngine::connect(topology("md5/3"), CoordinatorOptions::default())
        .expect("the recorded family connects");
    drop(coordinator);
    for server in servers {
        server.shutdown();
        server.join();
    }
}
