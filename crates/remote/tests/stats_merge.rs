//! A draining coordinator refuses every write leg unsent; the refusal is
//! counted once, in the coordinator's own `overloaded`.

use bbs_remote::{CoordinatorEngine, CoordinatorOptions, NodeSpec, Topology};
use bbs_server::{serve, Bind, Engine, Reply, Request, RequestHandler, Response, ServerConfig};
use bbs_storage::diskbbs::DiskDeployment;
use std::path::PathBuf;

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        DiskDeployment::remove_files(&self.0).ok();
    }
}

#[test]
fn a_draining_coordinators_refusals_are_counted() {
    let cfg = ServerConfig {
        width: 64,
        cache_pages: 64,
        ..ServerConfig::default()
    };
    let (mut servers, mut guards, mut nodes) = (Vec::new(), Vec::new(), Vec::new());
    for id in 0..2u32 {
        let mut b = std::env::temp_dir();
        b.push(format!(
            "bbs_remote_stats_merge_{}_{id}",
            std::process::id()
        ));
        guards.push(Cleanup(b.clone()));
        let engine = Engine::open(&b, cfg.clone()).expect("open shard");
        let bind = Bind {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
        };
        let server = serve(engine, &bind).expect("serve shard");
        nodes.push(NodeSpec {
            id,
            primary: server.tcp_addr().expect("tcp").to_string(),
            follower: None,
        });
        servers.push(server);
    }
    let topology = Topology {
        version: bbs_remote::TOPOLOGY_VERSION,
        shards: nodes.len(),
        width: 64,
        hasher: "md5/4".into(),
        nodes,
    };
    let coordinator =
        CoordinatorEngine::connect(topology, CoordinatorOptions::default()).expect("connect");
    coordinator.begin_drain();
    let insert = Request::Insert {
        req_id: 1,
        txns: (0..6).map(|tid| (tid, vec![1, 2])).collect(),
    };
    assert_eq!(coordinator.handle(&insert), Response::Overloaded);
    let Response::Ok(Reply::Stats { json }) = coordinator.handle(&Request::Stats) else {
        panic!("stats");
    };
    assert!(json.contains("\"overloaded\":1,"), "{json}");
    coordinator.join();
    servers.into_iter().for_each(|s| s.join());
}
