//! One router, two kinds of shard: the same request script driven
//! through `Router<Arc<Engine>>` (a `ShardedEngine` over a three-shard
//! directory) and through `Router<RemoteShardHandle>` (a
//! `CoordinatorEngine` over three served shards holding the same rows)
//! must produce the same responses, request for request.

use bbs_core::Scheme;
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_remote::{CoordinatorEngine, CoordinatorOptions, NodeSpec, Topology};
use bbs_server::{
    maintain_action, serve, Bind, Client, Engine, Reply, Request, RequestHandler, Response,
    ServerConfig, ServerHandle, ShardedEngine,
};
use bbs_shard::ShardedDeployment;
use bbs_storage::diskbbs::DiskDeployment;
use bbs_tdb::SupportThreshold;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const WIDTH: usize = 64;
const SHARDS: usize = 3;

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_router_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        ShardedDeployment::remove_files(&self.0).ok();
        DiskDeployment::remove_files(&self.0).ok();
    }
}

fn cfg() -> ServerConfig {
    ServerConfig {
        width: WIDTH,
        cache_pages: 128,
        commit_window: Duration::ZERO,
        ..ServerConfig::default()
    }
}

/// The local router over a fresh three-shard directory.
fn local(name: &str) -> (Arc<ShardedEngine>, Cleanup) {
    let dir = base(name);
    let guard = Cleanup(dir.clone());
    let hasher: Arc<dyn ItemHasher> = Arc::new(Md5BloomHasher::new(4));
    drop(ShardedDeployment::create(&dir, SHARDS, WIDTH, hasher, 64).expect("create shards"));
    (ShardedEngine::open(&dir, cfg()).expect("open router"), guard)
}

/// Three served shard engines and the coordinator over them.
struct Remote {
    coordinator: Arc<CoordinatorEngine>,
    shards: Vec<ServerHandle<Engine>>,
    _guards: Vec<Cleanup>,
}

fn remote(name: &str) -> Remote {
    let mut shards = Vec::new();
    let mut guards = Vec::new();
    for i in 0..SHARDS {
        let b = base(&format!("{name}_s{i}"));
        guards.push(Cleanup(b.clone()));
        let bind = Bind {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
        };
        shards.push(serve(Engine::open(&b, cfg()).expect("open shard"), &bind).expect("serve"));
    }
    let topology = Topology {
        version: bbs_remote::TOPOLOGY_VERSION,
        shards: SHARDS,
        width: WIDTH,
        hasher: "md5/4".into(),
        nodes: shards
            .iter()
            .enumerate()
            .map(|(id, handle)| NodeSpec {
                id: id as u32,
                primary: handle.tcp_addr().expect("tcp addr").to_string(),
                follower: None,
            })
            .collect(),
    };
    let coordinator =
        CoordinatorEngine::connect(topology, CoordinatorOptions::default()).expect("connect");
    Remote {
        coordinator,
        shards,
        _guards: guards,
    }
}

/// A seeded batch: TID `t` holds item 1, `t % 5 + 2`, and 9 on odd TIDs.
fn batch(start: u64, n: u64) -> Vec<(u64, Vec<u32>)> {
    (start..start + n)
        .map(|t| {
            let mut items = vec![1, (t % 5) as u32 + 2];
            if t % 2 == 1 {
                items.push(9);
            }
            (t, items)
        })
        .collect()
}

/// The script: every client opcode a router serves, with a retried
/// insert, a retried delete, and the empty writes.
fn script() -> Vec<Request> {
    const N: u64 = 90;
    let mut reqs = vec![
        Request::Ping,
        Request::Insert {
            req_id: 11,
            txns: batch(0, N),
        },
        Request::Insert {
            req_id: 11,
            txns: batch(0, N),
        },
        Request::CountMany {
            itemsets: vec![vec![1]],
        },
        Request::CountMany {
            itemsets: vec![vec![1], vec![2], vec![1, 9], vec![4, 9], vec![], vec![77]],
        },
        Request::Delete {
            req_id: 21,
            tids: vec![3, 4, 5, 40, 41, 1000],
        },
        Request::Delete {
            req_id: 21,
            tids: vec![3, 4, 5, 40, 41, 1000],
        },
        Request::CountMany {
            itemsets: vec![vec![1]],
        },
        Request::Maintain {
            action: maintain_action::PROBE_FPR,
            arg: 16,
        },
        Request::Maintain {
            action: maintain_action::COMPACT,
            arg: 0,
        },
        Request::CountMany {
            itemsets: vec![vec![1], vec![9], vec![3, 9]],
        },
    ];
    for scheme in [Scheme::Sfs, Scheme::Dfp] {
        reqs.push(Request::Mine {
            scheme,
            threshold: SupportThreshold::Count(8),
            threads: 2,
        });
    }
    reqs.extend([0, 1, 29, 84, 85, 5000].map(|row| Request::Probe { row }));
    reqs.extend([
        Request::Insert {
            req_id: 31,
            txns: Vec::new(),
        },
        Request::Delete {
            req_id: 32,
            tids: Vec::new(),
        },
        Request::Promote,
        Request::CountManyAt {
            epoch: None,
            itemsets: vec![],
        },
    ]);
    reqs
}

/// Blanks the epoch: the two deployments count commits alike, but the
/// contract under test is the answers, not the commit counter.
fn modulo_epoch(resp: Response) -> Response {
    let Response::Ok(mut reply) = resp else {
        return resp;
    };
    match &mut reply {
        Reply::CountMany { epoch, .. }
        | Reply::Insert { epoch, .. }
        | Reply::Delete { epoch, .. }
        | Reply::Mine { epoch, .. } => *epoch = 0,
        _ => {}
    }
    Response::Ok(reply)
}

fn stop(remote: Remote) {
    remote.coordinator.join();
    for shard in remote.shards {
        shard.join();
    }
}

#[test]
fn local_and_remote_routers_answer_the_same_script_alike() {
    let (sharded, _g) = local("parity_l");
    let remote = remote("parity_r");
    for (step, req) in script().iter().enumerate() {
        let l = modulo_epoch(sharded.handle(req));
        let r = modulo_epoch(remote.coordinator.handle(req));
        assert_eq!(l, r, "step {step}: {req:?}");
        // The script is not vacuous: the writes land, the reads see them.
        match (req, &l) {
            (Request::Insert { req_id: 11, .. }, Response::Ok(Reply::Insert { appended, .. })) => {
                assert_eq!(*appended, 90)
            }
            (Request::Delete { req_id: 21, .. }, Response::Ok(Reply::Delete { deleted, .. })) => {
                assert_eq!(*deleted, 5)
            }
            (Request::Mine { .. }, Response::Ok(Reply::Mine { rows, patterns, .. })) => {
                assert_eq!(*rows, 85);
                assert!(patterns.len() > 5, "{patterns:?}");
            }
            (Request::Maintain { action, .. }, Response::Ok(Reply::Maintain { action_taken, .. })) => {
                assert_eq!(action_taken, action)
            }
            (Request::Promote | Request::CountManyAt { .. }, resp) => {
                assert!(matches!(resp, Response::Err(_)), "{resp:?}")
            }
            (_, resp) => assert!(matches!(resp, Response::Ok(_)), "step {step}: {resp:?}"),
        }
    }
    sharded.join();
    stop(remote);
}

/// A delete is timed into `scatter_us.delete`, on either router, and
/// leaves the insert fan-out histogram alone.
#[test]
fn deletes_are_timed_apart_from_inserts() {
    let (sharded, _g) = local("timing_l");
    let remote = remote("timing_r");
    let insert = Request::Insert {
        req_id: 1,
        txns: batch(0, 30),
    };
    let delete = Request::Delete {
        req_id: 2,
        tids: (0..12).collect(),
    };
    for (name, scatter, router) in [
        (
            "local",
            sharded.scatter_metrics(),
            &*sharded as &dyn RequestHandler,
        ),
        (
            "remote",
            remote.coordinator.scatter_metrics(),
            &*remote.coordinator as &dyn RequestHandler,
        ),
    ] {
        assert!(matches!(router.handle(&insert), Response::Ok(_)), "{name}");
        assert_eq!((scatter.insert.count(), scatter.delete.count()), (1, 0), "{name}");
        assert!(matches!(router.handle(&delete), Response::Ok(_)), "{name}");
        assert_eq!((scatter.insert.count(), scatter.delete.count()), (1, 1), "{name}");
        let Response::Ok(Reply::Stats { json }) = router.handle(&Request::Stats) else {
            panic!("{name}: stats");
        };
        assert!(json.contains("\"delete\":{\"count\":1,"), "{name}: {json}");
    }
    sharded.join();
    stop(remote);
}

/// The distributed read path shows up in each shard server's own stats:
/// one coordinator `count_many` is a `count_many` on every shard, and a
/// mine pins each shard (`count_many_at`) and pulls its rows.
#[test]
fn shard_servers_count_the_pinned_read_opcodes() {
    let remote = remote("opcodes");
    let coordinator = &remote.coordinator;
    assert!(matches!(
        coordinator.handle(&Request::Insert {
            req_id: 1,
            txns: batch(0, 30)
        }),
        Response::Ok(_)
    ));
    coordinator
        .count_many(&[vec![1], vec![1, 9]])
        .expect("count_many");
    coordinator
        .mine(Scheme::Dfp, SupportThreshold::Count(5), 1)
        .expect("mine");
    for (i, shard) in remote.shards.iter().enumerate() {
        let addr = shard.tcp_addr().expect("tcp addr").to_string();
        let json = Client::connect_tcp(addr).expect("connect").stats().expect("stats");
        for endpoint in ["count_many", "count_many_at", "rows_pull"] {
            let key = format!("\"{endpoint}\":{{\"requests\":");
            let at = json.find(&key).unwrap_or_else(|| panic!("shard {i}: no {endpoint}: {json}"));
            let requests: u64 = json[at + key.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .expect("counter");
            assert!(requests >= 1, "shard {i}: {endpoint} = {requests}");
        }
    }
    stop(remote);
}

/// Tombstones a coordinator never compacted: `ROWS` skips the dead rows,
/// so the coordinator's MINE and every PROBE (dead rows answer `None`)
/// equal the local router's over the same rows.
#[test]
fn uncompacted_tombstones_mine_and_probe_alike() {
    const N: u64 = 60;
    let (sharded, _g) = local("dead_l");
    let remote = remote("dead_r");
    // Every shard loses its first row, a run of consecutive rows (TIDs
    // 30..45 are five per shard) and a scattering besides.
    let victims: Vec<u64> = (0..N)
        .filter(|t| *t < 2 || (30..45).contains(t) || t % 4 == 1)
        .collect();
    let mut script = vec![
        Request::Insert {
            req_id: 1,
            txns: batch(0, N),
        },
        Request::Delete {
            req_id: 2,
            tids: victims.clone(),
        },
    ];
    for scheme in [Scheme::Sfs, Scheme::Dfp] {
        script.push(Request::Mine {
            scheme,
            threshold: SupportThreshold::Count(4),
            threads: 2,
        });
    }
    script.extend((0..N + 2).map(|row| Request::Probe { row }));
    let live = N - victims.len() as u64;
    let mut dead_probes = 0;
    for (step, req) in script.iter().enumerate() {
        let l = modulo_epoch(sharded.handle(req));
        let r = modulo_epoch(remote.coordinator.handle(req));
        assert_eq!(l, r, "step {step}: {req:?}");
        match (req, &l) {
            (Request::Mine { .. }, Response::Ok(Reply::Mine { rows, patterns, .. })) => {
                assert_eq!(*rows, live);
                assert!(patterns.len() > 3, "{patterns:?}");
            }
            (Request::Probe { row }, Response::Ok(Reply::Probe { txn: None })) if *row < N => {
                dead_probes += 1
            }
            (_, resp) => assert!(matches!(resp, Response::Ok(_)), "step {step}: {resp:?}"),
        }
    }
    assert_eq!(dead_probes, victims.len());
    sharded.join();
    stop(remote);
}
