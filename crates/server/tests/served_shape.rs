//! One served shape: `ShardedEngine::open`, the open `bbs serve --base`
//! runs, serves a plain base and a one-shard directory as a router over one
//! engine, and the two answer every opcode alike.  The one stats document
//! keeps every key a lone engine reported and adds the router's, each
//! once; a router's write-side counters are the sums of its nodes'; a
//! write leg is not a second request on the shard; and a one-partition
//! server may follow a primary.

use bbs_core::Scheme;
use bbs_hash::Md5BloomHasher;
use bbs_server::{
    maintain_action, Engine, Reply, Request, RequestHandler, Response, ServerConfig, ShardedEngine,
};
use bbs_storage::diskbbs::DiskDeployment;
use bbs_storage::Deployment;
use bbs_tdb::SupportThreshold;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_served_shape_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        DiskDeployment::remove_files(&self.0).ok();
        Deployment::remove_files(&self.0).ok();
    }
}

fn cfg() -> ServerConfig {
    ServerConfig {
        width: 64,
        cache_pages: 64,
        ..ServerConfig::default()
    }
}

/// A partition directory of `shards` empty shards at the width `cfg` names.
fn directory(name: &str, shards: usize) -> (PathBuf, Cleanup) {
    let dir = base(name);
    let guard = Cleanup(dir.clone());
    Deployment::create(&dir, shards, 64, Arc::new(Md5BloomHasher::new(4)), 64)
        .expect("create directory");
    (dir, guard)
}

fn rows(from: u64, n: u64) -> Vec<(u64, Vec<u32>)> {
    (from..from + n)
        .map(|i| {
            let mut items = vec![1, 2 + (i % 3) as u32];
            if i % 4 == 0 {
                items.push(9);
            }
            (i, items)
        })
        .collect()
}

fn stats(handler: &dyn RequestHandler) -> String {
    match handler.handle(&Request::Stats) {
        Response::Ok(Reply::Stats { json }) => json,
        other => panic!("stats: {other:?}"),
    }
}

/// The keys of a stats document's top-level object, in order.
fn keys(json: &str) -> Vec<&str> {
    let b = json.as_bytes();
    let (mut i, mut depth, mut prev, mut keys) = (0, 0, b' ', Vec::new());
    while i < b.len() {
        match b[i] {
            b'"' => {
                let end = i + 1 + json[i + 1..].find('"').expect("closed string");
                if depth == 1 && matches!(prev, b'{' | b',') {
                    keys.push(&json[i + 1..end]);
                }
                i = end;
            }
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            _ => {}
        }
        prev = b[i];
        i += 1;
    }
    keys
}

/// The top-level keys a lone engine's stats document carried before the
/// router's were added, each of which a one-partition server keeps: the
/// wire metrics, then the engine's own.
const ENGINE_KEYS: [&str; 56] = [
    "ping",
    "insert",
    "mine",
    "probe",
    "stats",
    "replicate",
    "promote",
    "count_many",
    "delete",
    "maintain",
    "count_many_at",
    "rows_pull",
    "count_many_batch",
    "overloaded",
    "dedup_hits",
    "disk_full",
    "frame_errors",
    "connections",
    "queue_depth",
    "batch_size",
    "commit_us",
    "not_primary",
    "promotions",
    "replication_lag_rows",
    "follower_applied_batches",
    "follower_apply_us",
    "follower_pull_rows",
    "follower_resyncs",
    "pin_evictions",
    "stale_pins",
    "maintenance_runs",
    "maintenance_compactions",
    "maintenance_folds",
    "last_measured_fpr",
    "epoch",
    "rows",
    "role",
    "primary_addr",
    "committed_seq",
    "queue_capacity",
    "batch_max",
    "commit_window_ms",
    "dedup_window",
    "draining",
    "writer_poisoned",
    "writer_heals",
    "width",
    "live_rows",
    "deleted_rows",
    "mine_cursor",
    "commits",
    "appended",
    "committed_rows",
    "deletes",
    "writer_pager",
    "writer_cache",
];

/// The keys the router adds.
const ROUTER_KEYS: [&str; 12] = [
    "shards",
    "shard_rows",
    "shard_width",
    "shard_lag",
    "shard_queue_depth",
    "shard_deleted_rows",
    "shard_fpr",
    "shard_mine_cursor",
    "scatter_us",
    "scatter_errors",
    "timeouts",
    "failovers",
];

/// Every key once, and exactly the engine's plus the router's.
fn assert_one_document(json: &str) {
    let mut got = keys(json);
    let n = got.len();
    got.sort_unstable();
    got.dedup();
    assert_eq!(got.len(), n, "a key appears twice: {json}");
    let mut want: Vec<&str> = ENGINE_KEYS.iter().chain(&ROUTER_KEYS).copied().collect();
    want.sort_unstable();
    assert_eq!(got, want, "{json}");
}

/// Runs one request of every opcode, the pinned reads at the epoch this
/// server's own pin named, and returns the answers; STATS's is its key
/// list, checked to be the one document's.
fn script(server: &dyn RequestHandler) -> Vec<Response> {
    let mut answers = Vec::new();
    let mut ask = |req: Request| {
        let resp = server.handle(&req);
        answers.push(resp.clone());
        resp
    };
    ask(Request::Ping);
    for _ in 0..2 {
        ask(Request::Insert {
            req_id: 11,
            txns: rows(0, 40),
        });
    }
    ask(Request::Insert {
        req_id: 0,
        txns: Vec::new(),
    });
    ask(Request::CountMany {
        itemsets: vec![vec![1], vec![2, 9], vec![]],
    });
    let pin = ask(Request::CountManyAt {
        epoch: None,
        itemsets: vec![vec![9]],
    });
    let Response::Ok(Reply::CountsAt { epoch, .. }) = pin else {
        panic!("COUNT_MANY_AT is not answered: {pin:?}");
    };
    ask(Request::CountManyAt {
        epoch: Some(epoch),
        itemsets: vec![vec![1, 2], vec![3]],
    });
    ask(Request::Rows {
        epoch,
        from: 5,
        limit: 7,
    });
    ask(Request::Probe { row: 3 });
    ask(Request::Probe { row: 400 });
    ask(Request::Mine {
        scheme: Scheme::Dfp,
        threshold: SupportThreshold::Count(5),
        threads: 1,
    });
    ask(Request::Delete {
        req_id: 12,
        tids: (0..6).collect(),
    });
    ask(Request::Maintain {
        action: maintain_action::PROBE_FPR,
        arg: 8,
    });
    ask(Request::Replicate {
        from_row: 0,
        from_dseq: 0,
        max_entries: 16,
    });
    ask(Request::Promote);
    ask(Request::Shutdown);
    let json = stats(server);
    assert_one_document(&json);
    answers.push(Response::Ok(Reply::Stats {
        json: keys(&json).join(","),
    }));
    answers
}

#[test]
fn a_plain_base_and_a_one_shard_directory_answer_every_opcode_alike() {
    let plain = base("plain");
    let _g = Cleanup(plain.clone());
    let (dir, _d) = directory("one", 1);
    let a = ShardedEngine::open(&plain, cfg()).expect("open plain base");
    let b = ShardedEngine::open(&dir, cfg()).expect("open one-shard directory");
    assert_eq!((a.engines().len(), b.engines().len()), (1, 1));
    let (a_answers, b_answers) = (script(&*a), script(&*b));
    for (step, (x, y)) in a_answers.iter().zip(&b_answers).enumerate() {
        assert_eq!(x, y, "step {step}");
        assert!(!matches!(x, Response::Err(_)), "step {step}: {x:?}");
    }
    a.join();
    b.join();
}

#[test]
fn a_lone_engine_serves_the_same_document() {
    let b = base("lone");
    let _g = Cleanup(b.clone());
    let engine = Engine::open(&b, cfg()).expect("open");
    script(&*engine);
    engine.join();
}

/// The write-side counters live in each shard's committer; the router's
/// document reports their sums.
#[test]
fn a_routers_write_side_counters_are_its_shards_sums() {
    let (dir, _g) = directory("sums", 3);
    let router = ShardedEngine::open(&dir, cfg()).expect("open");
    let insert = Request::Insert {
        req_id: 7,
        txns: rows(0, 30),
    };
    for _ in 0..2 {
        assert!(matches!(router.handle(&insert), Response::Ok(_)));
    }
    let json = stats(&*router);
    assert_one_document_but_engine_keys(&json);
    for key in ["commit_us", "batch_size"] {
        assert!(
            json.contains(&format!("\"{key}\":{{\"count\":3,")),
            "{key}: {json}"
        );
    }
    assert!(json.contains("\"dedup_hits\":3,"), "{json}");
    router.join();
}

/// A router over N > 1 shards has no engine keys of its own.
fn assert_one_document_but_engine_keys(json: &str) {
    let got = keys(json);
    for key in ["role", "mine_cursor", "commits", "writer_pager"] {
        assert!(!got.contains(&key), "{key} in {json}");
    }
    let mut unique = got.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), got.len(), "a key appears twice: {json}");
}

/// A write leg is the shard engine's own typed call: the router counts
/// the request once, and no shard counts it again.
#[test]
fn a_write_leg_is_not_a_request_on_the_shard() {
    let (dir, _g) = directory("legs", 3);
    let router = ShardedEngine::open(&dir, cfg()).expect("open");
    for req_id in [1, 2] {
        let insert = Request::Insert {
            req_id,
            txns: rows(req_id * 100, 30),
        };
        assert!(matches!(router.handle(&insert), Response::Ok(_)));
    }
    let requests = |h: &dyn RequestHandler| h.metrics().insert.requests.load(Ordering::Relaxed);
    assert_eq!(requests(&*router), 2);
    for engine in router.engines() {
        assert_eq!(requests(&**engine), 0);
    }
    router.join();
}

/// One partition may follow a primary, and answers a write as the engine
/// does: an empty batch first, then `NOT_PRIMARY` — even while draining.
#[test]
fn a_one_partition_server_may_follow() {
    let follow = || ServerConfig {
        follow: Some("127.0.0.1:1".into()),
        ..cfg()
    };
    let plain = base("follow_plain");
    let _g = Cleanup(plain.clone());
    let (dir, _d) = directory("follow_one", 1);
    for path in [plain.as_path(), dir.as_path()] {
        let server = ShardedEngine::open(path, follow()).expect("a follower opens");
        assert!(stats(&*server).contains("\"role\":\"follower\""));
        server.begin_drain();
        let write = |txns| server.handle(&Request::Insert { req_id: 3, txns });
        assert!(matches!(
            write(Vec::new()),
            Response::Ok(Reply::Insert { appended: 0, .. })
        ));
        assert_eq!(
            write(rows(0, 4)),
            Response::NotPrimary("127.0.0.1:1".into())
        );
        server.join();
    }
    let (many, _m) = directory("follow_many", 2);
    let refused = ShardedEngine::open(&many, follow())
        .err()
        .expect("N > 1 refuses");
    assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
}
