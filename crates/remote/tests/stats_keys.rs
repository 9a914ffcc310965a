//! The stats document's key set, shape by shape: a lone engine, a
//! one-partition router, a router over two partitions and a coordinator
//! each serve exactly the keys that apply to them, each once, in one fixed
//! order — nested objects included.

use bbs_hash::Md5BloomHasher;
use bbs_remote::{CoordinatorEngine, CoordinatorOptions, NodeSpec, Topology};
use bbs_server::{
    serve, Bind, Engine, Reply, Request, RequestHandler, Response, ServerConfig, ShardedEngine,
};
use bbs_storage::diskbbs::DiskDeployment;
use bbs_storage::Deployment;
use std::path::PathBuf;
use std::sync::Arc;

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_stats_keys_{}_{}", std::process::id(), name));
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

fn stats(handler: &dyn RequestHandler) -> String {
    match handler.handle(&Request::Stats) {
        Response::Ok(Reply::Stats { json }) => json,
        other => panic!("stats: {other:?}"),
    }
}

/// Every key of a JSON document as its dotted path from the root, in
/// document order; an array's elements add a `[]` step.
fn paths(json: &str) -> Vec<String> {
    fn value(b: &[u8], i: &mut usize, path: &str, out: &mut Vec<String>) {
        match b[*i] {
            b'{' => {
                *i += 1;
                while b[*i] != b'}' {
                    assert_eq!(b[*i], b'"', "key at byte {i}");
                    let end = *i + 1 + b[*i + 1..].iter().position(|&c| c == b'"').unwrap();
                    let key = std::str::from_utf8(&b[*i + 1..end]).unwrap();
                    let here = if path.is_empty() {
                        key.to_string()
                    } else {
                        format!("{path}.{key}")
                    };
                    assert_eq!(b[end + 1], b':', "colon after {here}");
                    *i = end + 2;
                    out.push(here.clone());
                    value(b, i, &here, out);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
                *i += 1;
            }
            b'[' => {
                *i += 1;
                let here = format!("{path}[]");
                while b[*i] != b']' {
                    value(b, i, &here, out);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
                *i += 1;
            }
            b'"' => *i += 2 + b[*i + 1..].iter().position(|&c| c == b'"').unwrap(),
            _ => {
                while !matches!(b[*i], b',' | b'}' | b']') {
                    *i += 1;
                }
            }
        }
    }
    let (b, mut i, mut out) = (json.as_bytes(), 0, Vec::new());
    value(b, &mut i, "", &mut out);
    assert_eq!(i, b.len(), "trailing bytes in {json}");
    out
}

const HISTOGRAM: [&str; 5] = ["count", "mean", "p50", "p99", "max"];

/// `name` and, under it, `fields`, each followed by its own fields.
fn object(out: &mut Vec<String>, name: &str, fields: &[(&str, &[&str])]) {
    out.push(name.to_string());
    for (field, inner) in fields {
        out.push(format!("{name}.{field}"));
        out.extend(inner.iter().map(|k| format!("{name}.{field}.{k}")));
    }
}

fn histogram(out: &mut Vec<String>, name: &str) {
    let fields: Vec<(&str, &[&str])> = HISTOGRAM.iter().map(|k| (*k, &[][..])).collect();
    object(out, name, &fields);
}

fn scalars(out: &mut Vec<String>, names: &[&str]) {
    out.extend(names.iter().map(|k| k.to_string()));
}

const MINE_CURSOR: [&str; 6] = [
    "extends",
    "tau_exits",
    "chunks_skipped",
    "sparse_ands",
    "cache_hits",
    "cache_misses",
];

/// The wire metrics every shape leads with.
fn wire(out: &mut Vec<String>) {
    for endpoint in [
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
    ] {
        object(
            out,
            endpoint,
            &[
                ("requests", &[]),
                ("errors", &[]),
                ("latency_us", &HISTOGRAM),
            ],
        );
    }
    histogram(out, "count_many_batch");
    scalars(
        out,
        &[
            "overloaded",
            "dedup_hits",
            "disk_full",
            "frame_errors",
            "connections",
            "queue_depth",
        ],
    );
    histogram(out, "batch_size");
    histogram(out, "commit_us");
    scalars(
        out,
        &[
            "not_primary",
            "promotions",
            "replication_lag_rows",
            "follower_applied_batches",
        ],
    );
    histogram(out, "follower_apply_us");
    histogram(out, "follower_pull_rows");
    scalars(
        out,
        &[
            "follower_resyncs",
            "pin_evictions",
            "stale_pins",
            "maintenance_runs",
            "maintenance_compactions",
            "maintenance_folds",
            "last_measured_fpr",
        ],
    );
}

/// The shard table every shape has.
fn shard_table(out: &mut Vec<String>) {
    scalars(
        out,
        &[
            "shards",
            "width",
            "rows",
            "epoch",
            "shard_rows",
            "shard_width",
        ],
    );
}

/// The columns and totals of local partitions, one `shard_mine_cursor`
/// object per partition.
fn local(out: &mut Vec<String>, nodes: usize) {
    scalars(
        out,
        &[
            "shard_lag",
            "shard_queue_depth",
            "shard_deleted_rows",
            "shard_fpr",
            "shard_mine_cursor",
        ],
    );
    for _ in 0..nodes {
        out.extend(
            MINE_CURSOR
                .iter()
                .map(|k| format!("shard_mine_cursor[].{k}")),
        );
    }
    scalars(out, &["deleted_rows", "live_rows"]);
}

/// A lone partition's own role, configuration and writer state.
fn lone(out: &mut Vec<String>) {
    scalars(
        out,
        &[
            "role",
            "primary_addr",
            "committed_seq",
            "queue_capacity",
            "batch_max",
            "commit_window_ms",
            "dedup_window",
            "writer_poisoned",
            "writer_heals",
        ],
    );
    let cursor: Vec<(&str, &[&str])> = MINE_CURSOR.iter().map(|k| (*k, &[][..])).collect();
    object(out, "mine_cursor", &cursor);
    scalars(out, &["commits", "appended", "committed_rows", "deletes"]);
    object(
        out,
        "writer_pager",
        &[
            ("reads", &[]),
            ("writes", &[]),
            ("checksum_reads", &[]),
            ("checksum_writes", &[]),
        ],
    );
    object(
        out,
        "writer_cache",
        &[("hits", &[]), ("misses", &[]), ("evictions", &[])],
    );
}

/// The router's scatter histograms, drain flag and fault columns.
fn tail(out: &mut Vec<String>) {
    let scatter: Vec<(&str, &[&str])> =
        ["insert", "count", "count_many", "mine", "probe", "delete"]
            .iter()
            .map(|k| (*k, &HISTOGRAM[..]))
            .collect();
    object(out, "scatter_us", &scatter);
    scalars(
        out,
        &["draining", "scatter_errors", "timeouts", "failovers"],
    );
}

fn local_shape(nodes: usize) -> Vec<String> {
    let mut out = Vec::new();
    wire(&mut out);
    shard_table(&mut out);
    local(&mut out, nodes);
    if nodes == 1 {
        lone(&mut out);
    }
    tail(&mut out);
    out
}

fn coordinator_shape() -> Vec<String> {
    let mut out = Vec::new();
    wire(&mut out);
    scalars(&mut out, &["coordinator", "topology_version"]);
    shard_table(&mut out);
    scalars(&mut out, &["shard_addrs"]);
    tail(&mut out);
    out
}

fn assert_shape(json: &str, want: &[String]) {
    assert_eq!(paths(json), want, "{json}");
}

#[test]
fn a_lone_engine_serves_its_keys() {
    let b = base("lone");
    let _g = Cleanup(b.clone());
    let engine = Engine::open(&b, cfg()).expect("open");
    assert_shape(&stats(&*engine), &local_shape(1));
    engine.join();
}

#[test]
fn a_one_partition_router_serves_the_lone_engines_keys() {
    let b = base("one");
    let _g = Cleanup(b.clone());
    let router = ShardedEngine::open(&b, cfg()).expect("open");
    assert_shape(&stats(&*router), &local_shape(1));
    router.join();
}

#[test]
fn a_two_partition_router_serves_the_routers_keys() {
    let dir = base("two");
    let _g = Cleanup(dir.clone());
    Deployment::create(&dir, 2, 64, Arc::new(Md5BloomHasher::new(4)), 64).expect("create");
    let router = ShardedEngine::open(&dir, cfg()).expect("open");
    assert_shape(&stats(&*router), &local_shape(2));
    router.join();
}

#[test]
fn a_coordinator_serves_the_topologys_keys() {
    let mut servers = Vec::new();
    let mut guards = Vec::new();
    let mut nodes = Vec::new();
    for id in 0..2u32 {
        let b = base(&format!("coord{id}"));
        guards.push(Cleanup(b.clone()));
        let engine = Engine::open(&b, cfg()).expect("open shard");
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
    assert_shape(&stats(&*coordinator), &coordinator_shape());
    coordinator.join();
    servers.into_iter().for_each(|s| s.join());
}
