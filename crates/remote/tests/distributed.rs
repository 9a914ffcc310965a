//! The distributed deployment end-to-end, over real sockets: a
//! `CoordinatorEngine` whose shards are separate `Engine` servers must
//! be bit-for-bit indistinguishable from a local `ShardedEngine` holding
//! the same transactions — same counts, same mined patterns, same probed
//! rows, with exactly-once inserts composing through the extra hop — and
//! a shard that dies must surface as a typed `SHARD_UNAVAILABLE` (or be
//! failed over to its follower), never as a silently-wrong total.

use bbs_core::Scheme;
use bbs_hash::{ItemHasher, Md5BloomHasher, ModuloHasher};
use bbs_remote::{
    CoordinatorEngine, CoordinatorOptions, NodeSpec, RemoteOptions, RemoteShardHandle, Topology,
};
use bbs_server::{
    serve, Bind, Client, Engine, MineView, Node, Request, RequestHandler, Response, RetryPolicy,
    ServerConfig, ServerHandle, ShardFaults, ShardedEngine,
};
use bbs_shard::ShardedDeployment;
use bbs_storage::diskbbs::DiskDeployment;
use bbs_tdb::{Itemset, SupportThreshold};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const WIDTH: usize = 64;

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_remote_{}_{}", std::process::id(), name));
    p
}

struct CleanupDir(PathBuf);
impl Drop for CleanupDir {
    fn drop(&mut self) {
        ShardedDeployment::remove_files(&self.0).ok();
    }
}

struct CleanupBase(PathBuf);
impl Drop for CleanupBase {
    fn drop(&mut self) {
        DiskDeployment::remove_files(&self.0).ok();
    }
}

fn hasher() -> Arc<dyn ItemHasher> {
    Arc::new(Md5BloomHasher::new(4))
}

fn cfg() -> ServerConfig {
    ServerConfig {
        width: WIDTH,
        cache_pages: 128,
        queue_capacity: 32,
        ..ServerConfig::default()
    }
}

/// Fast-failing connection knobs so a dead-shard test does not sit out
/// the full production backoff schedule.
fn opts() -> CoordinatorOptions {
    CoordinatorOptions {
        remote: RemoteOptions {
            timeout: Duration::from_secs(10),
            policy: RetryPolicy {
                attempts: 2,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(20),
            },
        },
        mine_threads: 2,
    }
}

/// Starts one shard server (an unsharded `Engine` on its own base) on an
/// ephemeral TCP port; returns the handle and the bound address.
fn shard_server(name: &str, cfg: ServerConfig) -> (ServerHandle<Engine>, String, CleanupBase) {
    let b = base(name);
    let guard = CleanupBase(b.clone());
    let engine = Engine::open(&b, cfg).expect("open shard engine");
    let handle = serve(
        engine,
        &Bind {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
        },
    )
    .expect("serve shard");
    let addr = handle.tcp_addr().expect("tcp addr").to_string();
    (handle, addr, guard)
}

fn topology_for(addrs: &[String], followers: &[Option<String>]) -> Topology {
    Topology {
        version: bbs_remote::TOPOLOGY_VERSION,
        shards: addrs.len(),
        width: WIDTH,
        hasher: "md5/4".into(),
        nodes: addrs
            .iter()
            .zip(followers)
            .enumerate()
            .map(|(id, (primary, follower))| NodeSpec {
                id: id as u32,
                primary: primary.clone(),
                follower: follower.clone(),
            })
            .collect(),
    }
}

fn batch(start: u64, n: u64) -> Vec<(u64, Vec<u32>)> {
    (start..start + n)
        .map(|i| {
            let mut items = vec![1, 2 + (i % 3) as u32];
            if i % 5 == 0 {
                items.push(9);
            }
            (i, items)
        })
        .collect()
}

#[test]
fn coordinator_matches_local_sharded_bit_for_bit() {
    const SHARDS: usize = 3;
    const N: u64 = 90;

    // The distributed side: three shard servers plus a coordinator,
    // itself served over TCP — every hop a real socket.
    let (h0, a0, _g0) = shard_server("eq_s0", cfg());
    let (h1, a1, _g1) = shard_server("eq_s1", cfg());
    let (h2, a2, _g2) = shard_server("eq_s2", cfg());
    let addrs = vec![a0, a1, a2];
    let coordinator = CoordinatorEngine::connect(
        topology_for(&addrs, &[None, None, None]),
        opts(),
    )
    .expect("connect coordinator");
    let ch = serve(
        Arc::clone(&coordinator),
        &Bind {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
        },
    )
    .expect("serve coordinator");
    let mut dc = Client::connect_tcp(ch.tcp_addr().unwrap().to_string()).expect("connect");

    // The local reference: a sharded directory with the same width,
    // hasher and shard count, served in-process.
    let sd = base("eq_local");
    let _gl = CleanupDir(sd.clone());
    ShardedDeployment::create(&sd, SHARDS, WIDTH, hasher(), 64).expect("create sharded");
    let sharded = ShardedEngine::open(&sd, cfg()).expect("open sharded");
    let lh = serve(
        Arc::clone(&sharded),
        &Bind {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
        },
    )
    .expect("serve sharded");
    let mut lc = Client::connect_tcp(lh.tcp_addr().unwrap().to_string()).expect("connect");

    // Exactly-once composes end-to-end: the same request ID re-sent
    // through the coordinator answers with the original receipt.
    let txns = batch(0, N);
    let first = dc.insert_with_id(7, &txns).expect("distributed insert");
    assert_eq!((first.appended, first.deduped), (N, false));
    let retry = dc.insert_with_id(7, &txns).expect("re-sent insert");
    assert_eq!((retry.appended, retry.deduped), (N, true));
    assert_eq!(retry.first_row, first.first_row);
    let local = lc.insert_with_id(7, &txns).expect("local insert");
    assert_eq!(local.appended, N);

    // Counting parity, single and batched (empty itemset included).
    for items in [vec![1u32], vec![2], vec![1, 9], vec![4, 9], vec![77]] {
        let d = dc.count(&items).expect("count").support;
        let l = lc.count(&items).expect("count").support;
        assert_eq!(d, l, "count {items:?}");
    }
    let queries: Vec<&[u32]> = vec![&[1], &[2], &[9], &[1, 3], &[2, 9], &[]];
    let d = dc.count_many(&queries).expect("count_many");
    let l = lc.count_many(&queries).expect("count_many");
    assert_eq!(d.supports, l.supports);
    assert_eq!(d.rows, N);

    // Mining parity: bit-for-bit patterns, supports and approx markers.
    for scheme in [Scheme::Sfs, Scheme::Dfp] {
        for threads in [1u16, 3] {
            let dm = dc
                .mine(scheme, SupportThreshold::Count(15), threads)
                .expect("distributed mine");
            let lm = lc
                .mine(scheme, SupportThreshold::Count(15), threads)
                .expect("local mine");
            assert_eq!(dm.patterns, lm.patterns, "{scheme:?} x{threads}");
            assert_eq!(dm.rows, N);
        }
    }

    // Probe parity over the whole concatenated row space.
    for row in 0..N {
        let d = dc.probe(row).expect("probe");
        let l = lc.probe(row).expect("probe");
        assert_eq!(d, l, "row {row}");
    }
    assert_eq!(dc.probe(N).expect("probe"), None);

    // The stats document reports the distributed topology and the fault
    // counters (all zero on this clean run).
    let json = dc.stats().expect("stats");
    assert!(json.contains("\"coordinator\":true"), "{json}");
    assert!(json.contains(&format!("\"shards\":{SHARDS}")));
    assert!(json.contains(&format!("\"rows\":{N}")));
    assert!(json.contains("\"shard_rows\":[30,30,30]"));
    assert!(json.contains("\"scatter_errors\":[0,0,0]"));
    assert!(json.contains("\"timeouts\":[0,0,0]"));
    assert!(json.contains("\"failovers\":[0,0,0]"));
    assert!(json.contains("\"scatter_us\":{\"insert\":{\"count\":2,"));

    // Shutdown drains the coordinator without touching the shards.
    dc.shutdown_server().expect("shutdown");
    ch.wait();
    let mut s0 = Client::connect_tcp(addrs[0].clone()).expect("shard 0 still up");
    s0.ping().expect("shard 0 still answers");

    lc.shutdown_server().expect("shutdown local");
    lh.wait();
    for h in [h0, h1, h2] {
        let mut c = Client::connect_tcp(h.tcp_addr().unwrap().to_string()).expect("connect");
        c.shutdown_server().expect("shutdown shard");
        h.wait();
    }
}

#[test]
fn connect_refuses_width_and_hasher_mismatch() {
    // A shard serving a different slice width: refused, naming both.
    let (h_ok, a_ok, _g0) = shard_server("mm_ok", cfg());
    let (h_wide, a_wide, _g1) = shard_server(
        "mm_wide",
        ServerConfig {
            width: 128,
            ..cfg()
        },
    );
    let err = CoordinatorEngine::connect(
        topology_for(&[a_ok.clone(), a_wide], &[None, None]),
        opts(),
    )
    .expect_err("width mismatch must be refused");
    let msg = err.to_string();
    assert!(
        msg.contains("width 128") && msg.contains("width 64"),
        "error must name both widths: {msg}"
    );

    // A shard serving a different hash family: refused, naming both.
    let b = base("mm_hash");
    let _g2 = CleanupBase(b.clone());
    let modulo = Engine::open_with(&b, cfg(), Arc::new(ModuloHasher)).expect("open modulo");
    let h_mod = serve(
        modulo,
        &Bind {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
        },
    )
    .expect("serve modulo");
    let a_mod = h_mod.tcp_addr().unwrap().to_string();
    let err = CoordinatorEngine::connect(topology_for(&[a_ok, a_mod], &[None, None]), opts())
        .expect_err("hasher mismatch must be refused");
    let msg = err.to_string();
    assert!(
        msg.contains("mod/1") && msg.contains("md5/4"),
        "error must name both hashers: {msg}"
    );

    h_ok.join();
    h_wide.join();
    h_mod.join();
}

#[test]
fn dead_shard_is_a_typed_unavailable_not_a_wrong_total() {
    let (h0, a0, _g0) = shard_server("dead_s0", cfg());
    let (h1, a1, _g1) = shard_server("dead_s1", cfg());
    let coordinator =
        CoordinatorEngine::connect(topology_for(&[a0, a1.clone()], &[None, None]), opts())
            .expect("connect");
    let ch = serve(
        Arc::clone(&coordinator),
        &Bind {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
        },
    )
    .expect("serve coordinator");
    let mut client = Client::connect_tcp(ch.tcp_addr().unwrap().to_string()).expect("connect");
    client.insert(&batch(0, 40)).expect("insert");
    assert_eq!(client.count(&[1]).expect("count").support, 40);

    // Kill shard 1 (no follower in the topology): counting must answer
    // with a typed outcome naming the shard — never a partial total.
    let mut s1 = Client::connect_tcp(a1).expect("connect shard 1");
    s1.shutdown_server().expect("shutdown shard 1");
    h1.wait();
    let err = client.count(&[1]).expect_err("count through a dead shard");
    match err {
        bbs_server::ClientError::ShardUnavailable(shard, msg) => {
            assert_eq!(shard, 1);
            assert!(msg.contains("shard 1"), "{msg}");
        }
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }
    let faults = &coordinator.shard_faults()[1];
    assert!(faults.scatter_errors.load(std::sync::atomic::Ordering::Relaxed) >= 1);

    client.shutdown_server().expect("shutdown coordinator");
    ch.wait();
    h0.join();
}

#[test]
fn coordinator_routes_deletes_and_fans_out_maintenance() {
    use bbs_server::maintain_action;

    const SHARDS: usize = 3;
    const N: u64 = 60;
    let (h0, a0, _g0) = shard_server("dyn_s0", cfg());
    let (h1, a1, _g1) = shard_server("dyn_s1", cfg());
    let (h2, a2, _g2) = shard_server("dyn_s2", cfg());
    let addrs = vec![a0, a1, a2];
    let coordinator =
        CoordinatorEngine::connect(topology_for(&addrs, &[None, None, None]), opts())
            .expect("connect coordinator");
    let ch = serve(
        Arc::clone(&coordinator),
        &Bind {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
        },
    )
    .expect("serve coordinator");
    let mut dc = Client::connect_tcp(ch.tcp_addr().unwrap().to_string()).expect("connect");

    let txns = batch(0, N);
    dc.insert_with_id(1, &txns).expect("insert");

    // Victims span all three shards (consecutive TIDs mod 3); the
    // coordinator must partition by residue and sum the shard receipts.
    let victims: Vec<u64> = (0..N).filter(|t| t % 4 == 0).collect();
    let first = dc.delete_with_id(42, &victims).expect("delete");
    assert_eq!(first.deleted, victims.len() as u64);
    assert!(!first.deduped);

    // Counting parity with the surviving truth, through the extra hop.
    let survivors: Vec<&(u64, Vec<u32>)> = txns.iter().filter(|(t, _)| t % 4 != 0).collect();
    let live = survivors.len() as u64;
    assert_eq!(dc.count(&[1]).expect("count").support, live);
    assert_eq!(dc.count(&[]).expect("count all").support, live);

    // Exactly-once composes: the re-sent delete answers from every
    // shard's dedup window with the original receipts.
    let retry = dc.delete_with_id(42, &victims).expect("retry");
    assert!(retry.deduped, "all shards must dedup the retried delete");
    assert_eq!(retry.deleted, victims.len() as u64);
    assert_eq!(dc.count(&[1]).expect("count").support, live);

    // Maintenance fans out to every shard: the probe aggregates live and
    // tombstoned rows across the fleet, compaction reclaims them all.
    let probe = dc.maintain(maintain_action::PROBE_FPR, 8).expect("probe");
    assert_eq!(probe.action_taken, maintain_action::PROBE_FPR);
    assert_eq!(probe.live_rows, live);
    assert_eq!(probe.deleted_rows, victims.len() as u64);
    assert!((0.0..=1.0).contains(&probe.fpr));
    let compacted = dc.maintain(maintain_action::COMPACT, 0).expect("compact");
    assert_eq!(compacted.live_rows, live);
    assert_eq!(compacted.deleted_rows, 0);
    assert_eq!(dc.count(&[1]).expect("count").support, live);
    assert_eq!(dc.count(&[1]).expect("count").rows, live);

    // Mining over the survivors still scatters cleanly post-compaction.
    let mine = dc
        .mine(Scheme::Dfp, SupportThreshold::Count(10), 2)
        .expect("mine");
    assert_eq!(mine.rows, live);

    // The stats document carries the per-shard health gauges.
    let json = dc.stats().expect("stats");
    assert!(json.contains("\"coordinator\":true"), "{json}");
    assert!(json.contains(&format!("\"shards\":{SHARDS}")));
    assert!(json.contains("\"shard_width\":["), "{json}");

    dc.shutdown_server().expect("shutdown coordinator");
    ch.wait();
    for h in [h0, h1, h2] {
        let mut c = Client::connect_tcp(h.tcp_addr().unwrap().to_string()).expect("connect");
        c.shutdown_server().expect("shutdown shard");
        h.wait();
    }
}

#[test]
fn coordinator_fails_over_to_the_follower_and_keeps_serving() {
    // Shard 0: a primary with a live follower replicating its commit
    // stream.  Shard 1: a plain single server.
    let (h_prim, a_prim, _g0) = shard_server("fo_primary", cfg());
    let fb = base("fo_follower");
    let _g1 = CleanupBase(fb.clone());
    let follower = Engine::open(
        &fb,
        ServerConfig {
            follow: Some(a_prim.clone()),
            poll_interval: Duration::from_millis(10),
            ..cfg()
        },
    )
    .expect("open follower");
    let h_fol = serve(
        follower,
        &Bind {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
        },
    )
    .expect("serve follower");
    let a_fol = h_fol.tcp_addr().unwrap().to_string();
    let (h1, a1, _g2) = shard_server("fo_s1", cfg());

    let coordinator = CoordinatorEngine::connect(
        topology_for(&[a_prim.clone(), a1], &[Some(a_fol.clone()), None]),
        opts(),
    )
    .expect("connect");
    let ch = serve(
        Arc::clone(&coordinator),
        &Bind {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
        },
    )
    .expect("serve coordinator");
    let mut client = Client::connect_tcp(ch.tcp_addr().unwrap().to_string()).expect("connect");

    const N: u64 = 60;
    client.insert_with_id(3, &batch(0, N)).expect("insert");
    assert_eq!(client.count(&[1]).expect("count").support, N);

    // Wait for the follower to replicate shard 0's rows before the
    // primary disappears (shard 0 owns the even TIDs: N/2 rows).
    let mut fc = Client::connect_tcp(a_fol).expect("connect follower");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let caught_up = fc.count(&[1]).map(|r| r.rows == N / 2).unwrap_or(false);
        if caught_up {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "follower never caught up"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The primary goes away; the next scatter fails over: promote the
    // follower, re-point shard 0's handle, re-pin, and answer — the
    // same totals, no client-visible error.
    let mut pc = Client::connect_tcp(a_prim).expect("connect primary");
    pc.shutdown_server().expect("shutdown primary");
    h_prim.wait();
    assert_eq!(client.count(&[1]).expect("count after failover").support, N);
    use std::sync::atomic::Ordering;
    assert_eq!(coordinator.shard_faults()[0].failovers.load(Ordering::Relaxed), 1);
    assert_eq!(coordinator.shard_faults()[1].failovers.load(Ordering::Relaxed), 0);

    // The promoted follower now takes shard 0's writes: inserts keep
    // routing, exactly-once still composes.
    client.insert_with_id(4, &batch(N, 20)).expect("insert after failover");
    let retry = client.insert_with_id(4, &batch(N, 20)).expect("retry");
    assert!(retry.deduped);
    assert_eq!(client.count(&[1]).expect("count").support, N + 20);

    // Mining still scatters cleanly over the failed-over topology.
    let mine = client
        .mine(Scheme::Dfp, SupportThreshold::Count(10), 2)
        .expect("mine after failover");
    assert_eq!(mine.rows, N + 20);

    client.shutdown_server().expect("shutdown coordinator");
    ch.wait();
    h_fol.join();
    h1.join();
}

/// Requests a shard server's stats document counts for one endpoint.
fn endpoint_requests(addr: &str, endpoint: &str) -> u64 {
    let json = Client::connect_tcp(addr.to_string())
        .expect("connect shard")
        .stats()
        .expect("shard stats");
    let key = format!("\"{endpoint}\":{{\"requests\":");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("no {endpoint} in {json}"));
    json[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("request counter")
}

/// The hop count is a contract: an exact COUNT or COUNT_MANY through the
/// coordinator is exactly one `COUNT_MANY` frame per shard and pins
/// nothing (no `COUNT_MANY_AT`), while a MINE pins every shard once — one
/// `COUNT_MANY_AT` — and pulls its rows.
#[test]
fn a_coordinator_count_is_one_frame_per_shard_and_mining_pins_once() {
    let (h0, a0, _g0) = shard_server("hops_s0", cfg());
    let (h1, a1, _g1) = shard_server("hops_s1", cfg());
    let addrs = vec![a0, a1];
    let coordinator =
        CoordinatorEngine::connect(topology_for(&addrs, &[None, None]), opts()).expect("connect");
    assert!(matches!(
        coordinator.insert(1, &batch(0, 40)),
        Response::Ok(_)
    ));

    let tally = |endpoint: &str| -> Vec<u64> {
        addrs
            .iter()
            .map(|a| endpoint_requests(a, endpoint))
            .collect()
    };
    let (counts0, pins0) = (tally("count_many"), tally("count_many_at"));
    let pulls0 = tally("rows_pull");
    const N: u64 = 7;
    for i in 0..N {
        let itemsets = if i % 2 == 0 {
            vec![vec![1]]
        } else {
            vec![vec![1], vec![1, 9], vec![77]]
        };
        let queries = itemsets.len();
        let supports = match coordinator.handle(&Request::CountMany { itemsets }) {
            Response::Ok(bbs_server::Reply::CountMany { supports, rows, .. }) => {
                assert_eq!(rows, 40);
                supports
            }
            other => panic!("count {i}: {other:?}"),
        };
        // Item 1 is in every row, so its estimate is exact.
        assert_eq!((supports.len(), supports[0]), (queries, 40), "count {i}");
    }
    let plus = |base: &[u64], n: u64| base.iter().map(|v| v + n).collect::<Vec<u64>>();
    assert_eq!(tally("count_many"), plus(&counts0, N));
    assert_eq!(tally("count_many_at"), pins0);

    let mine = coordinator
        .mine(Scheme::Dfp, SupportThreshold::Count(10), 1)
        .expect("mine");
    assert_eq!(mine.2, 40);
    assert_eq!(tally("count_many_at"), plus(&pins0, 1));
    assert_eq!(tally("count_many"), plus(&counts0, N));
    for (shard, (now, before)) in tally("rows_pull").iter().zip(&pulls0).enumerate() {
        assert!(now > before, "shard {shard}: the mine pulled no rows");
    }

    coordinator.join();
    h0.join();
    h1.join();
}

/// A coordinator's counts never evict the pin of a MINE or PROBE in
/// flight: a shard keeps only a few pins, and a count takes none of them.
/// Pin A, then four times commit on the shard and count through the
/// coordinator: A still answers A's rows.
#[test]
fn coordinator_counts_leave_a_requests_pin_in_place() {
    let (h0, a0, _g0) = shard_server("keep_s0", cfg());
    let (h1, a1, _g1) = shard_server("keep_s1", cfg());
    let coordinator =
        CoordinatorEngine::connect(topology_for(&[a0.clone(), a1], &[None, None]), opts())
            .expect("connect");
    let mut direct = Client::connect_tcp(a0).expect("connect shard 0");
    direct.insert(&batch(0, 10)).expect("insert");

    let a = Node::pin(&coordinator.handles()[0], &coordinator.shard_faults()[0]).expect("pin A");
    for i in 0..4 {
        direct
            .insert(&batch(10 + i, 1))
            .expect("insert on the shard directly");
        coordinator.count_many(&[vec![1]]).expect("count");
    }
    let view = RemoteShardHandle::mine_view(&a).expect("A is still pinned");
    assert_eq!(view.live_rows(), RemoteShardHandle::rows(&a));
    assert_eq!(view.live_rows(), 10);

    coordinator.join();
    h0.join();
    h1.join();
}

/// The coordinator's STATS outlive a maintenance fan-out: each leg
/// reports its shard's width, and the next count its rows and epoch.
#[test]
fn coordinator_stats_report_the_shards_after_a_compaction() {
    const N: u64 = 30;
    let (h0, a0, _g0) = shard_server("gauge_s0", cfg());
    let (h1, a1, _g1) = shard_server("gauge_s1", cfg());
    let coordinator = CoordinatorEngine::connect(topology_for(&[a0, a1], &[None, None]), opts())
        .expect("connect");
    assert!(matches!(
        coordinator.insert(1, &batch(0, N)),
        Response::Ok(_)
    ));
    let compact = Request::Maintain {
        action: bbs_server::maintain_action::COMPACT,
        arg: 0,
    };
    assert!(matches!(coordinator.handle(&compact), Response::Ok(_)));
    coordinator.count_many(&[vec![1]]).expect("count");

    let Response::Ok(bbs_server::Reply::Stats { json }) = coordinator.handle(&Request::Stats)
    else {
        panic!("stats");
    };
    assert!(
        json.contains(&format!("\"shard_width\":[{WIDTH},{WIDTH}]")),
        "{json}"
    );
    assert!(json.contains(&format!("\"width\":{WIDTH}")), "{json}");
    assert!(json.contains(&format!("\"rows\":{N}")), "{json}");
    assert!(json.contains("\"shard_rows\":[15,15]"), "{json}");

    coordinator.join();
    h0.join();
    h1.join();
}

/// A request's pin reads its own cut.  Pin A, commit more rows on the
/// shard, pin B on the same handle: A's mining view and A's counts still
/// answer A's rows, not the newer epoch the handle now holds.
#[test]
fn a_remote_pin_reads_its_own_cut_not_the_handles_latest() {
    let (h, addr, _g) = shard_server("own_pin", cfg());
    let mut direct = Client::connect_tcp(addr.clone()).expect("connect shard");
    direct.insert(&batch(0, 20)).expect("insert");
    let faults = Arc::new(ShardFaults::default());
    let handle = RemoteShardHandle::connect(0, &addr, None, opts().remote, Arc::clone(&faults))
        .expect("connect handle");

    let a = Node::pin(&handle, &faults).expect("pin A");
    direct
        .insert(&batch(20, 10))
        .expect("insert on the shard directly");
    let b = Node::pin(&handle, &faults).expect("pin B");
    let rows = RemoteShardHandle::rows;
    assert_eq!((rows(&a), rows(&b)), (20, 30));

    let view = |pin| RemoteShardHandle::mine_view(pin).expect("mining view");
    assert_eq!(view(&a).live_rows(), rows(&a));
    assert_eq!(view(&b).live_rows(), rows(&b));
    let ones = [Itemset::from_values(&[1])];
    assert_eq!(view(&a).tally(&ones).expect("count at A"), vec![20]);
    assert_eq!(view(&b).tally(&ones).expect("count at B"), vec![30]);
    assert_ne!(RemoteShardHandle::epoch(&a), RemoteShardHandle::epoch(&b));

    h.join();
}
