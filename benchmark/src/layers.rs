//! The traced run: one workload's generated stream replayed through every
//! layer's public entry point, from outside, with a span around each call.
//!
//! "µs per itemset" rows are all measured on the same `count_many` frames of
//! 64, so the cost of a layer is the difference of two adjacent rows of its
//! chain (README.md prints the chains).  Rows marked exact in
//! [`crate::spec::LAYER`] are counts taken over a fixed number of operations
//! by one client with no timer involved: they repeat exactly.
//!
//! Three deployments are built from the workload's rows:
//!
//! * **A** — base and tail applied offline (so `weblog-churn` carries its
//!   tombstones): read seams, cache rows, mining;
//! * **B** — the live rows over four shards: scatter seams;
//! * **C** — the base, then the tail replayed through
//!   `SharedDeployment::commit` and a served engine whose backends are
//!   wrapped in [`TracedBackend`]: write path and maintenance.

use crate::deploy::{
    build_offline, deployment_bytes, DataDir, Served, Shape, CLIENT_TIMEOUT, OFFLINE_CACHE_PAGES,
};
use crate::e2e::{mined_patterns, pool_frames, wire_rows, Layout, Tally, WorkloadSpec};
use crate::gen::{generate, Frame, Inputs, Scale, BATCH, SHARDS, WIDTH};
use crate::oracle::{hasher, Expected};
use crate::stats::{median, quantile, sorted};
use crate::trace::Tracer;
use bbs_apriori::AprioriMiner;
use bbs_bitslice::ops_simd;
use bbs_core::{BbsMiner, Scheme};
use bbs_fptree::FpGrowthMiner;
use bbs_remote::{RemoteOptions, RemoteShardHandle};
use bbs_server::{
    maintain_action, serve, Bind, Client, Engine, Reply, Request, Response, ServerConfig,
    ShardFaults, ShardedEngine,
};
use bbs_shard::{count_many_sharded, mine_sharded, DiskShardHandle, ShardedDeployment};
use bbs_storage::{
    deployment_paths, mine_in_place, BackendFactory, DiskDeployment, DynBackend, FileBackend,
    SharedDeployment, SliceFile, StorageBackend,
};
use bbs_tdb::{FrequentPatternMiner, Itemset, SupportThreshold, Transaction};
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Pages of the cold read-only cache rows: a read never dirties a page, so
/// unlike the served `quest-cold` cache this one can be far smaller than an
/// append's working set.
const COLD_READ_PAGES: usize = 64;
/// The warm cache rows and every seam use the cache that fits.
const WARM_PAGES: usize = 8_192;

/// Operations per seam.  Fixed counts, not windows: the exact rows must
/// repeat and a traced run has no throughput to report.
struct Budget {
    /// `count_many` frames per seam.
    frames: usize,
    /// Single `count` calls per seam.
    counts: usize,
}

impl Budget {
    fn new(scale: Scale) -> Budget {
        match scale {
            Scale::Full => Budget {
                frames: 128,
                counts: 2_048,
            },
            Scale::Smoke => Budget {
                frames: 8,
                counts: 64,
            },
        }
    }
}

pub struct Outcome {
    pub tally: Tally,
    /// Every per-layer metric, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    pub spans_path: PathBuf,
    /// Totals per span name, largest self time first.
    pub self_times: Vec<(String, crate::trace::NameTotals)>,
    pub digest: u64,
}

/// The per-layer table being filled in.
struct Table {
    values: HashMap<&'static str, f64>,
    tally: Tally,
}

impl Table {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            crate::spec::LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values[name]
    }
}

/// Calls `op(i)` a warm-up tenth of `calls` times unrecorded, then `calls`
/// times under a `name` span each; returns each call's microseconds.
fn measure(tracer: &Tracer, name: &str, calls: usize, mut op: impl FnMut(usize)) -> Vec<f64> {
    for i in 0..calls.div_ceil(10) {
        op(i);
    }
    (0..calls)
        .map(|i| {
            let t0 = Instant::now();
            tracer.span(name, || op(i));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Median call of a `count_many` seam, per itemset.
fn per_itemset(frame_us: &[f64]) -> f64 {
    median(frame_us) / BATCH as f64
}

fn secs_of<R>(tracer: &Tracer, name: &str, f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let result = tracer.span(name, f);
    (t0.elapsed().as_secs_f64(), result)
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// A file backend that reports every write and sync as a span (a child of
/// whatever commit is in progress) and counts them.
struct TracedBackend {
    inner: FileBackend,
    write_span: String,
    sync_span: String,
    tracer: Arc<Tracer>,
    io: Arc<IoCounts>,
}

#[derive(Default)]
struct IoCounts {
    writes: AtomicU64,
    write_bytes: AtomicU64,
    syncs: AtomicU64,
}

impl IoCounts {
    fn snapshot(&self) -> [u64; 3] {
        [
            self.writes.load(Ordering::Relaxed),
            self.write_bytes.load(Ordering::Relaxed),
            self.syncs.load(Ordering::Relaxed),
        ]
    }
}

impl StorageBackend for TracedBackend {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_at(offset, buf)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.io.writes.fetch_add(1, Ordering::Relaxed);
        self.io
            .write_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        let inner = &mut self.inner;
        self.tracer
            .span(&self.write_span, || inner.write_at(offset, data))
    }

    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.io.syncs.fetch_add(1, Ordering::Relaxed);
        let inner = &mut self.inner;
        self.tracer.span(&self.sync_span, || inner.sync())
    }
}

fn traced_factory(tracer: &Arc<Tracer>, io: &Arc<IoCounts>) -> BackendFactory {
    let (tracer, io) = (Arc::clone(tracer), Arc::clone(io));
    Arc::new(move |tag, path| {
        Ok(Box::new(TracedBackend {
            inner: FileBackend::open(path)?,
            write_span: format!("write_at.{tag}"),
            sync_span: format!("sync.{tag}"),
            tracer: Arc::clone(&tracer),
            io: Arc::clone(&io),
        }) as DynBackend)
    })
}

fn server_config(cache_pages: usize) -> ServerConfig {
    ServerConfig {
        width: WIDTH,
        cache_pages,
        ..ServerConfig::default()
    }
}

fn single(cache_pages: usize) -> Shape {
    Shape::Single { cache_pages }
}

pub fn run(
    spec: &WorkloadSpec,
    scale: Scale,
    seed: u64,
    data: &DataDir,
    spans_path: PathBuf,
) -> io::Result<Outcome> {
    let tracer = Arc::new(Tracer::new());
    let budget = Budget::new(scale);
    let mut table = Table {
        values: HashMap::new(),
        tally: Tally::default(),
    };

    // Set-up rows: generation, and the offline build of deployment A.
    let (generate_s, inputs) = secs_of(&tracer, "datagen.generate", || {
        generate(spec.dataset, spec.sizes(scale), seed)
    });
    table.set("datagen.generate_s", generate_s);
    let a = Layout::new(data, "a", single(WARM_PAGES))?;
    let every_frame = coalesced(inputs.base.iter().chain(&inputs.tail));
    let (build_s, built) = secs_of(&tracer, "storage.build", || {
        build_offline(single(WARM_PAGES), &a.root, &every_frame)
    });
    built?;
    table.set("storage.build_s", build_s);
    let expected = Expected::build(&inputs);

    let frames = Frames::of(&inputs.pool);
    let served_mine_s = tracer.span("phase.read-seams", || {
        read_seams(
            &tracer, &budget, &inputs, &frames, &expected, &a, &mut table,
        )
    })?;
    tracer.span("phase.mining", || {
        mining(&tracer, &inputs, &expected, &a, served_mine_s, &mut table)
    })?;
    tracer.span("phase.scatter-seams", || {
        scatter_seams(
            &tracer, &budget, &inputs, &frames, &expected, data, &mut table,
        )
    })?;
    tracer.span("phase.write-path", || {
        write_path(&tracer, spec, scale, &inputs, seed, data, &mut table)
    })?;

    tracer.write(&spans_path)?;
    let mut metrics = Vec::with_capacity(crate::spec::LAYER.len());
    for m in &crate::spec::LAYER {
        let value = table.values.get(m.name).copied().ok_or_else(|| {
            io::Error::other(format!("the traced run did not measure {}", m.name))
        })?;
        metrics.push((m.name, value));
    }
    let mut self_times: Vec<_> = tracer.totals().into_iter().collect();
    self_times.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    Ok(Outcome {
        tally: table.tally,
        metrics,
        spans_path,
        self_times,
        digest: inputs.digest,
    })
}

/// `frames` with every run of consecutive inserts merged into one, so that
/// building A commits in [`crate::gen::BUILD_BATCH_ROWS`]-row batches like
/// any offline build instead of once per wire frame.
fn coalesced<'a>(frames: impl Iterator<Item = &'a Frame>) -> Vec<Frame> {
    let mut out: Vec<Frame> = Vec::new();
    for frame in frames {
        match (out.last_mut(), frame) {
            (Some(Frame::Insert(rows)), Frame::Insert(more)) => rows.extend_from_slice(more),
            _ => out.push(frame.clone()),
        }
    }
    out
}

/// The pool cut into `count_many` frames, in the three forms the layers
/// take them; built once, outside every timed call.
struct Frames<'a> {
    refs: Vec<Vec<&'a [u32]>>,
    sets: Vec<Vec<Itemset>>,
    owned: Vec<Vec<Vec<u32>>>,
}

impl<'a> Frames<'a> {
    fn of(pool: &'a [Vec<u32>]) -> Frames<'a> {
        let refs = pool_frames(pool);
        Frames {
            sets: refs
                .iter()
                .map(|f| f.iter().map(|q| Itemset::from_values(q)).collect())
                .collect(),
            owned: refs
                .iter()
                .map(|f| f.iter().map(|q| q.to_vec()).collect())
                .collect(),
            refs,
        }
    }

    fn len(&self) -> usize {
        self.refs.len()
    }
}

/// What a failed call "answered": no oracle accepts it, so the failure is
/// counted where the seam's answers are checked.
fn no_answer() -> Vec<u64> {
    vec![u64::MAX]
}

/// Checks one frame's supports against the oracle's BBS estimates.
fn frame_ok(expected: &Expected, frame: usize, supports: &[u64]) -> bool {
    supports
        .iter()
        .enumerate()
        .all(|(k, &s)| expected.count_ok(frame * BATCH + k, s))
}

/// Records, per frame a seam visited, whether its last answer was right,
/// and clears the answers for the next seam.  `masked = false` is the bare
/// kernel, which knows no tombstones and may only overcount.
fn check_frames(table: &mut Table, expected: &Expected, answers: &mut [Vec<u64>], masked: bool) {
    for (f, supports) in answers.iter_mut().enumerate() {
        if supports.is_empty() {
            continue;
        }
        let ok = if masked {
            frame_ok(expected, f, supports)
        } else {
            supports
                .iter()
                .enumerate()
                .all(|(k, &s)| s != u64::MAX && s >= expected.estimate[f * BATCH + k])
        };
        table.tally.record(ok);
        supports.clear();
    }
}

/// Returns the seconds one served MINE took over TCP, for `mining`'s
/// overhead row.
fn read_seams(
    tracer: &Tracer,
    budget: &Budget,
    inputs: &Inputs,
    frames: &Frames<'_>,
    expected: &Expected,
    a: &Layout,
    table: &mut Table,
) -> io::Result<f64> {
    let pool = &inputs.pool;
    let Frames { refs, sets, owned } = frames;
    let n = frames.len();
    // What each seam answered for each frame on its last visit, checked
    // after the seam's timed calls.
    let mut answers: Vec<Vec<u64>> = vec![Vec::new(); n];
    // hash → positions, on the deployment's own DiskBbs.
    let dep = DiskDeployment::open(&a.root, WIDTH, hasher(), WARM_PAGES)?;
    let frame_positions = |f: usize| -> Vec<Vec<usize>> {
        sets[f]
            .iter()
            .map(|q| dep.index.query_positions(q))
            .collect()
    };
    let positions: Vec<Vec<Vec<usize>>> = (0..n).map(frame_positions).collect();
    let us = measure(tracer, "hash.positions", budget.frames, |i| {
        std::hint::black_box(frame_positions(inputs.frame_order[i % n]));
    });
    table.set("hash.positions_us_per_itemset", per_itemset(&us));

    // The AND/popcount kernel on slices held in RAM.
    let rows = dep.db.len();
    let words = (rows as usize).div_ceil(64);
    let mut slices: HashMap<usize, Vec<u64>> = HashMap::new();
    for p in positions.iter().flatten().flatten() {
        if !slices.contains_key(p) {
            slices.insert(*p, dep.index.load_slice(*p)?.words().to_vec());
        }
    }
    let operands: Vec<Vec<Vec<&[u64]>>> = positions
        .iter()
        .map(|frame| {
            frame
                .iter()
                .map(|q| q.iter().map(|p| slices[p].as_slice()).collect())
                .collect()
        })
        .collect();
    let us = measure(tracer, "bitslice.and_count", budget.frames, |i| {
        let f = inputs.frame_order[i % n];
        answers[f] = operands[f]
            .iter()
            .map(|srcs| ops_simd::and_all_count_bounded(srcs, words, None) as u64)
            .collect();
    });
    table.set("bitslice.and_count_us_per_itemset", per_itemset(&us));
    check_frames(table, expected, &mut answers, false);
    let anded: usize = positions.iter().flatten().map(|q| q.len() * words).sum();
    table.set(
        "bitslice.words_anded_per_itemset",
        anded as f64 / pool.len() as f64,
    );

    // SliceFile, positions precomputed, tombstones masked.
    let dead = dep.dead_mask();
    let queries: Vec<Vec<(Vec<usize>, Option<u64>)>> = positions
        .iter()
        .map(|frame| frame.iter().map(|q| (q.clone(), None)).collect())
        .collect();
    let slices_path = deployment_paths(&a.root).slices;
    {
        let file = SliceFile::open(&slices_path, WIDTH, WARM_PAGES)?;
        let us = measure(tracer, "storage.slicefile", budget.frames, |i| {
            let f = inputs.frame_order[i % n];
            answers[f] = file
                .count_selected_many_masked(&queries[f], Some(dead.as_ref()))
                .unwrap_or_else(|_| no_answer());
        });
        table.set("storage.slicefile_us_per_itemset", per_itemset(&us));
        check_frames(table, expected, &mut answers, true);
    }

    // Page cache, one client, a fixed number of frames: exact counts.
    for (pages, cold) in [(WARM_PAGES, false), (COLD_READ_PAGES, true)] {
        let file = SliceFile::open(&slices_path, WIDTH, pages)?;
        for i in 0..budget.frames {
            file.count_selected_many_masked(
                &queries[inputs.frame_order[i % n]],
                Some(dead.as_ref()),
            )?;
        }
        let itemsets = (budget.frames * BATCH) as f64;
        let cache = file.cache_stats();
        let ratio = cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64;
        if cold {
            table.set("storage.cache_hit_ratio_cold", ratio);
            table.set(
                "storage.pager_reads_per_itemset_cold",
                file.pager_stats().reads as f64 / itemsets,
            );
            table.set("storage.cache_evictions_cold", cache.evictions as f64);
        } else {
            table.set("storage.cache_hit_ratio_warm", ratio);
            table.set(
                "storage.hot_hits_per_itemset",
                file.hot_stats().hits as f64 / itemsets,
            );
        }
    }
    drop(dep);

    // Snapshot → Engine → handle(): in process, no wire.
    let shared = SharedDeployment::open(&a.root, WIDTH, hasher(), WARM_PAGES)?;
    let snap = shared.snapshot();
    let us = measure(tracer, "storage.snapshot", budget.frames, |i| {
        let f = inputs.frame_order[i % n];
        answers[f] = snap.count_many(&sets[f]).unwrap_or_else(|_| no_answer());
    });
    table.set("storage.snapshot_us_per_itemset", per_itemset(&us));
    check_frames(table, expected, &mut answers, true);
    let single_sets: Vec<Itemset> = pool.iter().map(|q| Itemset::from_values(q)).collect();
    let mut single_answers: Vec<Option<u64>> = vec![None; pool.len()];
    let check_singles = |table: &mut Table, single_answers: &mut Vec<Option<u64>>| {
        for (idx, answer) in single_answers.iter_mut().enumerate() {
            if let Some(s) = answer.take() {
                table.tally.record(expected.count_ok(idx, s));
            }
        }
    };
    let us = measure(tracer, "storage.snapshot_count", budget.counts, |i| {
        let idx = inputs.count_order[i % pool.len()];
        single_answers[idx] = Some(snap.count(&single_sets[idx]).unwrap_or(u64::MAX));
    });
    table.set("storage.snapshot_count_us", median(&us));
    check_singles(table, &mut single_answers);
    drop(snap);

    let engine = Engine::with_shared(shared, server_config(WARM_PAGES))?;
    let us = measure(tracer, "server.engine", budget.frames, |i| {
        let f = inputs.frame_order[i % n];
        answers[f] = engine
            .count_many(&owned[f])
            .map_or_else(|_| no_answer(), |(supports, _)| supports);
    });
    table.set("server.engine_us_per_itemset", per_itemset(&us));
    check_frames(table, expected, &mut answers, true);
    let us = measure(tracer, "server.engine_count", budget.counts, |i| {
        let idx = inputs.count_order[i % pool.len()];
        single_answers[idx] = Some(engine.count(&pool[idx]).map_or(u64::MAX, |(s, _)| s));
    });
    table.set("server.engine_count_us", median(&us));
    check_singles(table, &mut single_answers);

    let requests: Vec<Request> = owned
        .iter()
        .map(|f| Request::CountMany {
            itemsets: f.clone(),
        })
        .collect();
    let mut responses: Vec<Option<Response>> = (0..n).map(|_| None).collect();
    let us = measure(tracer, "server.handle", budget.frames, |i| {
        let f = inputs.frame_order[i % n];
        responses[f] = Some(engine.handle(&requests[f]));
    });
    table.set("server.handle_us_per_itemset", per_itemset(&us));
    for (f, response) in responses.iter().enumerate() {
        if let Some(Response::Ok(Reply::CountMany { supports, .. })) = response {
            table.tally.record(frame_ok(expected, f, supports));
        } else if response.is_some() {
            table.tally.record(false);
        }
    }

    // The codec alone: the same request and response frames, encoded and
    // decoded once each, as one round trip does.
    let mut codec_ok = true;
    let us = measure(tracer, "server.proto", budget.frames, |i| {
        let f = inputs.frame_order[i % n];
        let request = Request::decode(&requests[f].encode());
        let response = responses[f].as_ref().map(|r| Response::decode(&r.encode()));
        codec_ok &= request.is_ok() && response.is_some_and(|r| r.is_ok());
    });
    table.set("server.proto_us_per_itemset", per_itemset(&us));
    table.tally.record(codec_ok);

    // Over the wire: Unix socket, then TCP.
    let socket = a.dir.join("bench.sock");
    let handle = serve(
        engine,
        &Bind {
            tcp: Some("127.0.0.1:0".into()),
            unix: Some(socket.clone()),
        },
    )?;
    let tcp_addr = handle.tcp_addr().expect("a TCP listener was requested");
    let mut unix = Client::connect_unix(&socket).map_err(other)?;
    let mut tcp = Client::connect_tcp(tcp_addr).map_err(other)?;
    for client in [&mut unix, &mut tcp] {
        client.set_timeout(Some(CLIENT_TIMEOUT)).map_err(other)?;
    }
    for (client, frames_row, ping_row) in [
        (
            &mut unix,
            "server.unix_us_per_itemset",
            "server.ping_unix_rtt_us",
        ),
        (&mut tcp, "server.tcp_us_per_itemset", "server.ping_rtt_us"),
    ] {
        let us = measure(tracer, frames_row, budget.frames, |i| {
            let f = inputs.frame_order[i % n];
            answers[f] = client
                .count_many(&refs[f])
                .map_or_else(|_| no_answer(), |r| r.supports);
        });
        table.set(frames_row, per_itemset(&us));
        check_frames(table, expected, &mut answers, true);
        let mut pongs = true;
        let us = measure(tracer, ping_row, budget.counts, |_| {
            pongs &= client.ping().is_ok();
        });
        table.set(ping_row, median(&us));
        table.tally.record(pongs);
    }
    let us = measure(tracer, "server.tcp_count", budget.counts, |i| {
        let idx = inputs.count_order[i % pool.len()];
        single_answers[idx] = Some(tcp.count(&pool[idx]).map_or(u64::MAX, |r| r.support));
    });
    let sorted_us = sorted(us);
    table.set("server.tcp_count_us", quantile(&sorted_us, 0.5));
    table.set("server.tcp_count_p95_us", quantile(&sorted_us, 0.95));
    table.set("server.tcp_count_p99_us", quantile(&sorted_us, 0.99));
    check_singles(table, &mut single_answers);

    // What the spans themselves cost: the TCP frames again, unrecorded.
    let untraced: Vec<f64> = (0..budget.frames)
        .map(|i| {
            let t0 = Instant::now();
            let _ = tcp.count_many(&refs[inputs.frame_order[i % n]]);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    table.set(
        "trace.overhead_ratio",
        table.get("server.tcp_us_per_itemset") / per_itemset(&untraced),
    );

    // Served MINE on the same server, for the overhead row of `mining`.
    let (mine_s, reply) = secs_of(tracer, "server.tcp_mine", || {
        tcp.mine(Scheme::Dfp, SupportThreshold::Count(inputs.tau), 1)
    });
    table
        .tally
        .record(reply.is_ok_and(|r| expected.patterns_match(&r.patterns)));
    drop((unix, tcp));
    handle.join();
    Ok(mine_s)
}

fn mining(
    tracer: &Tracer,
    inputs: &Inputs,
    expected: &Expected,
    a: &Layout,
    served_mine_s: f64,
    table: &mut Table,
) -> io::Result<()> {
    let threshold = SupportThreshold::Count(inputs.tau);
    let shared = SharedDeployment::open(&a.root, WIDTH, hasher(), WARM_PAGES)?;
    let (load_s, loaded) = secs_of(tracer, "storage.snapshot_load", || shared.snapshot().load());
    let (db, bbs) = loaded?;
    drop(shared);
    table.set("storage.snapshot_load_s", load_s);

    for (scheme, row) in [
        (Scheme::Dfp, "core.mine_dfp_s"),
        (Scheme::Dfs, "core.mine_dfs_s"),
        (Scheme::Sfp, "core.mine_sfp_s"),
        (Scheme::Sfs, "core.mine_sfs_s"),
    ] {
        let mut miner = BbsMiner::with_index(scheme, bbs.clone());
        let (secs, result) = secs_of(tracer, row, || miner.mine(&db, threshold));
        table.set(row, secs);
        table
            .tally
            .record(expected.patterns_match(&mined_patterns(&result)));
        if scheme == Scheme::Dfp {
            let stats = &result.stats;
            table.set("core.candidates", stats.candidates as f64);
            table.set("core.false_drops", stats.false_drops as f64);
            table.set("core.bbs_counts", stats.bbs_counts as f64);
            table.set(
                "core.certified_ratio",
                stats.certified as f64 / stats.candidates.max(1) as f64,
            );
        }
    }
    // The served MINE of `read_seams` minus what it is made of.
    table.set(
        "server.mine_overhead_s",
        served_mine_s - load_s - table.get("core.mine_dfp_s"),
    );

    // The two reference miners of the paper's Fig. 6 (FP-growth is also
    // the oracle every mined set was just compared with).
    let (secs, result) = secs_of(tracer, "fptree.mine", || {
        FpGrowthMiner::new().mine(&db, threshold)
    });
    table.set("fptree.mine_s", secs);
    table
        .tally
        .record(expected.patterns_match(&mined_patterns(&result)));
    let (secs, result) = secs_of(tracer, "apriori.mine", || {
        AprioriMiner::new().mine(&db, threshold)
    });
    table.set("apriori.mine_s", secs);
    table
        .tally
        .record(expected.patterns_match(&mined_patterns(&result)));

    // In place, off the files, as the CLI does it.
    let mut dep = DiskDeployment::open(&a.root, WIDTH, hasher(), OFFLINE_CACHE_PAGES)?;
    let (secs, mined) = secs_of(tracer, "storage.mine_inplace", || {
        mine_in_place(&mut dep, Scheme::Dfp, threshold, 1)
    });
    let (result, stats) = mined?;
    table.set("storage.mine_inplace_s", secs);
    table.set("storage.mine_pager_reads", stats.pager.reads as f64);
    table.set(
        "storage.mine_cache_hit_ratio",
        stats.hit_rate().unwrap_or(0.0),
    );
    table
        .tally
        .record(expected.patterns_match(&mined_patterns(&result)));
    Ok(())
}

fn scatter_seams(
    tracer: &Tracer,
    budget: &Budget,
    inputs: &Inputs,
    frames: &Frames<'_>,
    expected: &Expected,
    data: &DataDir,
    table: &mut Table,
) -> io::Result<()> {
    let shape = Shape::Scatter {
        cache_pages: WARM_PAGES,
    };
    let b = Layout::new(data, "b", shape)?;
    build_offline(shape, &b.root, &[Frame::Insert(inputs.live.clone())])?;
    let pool = &inputs.pool;
    let Frames { refs, sets, owned } = frames;
    let n = frames.len();
    let threshold = SupportThreshold::Count(inputs.tau);
    let mut answers: Vec<Vec<u64>> = vec![Vec::new(); n];

    // Gather over four disk handles, then the local shard router.
    {
        let dep = ShardedDeployment::open(&b.root, hasher(), WARM_PAGES)?;
        let handles: Vec<DiskShardHandle<'_>> = dep
            .shards()
            .iter()
            .map(|s| DiskShardHandle::new(&s.index, s.db.len()))
            .collect();
        let us = measure(tracer, "shard.gather", budget.frames, |i| {
            let f = inputs.frame_order[i % n];
            answers[f] =
                count_many_sharded(&handles, &sets[f], None).unwrap_or_else(|_| no_answer());
        });
        table.set("shard.gather_us_per_itemset", per_itemset(&us));
        check_frames(table, expected, &mut answers, true);
    }
    {
        let router = ShardedEngine::open(&b.root, server_config(WARM_PAGES))?;
        let us = measure(tracer, "server.sharded", budget.frames, |i| {
            let f = inputs.frame_order[i % n];
            answers[f] = router
                .count_many(&owned[f])
                .map_or_else(|_| no_answer(), |(supports, _, _)| supports);
        });
        table.set("server.sharded_us_per_itemset", per_itemset(&us));
        check_frames(table, expected, &mut answers, true);
        // Two writers must never share the shard files: the router is
        // drained and joined before the shard servers open them.
        bbs_server::RequestHandler::begin_drain(&*router);
        bbs_server::RequestHandler::join(&*router);
    }

    // Four shard servers and the coordinator, every hop loopback TCP.
    let served = Served::start(shape, &b.root)?;
    let shard_addrs = served.shard_addrs();
    let connect = |shard: usize| {
        RemoteShardHandle::connect(
            shard as u32,
            &shard_addrs[shard],
            None,
            RemoteOptions::default(),
            Arc::new(ShardFaults::default()),
        )
    };
    let remote = connect(0)?;
    let mut pinned = true;
    let us = measure(tracer, "remote.handle_pin", budget.counts / 4, |_| {
        pinned &= remote.repin().is_ok();
    });
    table.set("remote.handle_pin_us", median(&us));
    table.tally.record(pinned);
    // One shard's share of each frame; its answers are partial sums, so
    // only their arrival is checked.
    let mut answered = true;
    let us = measure(tracer, "remote.handle_count", budget.frames, |i| {
        answered &= remote
            .count_many_pinned(&owned[inputs.frame_order[i % n]], None)
            .is_ok();
    });
    table.set("remote.handle_count_us_per_itemset", per_itemset(&us));
    table.tally.record(answered);
    drop(remote);
    let (pull_s, pulled) = secs_of(tracer, "remote.rows_pull", || {
        (0..SHARDS)
            .map(|shard| Ok(connect(shard)?.pull_rows().map_err(other)?.len()))
            .sum::<io::Result<usize>>()
    });
    table.set("remote.rows_pull_s", pull_s);
    table.tally.record(pulled? == inputs.live.len());

    let coordinator = Arc::clone(served.coordinator().expect("the scatter shape has one"));
    let us = measure(tracer, "remote.coordinator", budget.frames, |i| {
        let f = inputs.frame_order[i % n];
        answers[f] = coordinator
            .count_many(&owned[f])
            .map_or_else(|_| no_answer(), |(supports, _, _)| supports);
    });
    table.set("remote.coordinator_us_per_itemset", per_itemset(&us));
    check_frames(table, expected, &mut answers, true);
    let singles: Vec<Vec<Vec<u32>>> = pool.iter().map(|q| vec![q.clone()]).collect();
    let mut single_ok = true;
    let us = measure(tracer, "remote.coordinator_count", budget.counts, |i| {
        let idx = inputs.count_order[i % pool.len()];
        single_ok &= coordinator
            .count_many(&singles[idx])
            .is_ok_and(|(s, _, _)| expected.count_ok(idx, s[0]));
    });
    table.set("remote.coordinator_count_us", median(&us));
    table.tally.record(single_ok);
    drop(coordinator);

    let mut client = served.connect()?;
    let us = measure(tracer, "remote.tcp", budget.frames, |i| {
        let f = inputs.frame_order[i % n];
        answers[f] = client
            .count_many(&refs[f])
            .map_or_else(|_| no_answer(), |r| r.supports);
    });
    table.set("remote.tcp_us_per_itemset", per_itemset(&us));
    check_frames(table, expected, &mut answers, true);
    let mut single_ok = true;
    let us = measure(tracer, "remote.tcp_count", budget.counts, |i| {
        let idx = inputs.count_order[i % pool.len()];
        single_ok &= client
            .count(&pool[idx])
            .is_ok_and(|r| expected.count_ok(idx, r.support));
    });
    table.set("remote.tcp_count_us", median(&us));
    table.tally.record(single_ok);
    let (secs, reply) = secs_of(tracer, "remote.mine", || {
        client.mine(Scheme::Dfp, threshold, 1)
    });
    table.set("remote.mine_s", secs);
    table
        .tally
        .record(reply.is_ok_and(|r| expected.patterns_match(&r.patterns)));
    drop(client);
    served.stop();

    let mut dep = ShardedDeployment::open(&b.root, hasher(), OFFLINE_CACHE_PAGES)?;
    let (secs, mined) = secs_of(tracer, "shard.mine_sharded", || {
        mine_sharded(&mut dep, Scheme::Dfp, threshold, 1)
    });
    table.set("shard.mine_sharded_s", secs);
    table
        .tally
        .record(expected.patterns_match(&mined_patterns(&mined?.0)));
    Ok(())
}

/// Sum of `sync.*` span time under spans named `root`, in total and per
/// backend tag.
fn sync_ns_under(tracer: &Tracer, root: &str) -> (u64, HashMap<String, u64>) {
    let spans = tracer.spans();
    let mut total = 0;
    let mut per_tag: HashMap<String, u64> = HashMap::new();
    for span in &spans {
        let Some(tag) = span.name.strip_prefix("sync.") else {
            continue;
        };
        let mut top = span;
        while let Some(parent) = top.parent {
            if spans[parent].name == root {
                let ns = span.end_ns - span.start_ns;
                total += ns;
                *per_tag.entry(tag.to_string()).or_default() += ns;
                break;
            }
            top = &spans[parent];
        }
    }
    (total, per_tag)
}

fn write_path(
    tracer: &Arc<Tracer>,
    spec: &WorkloadSpec,
    scale: Scale,
    inputs: &Inputs,
    seed: u64,
    data: &DataDir,
    table: &mut Table,
) -> io::Result<()> {
    let shape = single(WARM_PAGES);
    let c = Layout::new(data, "c", shape)?;
    build_offline(shape, &c.root, &inputs.base)?;
    let io_counts = Arc::new(IoCounts::default());
    let shared = SharedDeployment::open_with_factory(
        &c.root,
        WIDTH,
        hasher(),
        WARM_PAGES,
        traced_factory(tracer, &io_counts),
    )?;

    // The tail, plus — where it holds no deletes of its own — two frames
    // expiring its first rows, so every workload has tombstones to mask,
    // measure and reclaim.
    let mut frames: Vec<Frame> = inputs.tail.clone();
    if !frames.iter().any(|f| matches!(f, Frame::Delete(_))) {
        let sizes = spec.sizes(scale);
        let tids: Vec<u64> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::Insert(txns) => Some(txns.iter().map(|t| t.tid.0)),
                Frame::Delete(_) => None,
            })
            .flatten()
            .take(2 * sizes.delete_frame_tids)
            .collect();
        let half = frames.len() / 2;
        for (k, chunk) in tids.chunks(sizes.delete_frame_tids).enumerate() {
            // One in each half: the direct replay and the served replay.
            let at = if k == 0 { half } else { frames.len() };
            frames.insert(at, Frame::Delete(chunk.to_vec()));
        }
    }
    let (direct, served_frames) = frames.split_at(frames.len() / 2 + 1);

    // First half: straight into SharedDeployment.
    let mut commit_ms = Vec::new();
    let mut delete_ms = Vec::new();
    let mut commit_io = [0u64; 3];
    let mut user_bytes = 0usize;
    for frame in direct {
        let before = io_counts.snapshot();
        let t0 = Instant::now();
        match frame {
            Frame::Insert(txns) => {
                let receipt = tracer.span("storage.commit", || shared.commit(txns))?;
                commit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                table
                    .tally
                    .record(receipt.rows.end - receipt.rows.start == txns.len() as u64);
                user_bytes += txns.iter().map(Transaction::record_bytes).sum::<usize>();
                let after = io_counts.snapshot();
                for k in 0..3 {
                    commit_io[k] += after[k] - before[k];
                }
            }
            Frame::Delete(tids) => {
                let receipt = tracer.span("storage.delete", || shared.delete_tids(tids, 0))?;
                delete_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                table.tally.record(receipt.deleted == tids.len() as u64);
            }
        }
    }
    if commit_ms.is_empty() || delete_ms.is_empty() {
        return Err(io::Error::other(
            "the direct replay needs inserts and a delete",
        ));
    }
    let commits = commit_ms.len() as f64;
    let (sync_ns, per_tag) = sync_ns_under(tracer, "storage.commit");
    let commit_total_ms: f64 = commit_ms.iter().sum();
    table.set("storage.commit_ms_p50", median(&commit_ms));
    table.set("storage.writes_per_commit", commit_io[0] as f64 / commits);
    table.set("storage.syncs_per_commit", commit_io[2] as f64 / commits);
    table.set("storage.sync_ms_per_commit", sync_ns as f64 / 1e6 / commits);
    for (tag, row) in [
        ("dat", "storage.sync_ms.dat"),
        ("idx", "storage.sync_ms.idx"),
        ("slices", "storage.sync_ms.slices"),
        ("counts", "storage.sync_ms.counts"),
        ("dedup", "storage.sync_ms.dedup"),
        ("log", "storage.sync_ms.log"),
        ("del", "storage.sync_ms.del"),
        ("commit", "storage.sync_ms.commit"),
    ] {
        let ns = per_tag.get(tag).copied().unwrap_or(0);
        table.set(row, ns as f64 / 1e6 / commits);
    }
    table.set(
        "storage.commit_cpu_ms_per_commit",
        (commit_total_ms - sync_ns as f64 / 1e6) / commits,
    );
    table.set(
        "storage.write_bytes_per_txn_byte",
        commit_io[1] as f64 / user_bytes as f64,
    );
    table.set("storage.delete_ms_p50", median(&delete_ms));

    // Second half: the same deployment behind a served engine, one writer.
    let engine = Engine::with_shared(Arc::clone(&shared), server_config(WARM_PAGES))?;
    let handle = serve(
        Arc::clone(&engine),
        &Bind {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
        },
    )?;
    let mut client = Client::connect_tcp(handle.tcp_addr().expect("a TCP listener was requested"))
        .map_err(other)?;
    client.set_timeout(Some(CLIENT_TIMEOUT)).map_err(other)?;
    let wire: Vec<Vec<(u64, Vec<u32>)>> = served_frames.iter().map(wire_rows).collect();
    let mut insert_ms = Vec::new();
    let (mut deleted_tids, mut delete_secs) = (0usize, 0.0);
    // A second connection counts beside the writer for as long as it
    // writes.  It records latencies only: the span stack stays the
    // writer's, so a backend write is still a child of the insert that
    // caused it.
    let mut reader = Client::connect_tcp(handle.tcp_addr().expect("a TCP listener was requested"))
        .map_err(other)?;
    reader.set_timeout(Some(CLIENT_TIMEOUT)).map_err(other)?;
    let writing = std::sync::atomic::AtomicBool::new(true);
    let beside_us = std::thread::scope(|scope| {
        let reading = scope.spawn(|| {
            let mut us = Vec::new();
            let mut i = 0;
            while writing.load(Ordering::Acquire) {
                let idx = inputs.count_order[i % inputs.pool.len()];
                i += 1;
                let t0 = Instant::now();
                if reader.count(&inputs.pool[idx]).is_ok() {
                    us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            }
            us
        });
        for (k, frame) in served_frames.iter().enumerate() {
            let request_id = (seed << 20) ^ (0x8_0000 + k as u64);
            let t0 = Instant::now();
            match frame {
                Frame::Insert(txns) => {
                    let reply = tracer.span("server.insert", || {
                        client.insert_with_id(request_id, &wire[k])
                    });
                    insert_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    table
                        .tally
                        .record(reply.is_ok_and(|r| r.appended == txns.len() as u64));
                }
                Frame::Delete(tids) => {
                    let reply =
                        tracer.span("server.delete", || client.delete_with_id(request_id, tids));
                    delete_secs += t0.elapsed().as_secs_f64();
                    deleted_tids += tids.len();
                    table
                        .tally
                        .record(reply.is_ok_and(|r| r.deleted == tids.len() as u64));
                }
            }
        }
        writing.store(false, Ordering::Release);
        reading.join().expect("reader thread panicked")
    });
    if insert_ms.is_empty() || deleted_tids == 0 || beside_us.is_empty() {
        return Err(io::Error::other(
            "the served replay needs inserts and a delete",
        ));
    }
    let metrics = engine.metrics();
    // The histogram's own quantiles are powers of two; its mean is exact.
    let commit_us = metrics.commit_us.mean() as f64;
    let insert_sorted = sorted(insert_ms);
    let requests = metrics.insert.requests.load(Ordering::Relaxed);
    table.set("server.commit_us_mean", commit_us);
    table.set(
        "server.batches_per_commit",
        requests as f64 / metrics.commit_us.count().max(1) as f64,
    );
    table.set(
        "server.queue_wait_ms_p50",
        quantile(&insert_sorted, 0.5) - commit_us / 1e3,
    );
    table.set("server.insert_p95_ms", quantile(&insert_sorted, 0.95));
    table.set(
        "server.overloaded_ratio",
        metrics.overloaded.load(Ordering::Relaxed) as f64 / requests.max(1) as f64,
    );
    table.set(
        "server.delete_tids_per_s",
        deleted_tids as f64 / delete_secs,
    );
    let beside_sorted = sorted(beside_us);
    table.set(
        "server.count_beside_writer_p50_us",
        quantile(&beside_sorted, 0.5),
    );
    table.set(
        "server.count_beside_writer_p95_us",
        quantile(&beside_sorted, 0.95),
    );

    // Maintenance, through the server as an operator would ask for it.
    let before = client
        .maintain(maintain_action::PROBE_FPR, 64)
        .map_err(other)?;
    table.set(
        "storage.dead_fraction_before_compact",
        before.deleted_rows as f64 / (before.live_rows + before.deleted_rows) as f64,
    );
    table.set("storage.measured_fpr_before", before.fpr);
    let bytes_before = deployment_bytes(&c.dir)?;
    let (compact_s, compacted) = secs_of(tracer, "storage.compact", || {
        client.maintain(maintain_action::COMPACT, 0)
    });
    table
        .tally
        .record(compacted.is_ok_and(|r| r.deleted_rows == 0));
    table.set("storage.compact_s", compact_s);
    table.set(
        "storage.compact_bytes_reclaimed",
        bytes_before.saturating_sub(deployment_bytes(&c.dir)?) as f64,
    );
    let after = client
        .maintain(maintain_action::PROBE_FPR, 64)
        .map_err(other)?;
    table.set("storage.measured_fpr_after", after.fpr);
    let (fold_s, folded) = secs_of(tracer, "storage.fold", || {
        client.maintain(maintain_action::FOLD, 0)
    });
    table
        .tally
        .record(folded.is_ok_and(|r| r.width as usize == WIDTH / 2));
    table.set("storage.fold_s", fold_s);
    drop(client);
    handle.join();
    Ok(())
}
