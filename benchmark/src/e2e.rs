//! The untraced run: one workload, every end-to-end metric.
//!
//! All load is closed loop — the callers of this service are miners and
//! analyst tools that wait for each reply — from at most two client
//! threads, against servers running in this process on loopback.  Phase
//! order is fixed and is part of the definition:
//!
//! 1. set-up (the first of three; the other two follow step 8 and
//!    `setup_s` is the median of the three);
//! 2. ingest the tail through the server: two writers, or on
//!    `weblog-churn` one writer beside one reader whose every reply is
//!    checked against the epoch it names; then a graceful stop;
//! 3. nine boots of the server, each one alternating slices of single
//!    `count` round trips with slices of `count_many` frames of 64, then
//!    serving MINE for a quarter of a second (once at least); every metric
//!    is the median of its slices (or MINEs) over all the boots;
//! 4. on the last boot, one compaction and a check that answers survived;
//! 5. graceful stop, fsck, file sizes;
//! 6. in-place MINE off the files, opened afresh each time as the CLI does:
//!    after the second, fourth and sixth boot, while no server has them
//!    open, and once more after step 5 on what the compaction left;
//! 7. verification of every recorded reply against the oracles;
//! 8. the two remaining set-ups.
//!
//! Ingest discards a warm-up tenth and each boot its first slice of either
//! loop.  Replies are recorded inside timed sections and checked against
//! the oracles in step 7.
//!
//! Why boots, and why slices: where a server's page cache lands in
//! physical memory is fixed when it opens, and the shared host changes
//! speed every second or two.  One boot samples one layout and one
//! contiguous loop samples one stretch of the host however long it is
//! measured; slices of every loop spread over every boot see all of both
//! (README.md, "What keeps the numbers steady").

use crate::deploy::{build_offline, deployment_bytes, DataDir, Served, Shape, OFFLINE_CACHE_PAGES};
use crate::gen::{generate, Dataset, Frame, Inputs, Scale, Sizes, BATCH, WIDTH};
use crate::host::rss_peak_mib;
use crate::oracle::{check_reads_under_write, hasher, Expected, ReadUnderWrite};
use crate::stats::{median, quantile, sorted, windowed_quantile};
use bbs_core::Scheme;
use bbs_server::{maintain_action, Client};
use bbs_shard::{mine_sharded, ShardedDeployment};
use bbs_storage::{mine_in_place, DiskDeployment};
use bbs_tdb::{MineResult, SupportThreshold};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Windows the `weblog-churn` reader's latencies are cut into.
const WINDOWS: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub dataset: Dataset,
    pub shape: Shape,
    /// One writer and one reader share the ingest phase (else two writers).
    pub reader_beside_writer: bool,
    /// The offline-built base is this many times the scale's.
    base_factor: usize,
}

impl WorkloadSpec {
    pub fn sizes(&self, scale: Scale) -> Sizes {
        let sizes = scale.sizes();
        Sizes {
            base_rows: sizes.base_rows * self.base_factor,
            // An insert through the coordinator waits out four commit
            // windows, one shard after the other; twice the rows per frame
            // keeps the scatter ingest phase as long as the others'.
            frame_rows: match self.shape {
                Shape::Single { .. } => sizes.frame_rows,
                Shape::Scatter { .. } => sizes.frame_rows * 2,
            },
            // Weblog sessions are short and the hot set rotates: at the
            // Quest threshold only single files are frequent and a MINE is
            // over in 50 ms.  A quarter of it gives a thousand patterns.
            min_support: match self.dataset {
                Dataset::Quest => sizes.min_support,
                Dataset::WeblogChurn => sizes.min_support / 4.0,
            },
            ..sizes
        }
    }
}

/// A slice page holds 32 768 rows of one slice, so the slice file is
/// 1 600 pages per 32 768 rows.  `CACHE_FITS` holds all of it on every
/// workload but `quest-cold`, whose base is four times as long (73 728
/// rows with the tail: 4 800 slice pages, 18.75 MiB) against a cache of
/// `CACHE_COLD` pages (8 MiB).  The cold cache still holds the 1 600 tail
/// pages an append touches: below that the *write* path thrashes — a
/// 64-page cache makes set-up thirty times slower — and the workload
/// would measure that instead of reads that miss.
const CACHE_FITS: usize = 8_192;
const CACHE_COLD: usize = 2_048;

pub fn workload(name: &str) -> Option<WorkloadSpec> {
    let name = crate::spec::WORKLOADS[crate::spec::workload_index(name)?].name;
    let spec = |dataset, shape, reader_beside_writer, base_factor| WorkloadSpec {
        name,
        dataset,
        shape,
        reader_beside_writer,
        base_factor,
    };
    let single = |cache_pages| Shape::Single { cache_pages };
    Some(match name {
        "quest-warm" => spec(Dataset::Quest, single(CACHE_FITS), false, 1),
        "quest-cold" => spec(Dataset::Quest, single(CACHE_COLD), false, 4),
        "weblog-churn" => spec(Dataset::WeblogChurn, single(CACHE_FITS), true, 1),
        "quest-scatter" => spec(
            Dataset::Quest,
            Shape::Scatter {
                cache_pages: CACHE_FITS,
            },
            false,
            1,
        ),
        _ => unreachable!("every table name has a spec"),
    })
}

/// How `--seconds` is spent.  Ingest, mining and compaction are sized by
/// operation count — the tail is a fixed number of frames, a MINE is a
/// MINE — so that every read phase sees the same deployment on every run;
/// the two read loops share 0.4 × `--seconds` of wall time, each cut into
/// `boots × slices` slices that alternate with the other's.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub boots: usize,
    /// Slices of each read loop per boot.
    pub slices: usize,
    pub slice: Duration,
    /// Each boot serves MINE until this long has gone by, and once at
    /// least: the weblog's MINE is over in a tenth of a second and three of
    /// them measure as long as one does on the larger deployments.
    pub mine_window: Duration,
    pub inplace_reps: usize,
}

impl Plan {
    pub fn new(seconds: f64, scale: Scale) -> Plan {
        let (boots, slices, inplace_reps) = match scale {
            Scale::Full => (9, 4, 4),
            Scale::Smoke => (2, 2, 1),
        };
        let slice = Duration::from_secs_f64(seconds * 0.2 / (boots * slices) as f64);
        Plan {
            boots,
            slices,
            slice,
            mine_window: slice * 5 / 2,
            inplace_reps,
        }
    }
}

/// Operations attempted and failed.  An operation fails when it errors,
/// times out, is refused — or answers wrongly.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The replies of the quiesced read loops in O(pool) memory, so that a
/// faster system (more operations per window) does not also look like a
/// fatter one.  Each operation covers a run of pool entries (one for
/// `count`, a frame for `count_many`); the first answer per entry is kept
/// for the oracle, and an operation that later disagrees with it — a
/// quiesced deployment must repeat itself — or errors is counted on the
/// spot.  The comparison against the oracle is [`Answers::verify`], after
/// the timed sections.
pub struct Answers {
    /// Pool entries per operation.
    len: usize,
    first: Vec<Option<u64>>,
    /// Operations that started at each pool entry.
    hits: Vec<u64>,
    bad: u64,
}

impl Answers {
    pub fn new(pool_len: usize, len: usize) -> Answers {
        Answers {
            len,
            first: vec![None; pool_len],
            hits: vec![0; pool_len],
            bad: 0,
        }
    }

    /// Records the reply to operation number `op` (entries
    /// `op * len .. (op + 1) * len` of the pool, clipped at its end).
    pub fn record(&mut self, op: usize, reply: Option<&[u64]>) {
        let start = op * self.len;
        let len = self.len.min(self.first.len() - start);
        self.hits[start] += 1;
        let consistent = reply.is_some_and(|supports| {
            supports.len() == len
                && supports
                    .iter()
                    .enumerate()
                    .all(|(k, &s)| *self.first[start + k].get_or_insert(s) == s)
        });
        self.bad += u64::from(!consistent);
    }

    pub fn verify(&self, expected: &Expected) -> Tally {
        let mut tally = Tally {
            attempted: self.hits.iter().sum(),
            failed: self.bad,
        };
        for start in (0..self.first.len()).step_by(self.len) {
            let end = (start + self.len).min(self.first.len());
            let wrong =
                (start..end).any(|idx| self.first[idx].is_some_and(|s| !expected.count_ok(idx, s)));
            if wrong {
                tally.failed += self.hits[start];
            }
        }
        tally.failed = tally.failed.min(tally.attempted);
        tally
    }
}

pub struct Outcome {
    pub tally: Tally,
    /// `(metric name, value)` for every end-to-end metric, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts behind the numbers, for the printed table.
    pub samples: Vec<(&'static str, usize)>,
    pub digest: u64,
}

/// Where one deployment lives: a directory of its own, holding the single
/// deployment's files (`root = dir/dep`) or the sharded directory's
/// (`root = dir`), removed when the layout is dropped.
pub struct Layout {
    pub dir: PathBuf,
    pub root: PathBuf,
}

impl Layout {
    pub fn new(data: &DataDir, name: &str, shape: Shape) -> io::Result<Layout> {
        let dir = data.path().join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        let root = match shape {
            Shape::Single { .. } => {
                std::fs::create_dir_all(&dir)?;
                dir.join("dep")
            }
            // `ShardedDeployment::create` makes the directory itself.
            Shape::Scatter { .. } => dir.clone(),
        };
        Ok(Layout { dir, root })
    }
}

impl Drop for Layout {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// One full set-up, timed from the first generated row to the second
/// connected client: what a user waits for before the first request.
fn set_up(
    spec: &WorkloadSpec,
    scale: Scale,
    seed: u64,
    layout: &Layout,
) -> io::Result<(f64, Inputs, Served, Vec<Client>)> {
    let start = Instant::now();
    let inputs = generate(spec.dataset, spec.sizes(scale), seed);
    build_offline(spec.shape, &layout.root, &inputs.base)?;
    let served = Served::start(spec.shape, &layout.root)?;
    let clients = vec![served.connect()?, served.connect()?];
    Ok((start.elapsed().as_secs_f64(), inputs, served, clients))
}

pub fn wire_rows(frame: &Frame) -> Vec<(u64, Vec<u32>)> {
    match frame {
        Frame::Insert(txns) => txns
            .iter()
            .map(|t| (t.tid.0, t.items.items().iter().map(|i| i.0).collect()))
            .collect(),
        Frame::Delete(_) => Vec::new(),
    }
}

struct IngestResult {
    tally: Tally,
    txns_per_s: f64,
    insert_ms: Vec<f64>,
    /// Epoch each tail frame was acknowledged at (`u64::MAX` on failure).
    ack_epochs: Vec<u64>,
    /// The reader's measured latencies and replies (`weblog-churn` only).
    read_us: Vec<f64>,
    reads: Vec<ReadUnderWrite>,
}

/// Sends the tail through the server.  Frames are dealt round-robin to
/// the writers, each of which sends its share in order on its own
/// connection; the first tenth is warm-up, after which the writers meet
/// at a barrier and the clock starts.
fn ingest(spec: &WorkloadSpec, inputs: &Inputs, seed: u64, clients: &mut [Client]) -> IngestResult {
    let frames = &inputs.tail;
    let writers = if spec.reader_beside_writer { 1 } else { 2 };
    let warm_up = (frames.len() / 10).max(1).next_multiple_of(writers);
    // Request buffers are built before the clock starts.
    let wire: Vec<Vec<(u64, Vec<u32>)>> = frames.iter().map(wire_rows).collect();
    let request_id = |idx: usize| (seed << 20) ^ (idx as u64 + 1);

    struct Sent {
        idx: usize,
        ms: f64,
        epoch: u64,
        ok: bool,
    }
    let barrier = Barrier::new(writers);
    let measuring = AtomicBool::new(false);
    let writing = AtomicBool::new(true);

    let (writer_clients, reader_clients) = clients.split_at_mut(writers);
    let (sent, spans, (read_us, reads, read_failed)) = std::thread::scope(|scope| {
        let handles: Vec<_> = writer_clients
            .iter_mut()
            .enumerate()
            .map(|(w, client)| {
                let (barrier, measuring, wire) = (&barrier, &measuring, &wire);
                scope.spawn(move || {
                    let mut sent = Vec::with_capacity(frames.len() / writers + 1);
                    let mut started = None;
                    for idx in (w..frames.len()).step_by(writers) {
                        if idx >= warm_up && started.is_none() {
                            barrier.wait();
                            measuring.store(true, Ordering::Release);
                            started = Some(Instant::now());
                        }
                        let t0 = Instant::now();
                        let (epoch, ok) = match &frames[idx] {
                            Frame::Insert(txns) => client
                                .insert_with_id(request_id(idx), &wire[idx])
                                .map(|r| (r.epoch, r.appended == txns.len() as u64 && !r.deduped)),
                            Frame::Delete(tids) => client
                                .delete_with_id(request_id(idx), tids)
                                .map(|r| (r.epoch, r.deleted == tids.len() as u64 && !r.deduped)),
                        }
                        .unwrap_or((u64::MAX, false));
                        sent.push(Sent {
                            idx,
                            ms: t0.elapsed().as_secs_f64() * 1e3,
                            epoch,
                            ok,
                        });
                    }
                    (sent, started, Instant::now())
                })
            })
            .collect();

        let reader = spec.reader_beside_writer.then(|| {
            let (measuring, writing, pool) = (&measuring, &writing, &inputs.pool);
            let order = &inputs.count_order;
            let client = &mut reader_clients[0];
            scope.spawn(move || {
                let mut us = Vec::with_capacity(1 << 18);
                let mut reads = Vec::with_capacity(1 << 18);
                let mut failed = 0u64;
                let mut i = 0;
                while writing.load(Ordering::Acquire) {
                    let pool_idx = order[i % order.len()];
                    i += 1;
                    let t0 = Instant::now();
                    let reply = client.count(&pool[pool_idx]);
                    let dt = t0.elapsed();
                    if !measuring.load(Ordering::Acquire) {
                        continue;
                    }
                    match reply {
                        Ok(r) => {
                            us.push(dt.as_secs_f64() * 1e6);
                            reads.push(ReadUnderWrite {
                                pool_idx,
                                support: r.support,
                                epoch: r.epoch,
                            });
                        }
                        Err(_) => failed += 1,
                    }
                }
                (us, reads, failed)
            })
        });

        let mut sent = Vec::with_capacity(frames.len());
        let mut spans = Vec::new();
        for h in handles {
            let (s, started, ended) = h.join().expect("writer thread panicked");
            sent.extend(s);
            spans.push((started, ended));
        }
        writing.store(false, Ordering::Release);
        let read = reader
            .map(|r| r.join().expect("reader thread panicked"))
            .unwrap_or_default();
        (sent, spans, read)
    });

    let mut tally = Tally::default();
    let mut ack_epochs = vec![u64::MAX; frames.len()];
    let mut insert_ms = Vec::new();
    let mut measured_rows = 0usize;
    for s in &sent {
        tally.record(s.ok);
        if s.ok {
            ack_epochs[s.idx] = s.epoch;
        }
        if s.idx >= warm_up && matches!(frames[s.idx], Frame::Insert(_)) {
            insert_ms.push(s.ms);
            measured_rows += frames[s.idx].rows();
        }
    }
    tally.attempted += reads.len() as u64 + read_failed;
    tally.failed += read_failed;
    let started = spans.iter().filter_map(|(s, _)| *s).min();
    let ended = spans.iter().map(|(_, e)| *e).max();
    let elapsed = match (started, ended) {
        (Some(s), Some(e)) => (e - s).as_secs_f64(),
        _ => f64::NAN,
    };
    IngestResult {
        tally,
        txns_per_s: measured_rows as f64 / elapsed,
        insert_ms,
        ack_epochs,
        read_us,
        reads,
    }
}

/// Calls `op(i)` for `span`, numbering the calls from `*next` on — so that
/// consecutive slices walk on through the pool instead of starting over —
/// and returns each call's duration in microseconds (at least one).
fn timed_slice(span: Duration, next: &mut usize, mut op: impl FnMut(usize)) -> Vec<f64> {
    let mut us = Vec::with_capacity(1 << 12);
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        op(*next);
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        *next += 1;
        if start.elapsed() >= span {
            return us;
        }
    }
}

/// The pool cut into `count_many` frames of [`BATCH`] borrowed itemsets.
pub fn pool_frames(pool: &[Vec<u32>]) -> Vec<Vec<&[u32]>> {
    pool.chunks(BATCH)
        .map(|c| c.iter().map(Vec::as_slice).collect())
        .collect()
}

pub fn mined_patterns(result: &MineResult) -> Vec<(Vec<u32>, u64, bool)> {
    result
        .patterns
        .iter()
        .map(|(items, support)| {
            (
                items.items().iter().map(|i| i.0).collect(),
                support,
                result.approx_supports.contains(items),
            )
        })
        .collect()
}

/// Mines the stopped deployment in place, opening it afresh as each CLI
/// invocation does; the open is part of what the user waits for.  Returns
/// the duration, the result and the live rows the reopened files hold.
fn mine_offline(shape: Shape, root: &Path, tau: u64) -> io::Result<(f64, MineResult, u64)> {
    let threshold = SupportThreshold::Count(tau);
    let t0 = Instant::now();
    Ok(match shape {
        Shape::Single { .. } => {
            let mut dep = DiskDeployment::open(root, WIDTH, hasher(), OFFLINE_CACHE_PAGES)?;
            let (result, _) = mine_in_place(&mut dep, Scheme::Dfp, threshold, 1)?;
            (t0.elapsed().as_secs_f64(), result, dep.live_rows())
        }
        Shape::Scatter { .. } => {
            let mut dep = ShardedDeployment::open(root, hasher(), OFFLINE_CACHE_PAGES)?;
            let (result, _) = mine_sharded(&mut dep, Scheme::Dfp, threshold, 1)?;
            let live = dep.shards().iter().map(DiskDeployment::live_rows).sum();
            (t0.elapsed().as_secs_f64(), result, live)
        }
    })
}

fn fsck_clean(shape: Shape, root: &Path) -> io::Result<bool> {
    Ok(match shape {
        Shape::Single { .. } => DiskDeployment::verify(root)?.is_clean(),
        Shape::Scatter { .. } => ShardedDeployment::verify(root)?
            .iter()
            .all(|s| s.report.is_clean()),
    })
}

pub fn run(
    spec: &WorkloadSpec,
    scale: Scale,
    seed: u64,
    seconds: f64,
    data: &DataDir,
) -> io::Result<Outcome> {
    let plan = Plan::new(seconds, scale);
    let mut tally = Tally::default();
    // Where the run's wall time went, phase by phase (printed, not gated).
    let mut phases: Vec<(&str, f64)> = Vec::new();
    let mut phase_start = Instant::now();
    let mut phase_ends = |name| {
        phases.push((name, phase_start.elapsed().as_secs_f64()));
        phase_start = Instant::now();
    };

    // 1. Set-up.  The others run last (step 8) so that their garbage is in
    //    nobody's resident set.
    let layout = Layout::new(data, "setup-0", spec.shape)?;
    let (first_setup, inputs, served, mut clients) = set_up(spec, scale, seed, &layout)?;
    let mut setup_secs = vec![first_setup];
    phase_ends("set-up");
    let threshold = SupportThreshold::Count(inputs.tau);
    let pool = &inputs.pool;
    let frames = pool_frames(pool);

    // 2. Ingest, then stop: every acknowledged frame must survive it.
    let ingested = ingest(spec, &inputs, seed, &mut clients);
    tally.merge(ingested.tally);
    drop(clients);
    served.stop();
    phase_ends("ingest");

    // 3. Read loops and MINE, once per boot.
    let mut count_answers = Answers::new(pool.len(), 1);
    let mut many_answers = Answers::new(pool.len(), BATCH);
    let mut after_compaction = Answers::new(pool.len(), BATCH);
    // Every slice and MINE of every boot, in the order they ran: each
    // `count` slice's median round trip in microseconds, each `count_many`
    // slice's itemsets per second, each MINE's seconds and patterns.
    let (mut count_p50s, mut itemsets_per_s) = (Vec::new(), Vec::new());
    let (mut mine_secs, mut mined) = (Vec::new(), Vec::new());
    let mut compaction = None;
    let mut inplace = Vec::with_capacity(plan.inplace_reps);
    let (mut next_count, mut next_frame) = (0, 0);
    let (mut counts, mut itemsets) = (0, 0);
    for boot in 0..plan.boots {
        let served = Served::start(spec.shape, &layout.root)?;
        let mut client = served.connect()?;
        // Slice 0 is the warm-up: its replies and durations are dropped.
        for slice in 0..=plan.slices {
            let keep = slice > 0;
            let us = timed_slice(plan.slice, &mut next_count, |i| {
                let idx = inputs.count_order[i % pool.len()];
                let reply = client.count(&pool[idx]).ok().map(|r| [r.support]);
                if keep {
                    count_answers.record(idx, reply.as_ref().map(<[u64; 1]>::as_slice));
                }
            });
            if keep {
                counts += us.len();
                count_p50s.push(median(&us));
            }
            let us = timed_slice(plan.slice, &mut next_frame, |i| {
                let f = inputs.frame_order[i % frames.len()];
                let reply = client.count_many(&frames[f]).ok().map(|r| r.supports);
                if keep {
                    many_answers.record(f, reply.as_deref());
                }
            });
            if keep {
                itemsets += us.len() * BATCH;
                let secs = us.iter().sum::<f64>() / 1e6;
                itemsets_per_s.push((us.len() * BATCH) as f64 / secs);
            }
        }
        let mining = Instant::now();
        loop {
            let t0 = Instant::now();
            let reply = client.mine(Scheme::Dfp, threshold, 1);
            mine_secs.push(t0.elapsed().as_secs_f64());
            mined.push(reply.ok().map(|r| r.patterns));
            if mining.elapsed() >= plan.mine_window {
                break;
            }
        }

        // 4. Compaction (timed in the traced run only: one sample a run
        //    does not repeat within any bound), then the first frames again.
        if boot + 1 == plan.boots {
            compaction = Some(client.maintain(maintain_action::COMPACT, 0));
            for (f, frame) in frames.iter().enumerate().take(4) {
                let reply = client.count_many(frame).ok().map(|r| r.supports);
                after_compaction.record(f, reply.as_deref());
            }
        }
        drop(client);
        served.stop();

        // 6. In-place MINE off the files while no server has them open:
        //    after every second boot, all but the last repetition.
        if boot % 2 == 1 && boot + 1 < plan.boots && inplace.len() + 1 < plan.inplace_reps {
            inplace.push(mine_offline(spec.shape, &layout.root, inputs.tau)?);
        }
    }
    let compacted = compaction.expect("at least one boot");
    phase_ends("boots + in-place");

    // 5. fsck and footprint of what the last stop left on disk, then the
    //    last in-place MINE: the compacted files must mine the same.
    tally.record(fsck_clean(spec.shape, &layout.root)?);
    let disk_bytes = deployment_bytes(&layout.dir)?;
    inplace.push(mine_offline(spec.shape, &layout.root, inputs.tau)?);
    let rss = rss_peak_mib();
    phase_ends("fsck + in-place");

    // 7. Verification, outside every timed section.
    let expected = Expected::build(&inputs);
    let live = inputs.live.len() as u64;
    tally.record(compacted.is_ok_and(|r| r.live_rows == live && r.deleted_rows == 0));
    tally.merge(count_answers.verify(&expected));
    tally.merge(many_answers.verify(&expected));
    tally.merge(after_compaction.verify(&expected));
    for patterns in &mined {
        tally.record(
            patterns
                .as_ref()
                .is_some_and(|p| expected.patterns_match(p)),
        );
    }
    for (_, result, reopened_live) in &inplace {
        tally.record(*reopened_live == live && expected.patterns_match(&mined_patterns(result)));
    }
    if spec.reader_beside_writer {
        let mut reads = ingested.reads;
        tally.failed += check_reads_under_write(&inputs, &ingested.ack_epochs, &mut reads);
    }
    phase_ends("verification");

    // 8. The remaining set-ups, each torn down again.
    for round in 1..SETUPS {
        let layout = Layout::new(data, &format!("setup-{round}"), spec.shape)?;
        let (secs, _, served, clients) = set_up(spec, scale, seed, &layout)?;
        setup_secs.push(secs);
        drop(clients);
        served.stop();
    }
    phase_ends("set-ups");

    if ingested.insert_ms.is_empty() {
        return Err(io::Error::other("the ingest phase measured no insert"));
    }
    if !ingested.read_us.is_empty() {
        // One phase on one server boot: not steady enough to gate (the
        // traced run reports it per layer), but worth seeing.
        eprintln!(
            "# count beside the writer (us): p50 {:.2}  p95 {:.2}  (n={})",
            windowed_quantile(&ingested.read_us, WINDOWS, 0.5),
            windowed_quantile(&ingested.read_us, WINDOWS, 0.95),
            ingested.read_us.len()
        );
    }
    let inplace_secs: Vec<f64> = inplace.iter().map(|(secs, _, _)| *secs).collect();
    // The repetitions behind the medians, so a reader can see the spread
    // inside one run.
    let list = |values: Vec<f64>| {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        shown.join(" ")
    };
    let shown: Vec<String> = phases.iter().map(|(n, s)| format!("{n} {s:.1}")).collect();
    eprintln!("# phases (s): {}", shown.join(", "));
    eprintln!("# set-ups (s): {}", list(setup_secs.clone()));
    eprintln!("# count p50 per slice (us): {}", list(count_p50s.clone()));
    eprintln!(
        "# count_many per slice (us/itemset): {}",
        list(itemsets_per_s.iter().map(|v| 1e6 / v).collect())
    );
    eprintln!("# served MINE (s): {}", list(mine_secs.clone()));
    eprintln!("# in-place MINE (s): {}", list(inplace_secs.clone()));
    eprintln!(
        "# {} live rows, threshold {}, {} frequent patterns",
        live,
        inputs.tau,
        expected.frequent.len()
    );

    let metrics = vec![
        ("setup_s", median(&setup_secs)),
        ("count_p50_us", median(&count_p50s)),
        ("count_itemsets_per_s", median(&itemsets_per_s)),
        ("mine_s", median(&mine_secs)),
        ("mine_inplace_s", median(&inplace_secs)),
        ("ingest_txns_per_s", ingested.txns_per_s),
        (
            "insert_p50_ms",
            quantile(&sorted(ingested.insert_ms.clone()), 0.5),
        ),
        ("disk_bytes_per_txn", disk_bytes as f64 / live as f64),
        ("rss_peak_mib", rss),
    ];
    let samples = vec![
        ("setup_s", setup_secs.len()),
        ("count_p50_us", counts),
        ("count_itemsets_per_s", itemsets),
        ("mine_s", mine_secs.len()),
        ("mine_inplace_s", inplace_secs.len()),
        ("insert_p50_ms", ingested.insert_ms.len()),
    ];
    Ok(Outcome {
        tally,
        metrics,
        samples,
        digest: inputs.digest,
    })
}
