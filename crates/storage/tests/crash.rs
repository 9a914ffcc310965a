//! Crash-recovery torture tests: inject a crash at *every* physical I/O
//! point of a multi-commit workload, reopen, and require the deployment
//! to come back as exactly a committed clean prefix — then finish the
//! workload and require the end state to be indistinguishable from a run
//! that never crashed.

use bbs_storage::diskbbs::{deployment_paths, DeploymentBackends, DiskDeployment};
use bbs_storage::{
    checksum_mismatch, CrashMode, FaultInjector, FaultPlan, FileBackend, SharedFaultPlan,
    StorageBackend, PAGE_SIZE,
};
use bbs_core::{BbsMiner, Scheme};
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_tdb::{FrequentPatternMiner, Itemset, NaiveMiner, SupportThreshold, Transaction};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const WIDTH: usize = 32;
const CACHE: usize = 64;
const BATCH: usize = 8;
const BATCHES: usize = 3;

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_crash_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        DiskDeployment::remove_files(&self.0).ok();
    }
}

fn hasher() -> Arc<dyn ItemHasher> {
    Arc::new(Md5BloomHasher::new(3))
}

/// A deterministic workload: small arithmetic transactions, plus one
/// record big enough to span heap pages.
fn source_txns() -> Vec<Transaction> {
    (0..(BATCH * BATCHES) as u64)
        .map(|i| {
            let items: Vec<u32> = if i == 2 {
                // ~4.8 KB once encoded: guarantees the heap data spans pages.
                (0..1200).collect()
            } else {
                vec![
                    (i % 5) as u32,
                    5 + (i % 7) as u32,
                    12 + (i % 3) as u32,
                ]
            };
            Transaction::new(i, Itemset::from_values(&items))
        })
        .collect()
}

fn sample_queries() -> Vec<Itemset> {
    [
        &[0u32][..],
        &[5],
        &[12],
        &[0, 5],
        &[1, 6, 13],
        &[2],
        &[0, 5, 12],
    ]
    .iter()
    .map(|q| Itemset::from_values(q))
    .collect()
}

/// Runs the append/flush workload through fault-injected backends.
fn run_workload(plan: &SharedFaultPlan, base: &Path, source: &[Transaction]) -> io::Result<()> {
    run_workload_over(|tag, file| plan.wrap(tag, file), base, source)
}

/// Runs the append/flush workload with every file's backend built by
/// `wrap(tag, file)`.
fn run_workload_over<B: StorageBackend>(
    wrap: impl Fn(&'static str, FileBackend) -> B,
    base: &Path,
    source: &[Transaction],
) -> io::Result<()> {
    let paths = deployment_paths(base);
    let backends = DeploymentBackends {
        commit: wrap("commit", FileBackend::open(&paths.commit)?),
        dat: wrap("dat", FileBackend::open(&paths.dat)?),
        idx: wrap("idx", FileBackend::open(&paths.idx)?),
        slices: wrap("slices", FileBackend::open(&paths.slices)?),
        counts: wrap("counts", FileBackend::open(&paths.counts)?),
        dedup: wrap("dedup", FileBackend::open(&paths.dedup)?),
        log: wrap("log", FileBackend::open(&paths.log)?),
        del: wrap("del", FileBackend::open(&paths.del)?),
    };
    let mut dep = DiskDeployment::open_with(backends, WIDTH, hasher(), CACHE)?;
    for batch in source.chunks(BATCH) {
        for t in batch {
            dep.append(t)?;
        }
        dep.flush()?;
    }
    Ok(())
}

/// Clean-run answers for every commit point: `answers[k]` holds the
/// sample-query counts after `k` batches.
fn reference_answers(base: &Path, source: &[Transaction]) -> Vec<Vec<u64>> {
    let queries = sample_queries();
    let mut answers = vec![Vec::new()];
    let mut dep = DiskDeployment::open(base, WIDTH, hasher(), CACHE).expect("open reference");
    for batch in source.chunks(BATCH) {
        for t in batch {
            dep.append(t).expect("append");
        }
        dep.flush().expect("flush");
        answers.push(
            queries
                .iter()
                .map(|q| dep.index.count_itemset(q).expect("count"))
                .collect(),
        );
    }
    answers
}

/// Asserts the reopened deployment is exactly the clean `rows`-row prefix.
fn assert_clean_prefix(
    dep: &mut DiskDeployment,
    source: &[Transaction],
    answers: &[Vec<u64>],
) -> u64 {
    let rows = dep.committed_rows();
    assert_eq!(dep.db.len(), rows, "heap rows == committed rows");
    assert_eq!(dep.index.rows(), rows, "index rows == committed rows");
    assert_eq!(
        rows % BATCH as u64,
        0,
        "only batch boundaries are committed"
    );
    let loaded = dep.db.load().expect("load heap");
    assert_eq!(
        loaded.transactions(),
        &source[..rows as usize],
        "heap content is the committed prefix"
    );
    // The index answers queries exactly as a never-crashed deployment of
    // the same prefix would.
    let expected = &answers[(rows as usize) / BATCH];
    for (q, want) in sample_queries().iter().zip(expected) {
        assert_eq!(
            dep.index.count_itemset(q).expect("count"),
            *want,
            "query {q:?} at {rows} rows"
        );
    }
    // Exact singleton counts match a naive recount of the prefix.
    for v in [0u32, 3, 5, 9, 12, 14] {
        let item = bbs_tdb::ItemId(v);
        let truth = source[..rows as usize]
            .iter()
            .filter(|t| t.items.items().contains(&item))
            .count() as u64;
        assert_eq!(dep.index.actual_singleton_count(item), truth, "item {v}");
    }
    rows
}

/// Mines the reopened prefix and checks it against the naive oracle.
fn assert_mining_agrees(dep: &mut DiskDeployment, source: &[Transaction], rows: u64) {
    if rows == 0 {
        return;
    }
    let db = dep.db.load().expect("load db");
    let bbs = dep.index.load().expect("load index");
    // High enough that no pattern is supported by the one huge transaction
    // alone (every itemset of more than 3 items lives only there, so a
    // lower floor would make the pattern space explode).
    let threshold = SupportThreshold::percent(30.0);
    let result = BbsMiner::with_index(Scheme::Dfp, bbs).mine(&db, threshold);
    let mut oracle_db = bbs_tdb::TransactionDb::new();
    for t in &source[..rows as usize] {
        oracle_db.push(t.clone());
    }
    let oracle = NaiveMiner::new().mine(&oracle_db, threshold).patterns;
    assert_eq!(result.patterns.len(), oracle.len(), "at {rows} rows");
    for (items, support) in result.patterns.iter() {
        let truth = oracle.support(items).expect("pattern in oracle");
        if result.approx_supports.contains(items) {
            assert!(support >= truth, "{items:?} at {rows} rows");
        } else {
            assert_eq!(support, truth, "{items:?} at {rows} rows");
        }
    }
}

/// After a crash at `what`: the deployment at `b` must reopen as a
/// committed clean prefix, finish the workload to the never-crashed end
/// state, and then pass fsck.
fn assert_recovers_and_finishes(
    b: &Path,
    source: &[Transaction],
    answers: &[Vec<u64>],
    what: &str,
) {
    // 1. Reopen with clean backends: recovery must yield a committed
    //    clean prefix, bit-for-bit.
    let mut dep = DiskDeployment::open(b, WIDTH, hasher(), CACHE)
        .unwrap_or_else(|e| panic!("reopen after crash at {what}: {e}"));
    let rows = assert_clean_prefix(&mut dep, source, answers);
    assert_mining_agrees(&mut dep, source, rows);

    // 2. The deployment keeps working: finish the workload and the
    //    end state is indistinguishable from a run that never crashed.
    for t in &source[rows as usize..] {
        dep.append(t).expect("append after recovery");
    }
    dep.flush().expect("flush after recovery");
    let final_answers = answers.last().expect("final");
    for (q, want) in sample_queries().iter().zip(final_answers) {
        assert_eq!(
            dep.index.count_itemset(q).expect("count"),
            *want,
            "final query {q:?} after crash at {what}"
        );
    }
    drop(dep);

    // 3. After recovery + a real commit, fsck is clean.
    let report = DiskDeployment::verify(b).expect("verify");
    assert!(report.is_clean(), "fsck after crash at {what}:\n{report}");
}

fn crash_at_every_op(mode: CrashMode, name: &str) {
    let b = base(name);
    let _g = Cleanup(b.clone());
    let refbase = base(&format!("{name}_ref"));
    let _gr = Cleanup(refbase.clone());
    let source = source_txns();
    let answers = reference_answers(&refbase, &source);

    let mut n = 0u64;
    loop {
        DiskDeployment::remove_files(&b).ok();
        let plan = FaultPlan::crash_at(n, mode);
        let outcome = run_workload(&plan, &b, &source);
        if !plan.crashed() {
            outcome.expect("uncrashed run must succeed");
            break;
        }
        // The crash fired mid-workload (a late crash during drop-time
        // cleanup can leave `outcome` Ok; the commit record still rules).
        assert_recovers_and_finishes(&b, &source, &answers, &format!("op {n} ({mode:?})"));

        n += 1;
    }
    assert!(n > 50, "only {n} fault points — injection is not engaged");
}

#[test]
fn crash_fail_at_every_io_point_recovers_a_committed_prefix() {
    crash_at_every_op(CrashMode::Fail, "fail");
}

#[test]
fn crash_short_write_at_every_io_point_recovers_a_committed_prefix() {
    crash_at_every_op(CrashMode::ShortWrite, "short");
}

#[test]
fn crash_torn_write_at_every_io_point_recovers_a_committed_prefix() {
    crash_at_every_op(CrashMode::TornWrite, "torn");
}

/// One write on its way into the fault injector: the plan's operation
/// index when it was issued, and its length in bytes.
type WriteLog = Arc<Mutex<Vec<(u64, usize)>>>;

/// Sits *above* a file's fault injector and logs every write of one of
/// the paged files — a write-back run is a write of several whole pages.
struct RunWatch {
    inner: FaultInjector<FileBackend>,
    plan: SharedFaultPlan,
    log: Option<WriteLog>,
}

impl StorageBackend for RunWatch {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_at(offset, buf)
    }
    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        if let Some(log) = &self.log {
            log.lock().expect("log").push((self.plan.ops(), data.len()));
        }
        self.inner.write_at(offset, data)
    }
    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

fn run_watched(
    plan: &SharedFaultPlan,
    log: &WriteLog,
    base: &Path,
    source: &[Transaction],
) -> io::Result<()> {
    run_workload_over(
        |tag, file| RunWatch {
            inner: plan.wrap(tag, file),
            plan: plan.clone(),
            log: ["dat", "idx", "slices"].contains(&tag).then(|| log.clone()),
        },
        base,
        source,
    )
}

/// Write-back coalesces adjacent dirty pages into one backend write, so a
/// torn or short write can now stop anywhere inside a run: some pages
/// whole, one cut mid-page, the rest never written.  Crash at every such
/// write, both ways.
#[test]
fn crash_inside_a_multi_page_run_recovers_a_committed_prefix() {
    let b = base("runs");
    let _g = Cleanup(b.clone());
    let refbase = base("runs_ref");
    let _gr = Cleanup(refbase.clone());
    let source = source_txns();
    let answers = reference_answers(&refbase, &source);

    // A clean pass finds the operation index of every multi-page write.
    let log = WriteLog::default();
    run_watched(&FaultPlan::counting(), &log, &b, &source).expect("clean run");
    let runs: Vec<(u64, usize)> = log
        .lock()
        .expect("log")
        .iter()
        .copied()
        .filter(|&(_, len)| len > PAGE_SIZE)
        .collect();
    assert!(runs.len() >= BATCHES, "every flush writes a run: {runs:?}");
    assert!(runs.iter().all(|&(_, len)| len % PAGE_SIZE == 0));

    let mut torn_mid_page = 0;
    for mode in [CrashMode::TornWrite, CrashMode::ShortWrite] {
        for &(op, len) in &runs {
            DiskDeployment::remove_files(&b).ok();
            let plan = FaultPlan::crash_at(op, mode);
            let log = WriteLog::default();
            let _ = run_watched(&plan, &log, &b, &source);
            assert!(plan.crashed(), "op {op} was reached");
            assert!(
                log.lock().expect("log").contains(&(op, len)),
                "the crash hit the same run as in the clean pass"
            );
            let landed = match mode {
                CrashMode::TornWrite => len / 2,
                _ => 512,
            };
            // Mid-run and mid-page: part of the run reached the file, and
            // the cut is inside a page, not between two.
            if landed % PAGE_SIZE != 0 {
                torn_mid_page += 1;
            }
            assert_recovers_and_finishes(
                &b,
                &source,
                &answers,
                &format!("op {op} ({mode:?}, {landed} of {len} bytes landed)"),
            );
        }
    }
    assert!(
        torn_mid_page > runs.len(),
        "both modes must cut a run mid-page: {torn_mid_page} of {runs:?}"
    );
}

#[test]
fn bit_flip_on_read_surfaces_as_checksum_mismatch_not_data() {
    let b = base("flip");
    let _g = Cleanup(b.clone());
    let source = source_txns();
    {
        let mut dep = DiskDeployment::open(&b, WIDTH, hasher(), CACHE).expect("open");
        for t in &source {
            dep.append(t).expect("append");
        }
        dep.flush().expect("flush");
    }

    // Reopen through an injector that flips one bit in reads of the heap
    // data file's first logical page (physical page 1; the big record in
    // row 2 pushes the committed tail past it, so it is not the boundary
    // page and recovery does not touch it).
    let plan = FaultPlan::counting();
    plan.flip_bit("dat", bbs_storage::PAGE_SIZE as u64 + 100, 3);
    let paths = deployment_paths(&b);
    let backends = DeploymentBackends {
        commit: plan.wrap("commit", FileBackend::open(&paths.commit).expect("open")),
        dat: plan.wrap("dat", FileBackend::open(&paths.dat).expect("open")),
        idx: plan.wrap("idx", FileBackend::open(&paths.idx).expect("open")),
        slices: plan.wrap("slices", FileBackend::open(&paths.slices).expect("open")),
        counts: plan.wrap("counts", FileBackend::open(&paths.counts).expect("open")),
        dedup: plan.wrap("dedup", FileBackend::open(&paths.dedup).expect("open")),
        log: plan.wrap("log", FileBackend::open(&paths.log).expect("open")),
        del: plan.wrap("del", FileBackend::open(&paths.del).expect("open")),
    };
    let mut dep = DiskDeployment::open_with(backends, WIDTH, hasher(), CACHE).expect("reopen");

    // Reading through the flipped page must yield the typed error, never
    // silently corrupted data.
    let err = dep.db.get(0).expect_err("corrupt read must fail");
    let mismatch = checksum_mismatch(&err).expect("typed checksum mismatch");
    assert_eq!(mismatch.page, 0);

    // Rows on undamaged pages remain readable.
    assert_eq!(dep.db.get(8).expect("clean row"), source[8]);
}
