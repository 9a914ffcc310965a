//! The hash family a base records in its slice header: every adopting
//! open takes it over whatever family it was given, the strict open
//! refuses another one naming both, every rewrite of the header keeps
//! it, and a header that records none is refused before any byte of the
//! base changes.

use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_storage::diskbbs::{deployment_paths, DeploymentBackends, DiskDeployment};
use bbs_storage::pager::{checksum_phys_of, page_digest, phys_of};
use bbs_storage::slicefile::read_header;
use bbs_storage::{
    compact_deployment, compact_deployment_hooked, fold_deployment, fold_deployment_hooked,
    unrecorded_family, CrashMode, Deployment, FaultPlan, FileBackend, SharedDeployment, PAGE_SIZE,
};
use bbs_tdb::{ItemId, Itemset, Transaction};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const WIDTH: usize = 64;
const CACHE: usize = 64;

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_family_{}_{}", std::process::id(), name));
    std::fs::create_dir_all(&p).expect("mkdir");
    p.join("dep")
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        std::fs::remove_dir_all(self.0.parent().expect("in a directory")).ok();
    }
}

fn md5(k: usize) -> Arc<dyn ItemHasher> {
    Arc::new(Md5BloomHasher::new(k))
}

fn txns(range: std::ops::Range<u64>) -> Vec<Transaction> {
    range
        .map(|i| {
            let items = [(i % 7) as u32, 10 + (i % 5) as u32, 20 + (i % 3) as u32];
            Transaction::new(i, Itemset::from_values(&items))
        })
        .collect()
}

/// A base hashed with `md5/3`: `rows` committed rows, every third of the
/// first thirty deleted.
fn md5_3_base(b: &Path, rows: u64) {
    let mut dep = DiskDeployment::open(b, WIDTH, md5(3), CACHE).expect("create");
    dep.append_batch(&txns(0..rows)).expect("batch");
    let dead = dep
        .resolve_tids(&[0, 3, 6, 9, 12, 15, 18, 21, 24, 27])
        .expect("resolve");
    dep.commit_deletes(&dead, &[]).expect("delete");
}

/// The family the header of `b` records, after checking that both
/// adopting opens — offline and served — asked for `md5/4` hash with it.
fn adopted(b: &Path) -> String {
    let family = read_header(&deployment_paths(b).slices)
        .expect("read header")
        .expect("a slice header")
        .family;
    let offline = Deployment::open(b, md5(4), CACHE).expect("offline open");
    assert_eq!(offline.shards()[0].index.hasher().id(), family);
    drop(offline);
    let served = SharedDeployment::open(b, WIDTH, md5(4), CACHE).expect("served open");
    assert_eq!(served.snapshot().hasher().id(), family);
    family
}

#[test]
fn an_open_adopts_the_recorded_family_or_refuses_naming_both() {
    let b = base("adopt");
    let _g = Cleanup(b.clone());
    md5_3_base(&b, 60);
    assert_eq!(adopted(&b), "md5/3");

    let err = DiskDeployment::open(&b, WIDTH, md5(5), CACHE)
        .err()
        .expect("a strict open of another family is refused");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    let text = err.to_string();
    assert!(text.contains("md5/3") && text.contains("md5/5"), "{text}");

    // Asked for md5/5, an adopting open hashes with md5/3, so no count
    // falls below the exact support (md5/5 sets two more positions than
    // the rows hold, and undercounts).
    let live: Vec<Transaction> = txns(30..60);
    let dep = Deployment::open(&b, md5(5), CACHE).expect("open");
    for item in 0..23u32 {
        let q = Itemset::from_values(&[item]);
        let exact = live
            .iter()
            .filter(|t| t.items.contains(ItemId(item)))
            .count() as u64;
        let counted = dep.shards()[0].index.count_itemset(&q).expect("count");
        assert!(counted >= exact, "item {item}: {counted} < exact {exact}");
    }
    assert!(dep.check_layout(None, Some("md5/3")).is_ok());
    let err = dep.check_layout(None, Some("md5/5")).expect_err("refused");
    assert!(err.to_string().contains("md5/3") && err.to_string().contains("md5/5"));
}

#[test]
fn the_family_survives_recovery_compaction_and_fold() {
    let b = base("rewrites");
    let _g = Cleanup(b.clone());
    md5_3_base(&b, 60);
    {
        // Rows appended and never committed: the next open recovers and
        // rebuilds the header from the commit record.
        let mut dep = DiskDeployment::open(&b, WIDTH, md5(3), CACHE).expect("open");
        for t in &txns(60..90) {
            dep.append(t).expect("append");
        }
    }
    assert_eq!(adopted(&b), "md5/3");

    let report = compact_deployment(&b, WIDTH, md5(4), Some(2 * WIDTH), CACHE).expect("compact");
    assert_eq!((report.width, report.rows_after), (2 * WIDTH, 50));
    assert_eq!(adopted(&b), "md5/3");

    let report = fold_deployment(&b, md5(4), CACHE).expect("fold");
    assert_eq!(report.width, WIDTH);
    assert_eq!(adopted(&b), "md5/3");
    assert!(DiskDeployment::verify(&b).expect("verify").is_clean());
    DiskDeployment::open(&b, WIDTH, md5(3), CACHE).expect("strict reopen at md5/3");
}

/// The workload of one crash run: three committed batches over faulty
/// backends, at `md5/3`.
fn crashing_workload(b: &Path, plan: &bbs_storage::SharedFaultPlan) -> io::Result<()> {
    let paths = deployment_paths(b);
    let open = |tag, p: &Path| FileBackend::open(p).map(|f| plan.wrap(tag, f));
    let backends = DeploymentBackends {
        commit: open("commit", &paths.commit)?,
        dat: open("dat", &paths.dat)?,
        idx: open("idx", &paths.idx)?,
        slices: open("slices", &paths.slices)?,
        counts: open("counts", &paths.counts)?,
        dedup: open("dedup", &paths.dedup)?,
        log: open("log", &paths.log)?,
        del: open("del", &paths.del)?,
    };
    let mut dep = DiskDeployment::open_with(backends, WIDTH, md5(3), CACHE)?;
    for batch in txns(0..24).chunks(8) {
        for t in batch {
            dep.append(t)?;
        }
        dep.flush()?;
    }
    Ok(())
}

#[test]
fn the_family_survives_a_crash_at_every_io_index() {
    let b = base("crash");
    let _g = Cleanup(b.clone());
    for mode in [CrashMode::Fail, CrashMode::TornWrite] {
        let mut n = 0u64;
        loop {
            DiskDeployment::remove_files(&b).ok();
            let plan = FaultPlan::crash_at(n, mode);
            let outcome = crashing_workload(&b, &plan);
            if !plan.crashed() {
                outcome.expect("an uncrashed run succeeds");
                break;
            }
            // A base whose first commit never landed was never laid out:
            // the next open lays it out afresh, with the family it names.
            let rows = Deployment::open(&b, md5(4), CACHE).expect("reopen").rows();
            if rows > 0 {
                assert_eq!(adopted(&b), "md5/3", "crash at op {n} ({mode:?})");
            }
            n += 1;
        }
        assert!(n > 20, "only {n} fault points");
    }
}

/// Runs a compaction, or a fold, of a fresh `md5/3` base at `b`, asked
/// for `md5/4`, through `hook`.
fn maintain(b: &Path, fold: bool, hook: bbs_storage::SwapHook) -> io::Result<()> {
    DiskDeployment::remove_files(b).ok();
    md5_3_base(b, 60);
    match fold {
        true => fold_deployment_hooked(b, md5(4), CACHE, hook),
        false => compact_deployment_hooked(b, WIDTH, md5(4), None, CACHE, hook),
    }
    .map(drop)
}

#[test]
fn the_family_survives_a_crash_at_every_step_of_a_swap() {
    let b = base("swap");
    let _g = Cleanup(b.clone());
    for fold in [false, true] {
        let mut steps = Vec::new();
        maintain(&b, fold, &mut |step| {
            steps.push(step);
            Ok(())
        })
        .expect("a clean run");
        assert!(steps.len() >= 4, "{steps:?}");
        for crash_at in steps {
            let result = maintain(&b, fold, &mut |step| match step == crash_at {
                true => Err(io::Error::other(format!("crash at {step}"))),
                false => Ok(()),
            });
            assert!(result.is_err(), "{crash_at}: the hook fires");
            assert_eq!(adopted(&b), "md5/3", "fold {fold}, crash at {crash_at}");
        }
    }
}

/// Every file next to the base, by name, with its bytes.
fn files(b: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(b.parent().expect("in a directory"))
        .expect("read_dir")
        .map(|e| {
            let e = e.expect("entry");
            let bytes = std::fs::read(e.path()).expect("read");
            (e.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect()
}

/// Rewrites the slice header of `b` as a base from before headers named
/// a family: the family field zeroed, its page digest recomputed, so the
/// header is a valid page that records no family.
fn erase_family(b: &Path) {
    let path = deployment_paths(b).slices;
    let mut bytes = std::fs::read(&path).expect("read slices");
    let at = phys_of(0) as usize * PAGE_SIZE;
    let page: &mut [u8; PAGE_SIZE] = (&mut bytes[at..at + PAGE_SIZE]).try_into().expect("page");
    assert_eq!(&page[24..30], b"\x05md5/3");
    page[24..30].fill(0);
    let digest = page_digest(page);
    let slot = checksum_phys_of(0) as usize * PAGE_SIZE;
    bytes[slot..slot + 8].copy_from_slice(&digest.to_le_bytes());
    std::fs::write(&path, bytes).expect("write slices");
}

fn assert_refused<T>(what: &str, result: io::Result<T>) {
    let err = result
        .err()
        .unwrap_or_else(|| panic!("{what}: must be refused"));
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
    assert!(
        unrecorded_family(&err).is_some(),
        "{what}: not the typed error: {err}"
    );
    assert!(
        err.to_string().contains("records no hash family"),
        "{what}: {err}"
    );
}

#[test]
fn a_header_that_records_no_family_is_refused_untouched() {
    let b = base("unrecorded");
    let _g = Cleanup(b.clone());
    md5_3_base(&b, 60);
    erase_family(&b);
    let before = files(&b);
    assert_refused("open", DiskDeployment::open(&b, WIDTH, md5(3), CACHE));
    assert_refused("verify", DiskDeployment::verify(&b));
    assert_refused("deployment", Deployment::open(&b, md5(3), CACHE));
    assert_refused("served", SharedDeployment::open(&b, WIDTH, md5(3), CACHE));
    assert_refused(
        "compact",
        compact_deployment(&b, WIDTH, md5(3), None, CACHE),
    );
    assert_refused("fold", fold_deployment(&b, md5(3), CACHE));
    assert_eq!(files(&b), before, "a refused base is left byte for byte");
}
