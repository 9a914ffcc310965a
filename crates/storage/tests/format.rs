//! The on-disk format gate: a format-v1 deployment (commit slots carrying
//! `BBSCMT01`, pages digested with FNV-1a) is refused by every way of
//! opening or verifying it, with the typed error, before a single byte of
//! it changes — and a current-format deployment survives every way its
//! files get rewritten.

use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_storage::diskbbs::{deployment_paths, DeploymentBackends, DiskDeployment};
use bbs_storage::{
    compact_deployment, fold_deployment, format_v1, FaultPlan, FileBackend, SharedDeployment,
};
use bbs_tdb::{Itemset, Transaction};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const WIDTH: usize = 64;
const CACHE: usize = 64;

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_format_{}_{}", std::process::id(), name));
    std::fs::create_dir_all(&p).expect("mkdir");
    p.join("dep")
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        std::fs::remove_dir_all(self.0.parent().expect("in a directory")).ok();
    }
}

fn hasher() -> Arc<dyn ItemHasher> {
    Arc::new(Md5BloomHasher::new(3))
}

fn txns(range: std::ops::Range<u64>) -> Vec<Transaction> {
    range
        .map(|i| {
            Transaction::new(
                i,
                Itemset::from_values(&[(i % 7) as u32, 10 + (i % 5) as u32, 20 + (i % 3) as u32]),
            )
        })
        .collect()
}

/// Builds a populated deployment and re-labels its commit slots as format
/// v1: magic `BBSCMT01`, slot checksum recomputed so each slot is a
/// *valid* v1 record.  The (empty) `.dedup` and `.del` files go, as on a
/// deployment from before they existed — a refused open must not create
/// them either.
fn v1_fixture(base: &Path) {
    {
        let mut dep = DiskDeployment::open(base, WIDTH, hasher(), CACHE).expect("open");
        dep.append_batch(&txns(0..40)).expect("batch");
        dep.append_batch(&txns(40..80)).expect("batch");
    }
    let paths = deployment_paths(base);
    let mut commit = std::fs::read(&paths.commit).expect("read commit");
    assert_eq!(commit.len(), 128, "two commits fill both slots");
    for slot in commit.chunks_exact_mut(64) {
        assert_eq!(&slot[0..8], &u64::from_be_bytes(*b"BBSCMT02").to_le_bytes());
        slot[0..8].copy_from_slice(&u64::from_be_bytes(*b"BBSCMT01").to_le_bytes());
        let digest = bbs_storage::fnv1a64(&slot[0..56]);
        slot[56..64].copy_from_slice(&digest.to_le_bytes());
    }
    std::fs::write(&paths.commit, commit).expect("write commit");
    for p in [&paths.dedup, &paths.del] {
        assert_eq!(std::fs::metadata(p).expect("stat").len(), 0);
        std::fs::remove_file(p).expect("remove");
    }
}

/// Every file next to the deployment, by name, with its bytes.
fn files(base: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(base.parent().expect("in a directory"))
        .expect("read_dir")
        .map(|e| {
            let e = e.expect("entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("read"),
            )
        })
        .collect()
}

fn assert_refused<T>(what: &str, result: io::Result<T>) {
    let err = match result {
        Ok(_) => panic!("{what}: a v1 deployment must be refused"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
    assert!(
        format_v1(&err).is_some(),
        "{what}: not the typed error: {err}"
    );
    let text = err.to_string();
    assert!(
        text.contains("format v1 (FNV-1a page digests); rebuild with `bbs ingest`"),
        "{what}: {text}"
    );
}

#[test]
fn v1_deployment_is_refused_untouched_by_every_entry_point() {
    let b = base("v1");
    let _g = Cleanup(b.clone());
    v1_fixture(&b);
    let before = files(&b);
    assert!(before.contains_key("dep.commit") && !before.contains_key("dep.del"));

    assert_refused("open", DiskDeployment::open(&b, WIDTH, hasher(), CACHE));
    assert_eq!(files(&b), before, "after DiskDeployment::open");

    assert_refused("verify", DiskDeployment::verify(&b));
    assert_eq!(files(&b), before, "after DiskDeployment::verify");

    assert_refused("shared", SharedDeployment::open(&b, WIDTH, hasher(), CACHE));
    assert_eq!(files(&b), before, "after SharedDeployment::open");

    assert_refused(
        "shared faulty",
        SharedDeployment::open_faulty(&b, WIDTH, hasher(), CACHE, FaultPlan::counting()),
    );
    assert_eq!(files(&b), before, "after SharedDeployment::open_faulty");

    assert_refused(
        "compact",
        compact_deployment(&b, WIDTH, hasher(), None, CACHE),
    );
    assert_refused("fold", fold_deployment(&b, hasher(), CACHE));
    assert_eq!(files(&b), before, "after maintenance");

    // Explicit backends: the caller's `FileBackend::open` creates what is
    // missing, so compare contents from there on.
    let paths = deployment_paths(&b);
    let open = |p: &Path| FileBackend::open(p).expect("backend");
    let backends = DeploymentBackends {
        commit: open(&paths.commit),
        dat: open(&paths.dat),
        idx: open(&paths.idx),
        slices: open(&paths.slices),
        counts: open(&paths.counts),
        dedup: open(&paths.dedup),
        log: open(&paths.log),
        del: open(&paths.del),
    };
    let with_created = files(&b);
    assert_refused(
        "open_with",
        DiskDeployment::open_with(backends, WIDTH, hasher(), CACHE),
    );
    assert_eq!(files(&b), with_created, "after DiskDeployment::open_with");
}

#[test]
fn a_torn_v1_slot_is_debris_not_a_format() {
    // Only a slot whose checksum validates names a format: a commit file
    // holding nothing but a torn v1-looking slot is "no commit yet".
    let b = base("torn_v1");
    let _g = Cleanup(b.clone());
    let mut slot = [0u8; 64];
    slot[0..8].copy_from_slice(&u64::from_be_bytes(*b"BBSCMT01").to_le_bytes());
    slot[8] = 1;
    std::fs::write(deployment_paths(&b).commit, slot).expect("write");
    let dep = DiskDeployment::open(&b, WIDTH, hasher(), CACHE).expect("opens empty");
    assert_eq!(dep.committed_rows(), 0);
}

#[test]
fn v2_round_trips_through_reopen_recovery_compaction_and_fold() {
    let b = base("v2");
    let _g = Cleanup(b.clone());
    let probe = Itemset::from_values(&[3, 13]);
    let expected = |rows: &[Transaction]| {
        rows.iter()
            .filter(|t| probe.items().iter().all(|i| t.items.items().contains(i)))
            .count() as u64
    };
    let all = txns(0..300);
    {
        let mut dep = DiskDeployment::open(&b, WIDTH, hasher(), CACHE).expect("create");
        dep.append_batch(&all[..200]).expect("batch");
    }
    {
        // Close / reopen, then leave uncommitted rows behind.
        let mut dep = DiskDeployment::open(&b, WIDTH, hasher(), CACHE).expect("reopen");
        assert_eq!(dep.committed_rows(), 200);
        dep.append_batch(&all[200..250]).expect("batch");
        for t in &all[250..] {
            dep.append(t).expect("append");
        }
    }
    {
        // Recovery rolls the uncommitted tail back.
        let mut dep = DiskDeployment::open(&b, WIDTH, hasher(), CACHE).expect("recover");
        assert_eq!(dep.db.len(), 250);
        assert!(dep.index.count_itemset(&probe).expect("count") >= expected(&all[..250]));
        let dead = dep.resolve_tids(&[3, 10, 17]).expect("resolve");
        dep.commit_deletes(&dead, &[]).expect("delete");
    }
    assert!(DiskDeployment::verify(&b).expect("verify").is_clean());

    let report = compact_deployment(&b, WIDTH, hasher(), None, CACHE).expect("compact");
    assert_eq!((report.rows_after, report.reclaimed), (247, 3));
    assert!(DiskDeployment::verify(&b).expect("verify").is_clean());

    let report = fold_deployment(&b, hasher(), CACHE).expect("fold");
    assert_eq!(report.width, WIDTH / 2);
    let report = DiskDeployment::verify(&b).expect("verify");
    assert!(report.is_clean(), "{report}");

    let live: Vec<Transaction> = all[..250]
        .iter()
        .filter(|t| ![3, 10, 17].contains(&t.tid.0))
        .cloned()
        .collect();
    let mut dep = DiskDeployment::open(&b, WIDTH / 2, hasher(), CACHE).expect("reopen folded");
    assert_eq!(dep.db.load().expect("load").transactions(), &live[..]);
    assert!(dep.index.count_itemset(&probe).expect("count") >= expected(&live));
}
