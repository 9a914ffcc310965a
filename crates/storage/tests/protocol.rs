//! The deployment's on-disk formats, frozen from outside the crate: a
//! fixed script leaves each of the eight files, and a compaction its swap
//! marker, with exactly the length and digest recorded before the
//! durability code was folded into one place (PR 16's tree, by running
//! these scripts there) — a refactor of that code that moves a byte on
//! disk fails here.

use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_storage::diskbbs::{DeploymentBackends, DiskDeployment};
use bbs_storage::{fnv1a64, DedupReceipt, MemBackend, StorageBackend};
use bbs_tdb::{Itemset, Transaction};
use std::sync::Arc;

const WIDTH: usize = 64;
const CACHE: usize = 64;

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

fn receipt(first_row: u64, appended: u64) -> DedupReceipt {
    DedupReceipt {
        first_row,
        appended,
    }
}

/// The eight files of one deployment, in memory.
#[derive(Default)]
struct MemFiles {
    dat: MemBackend,
    idx: MemBackend,
    slices: MemBackend,
    counts: MemBackend,
    commit: MemBackend,
    dedup: MemBackend,
    log: MemBackend,
    del: MemBackend,
}

impl MemFiles {
    fn open(&mut self) -> DiskDeployment<&mut MemBackend> {
        DiskDeployment::open_with(
            DeploymentBackends {
                dat: &mut self.dat,
                idx: &mut self.idx,
                slices: &mut self.slices,
                counts: &mut self.counts,
                commit: &mut self.commit,
                dedup: &mut self.dedup,
                log: &mut self.log,
                del: &mut self.del,
            },
            WIDTH,
            hasher(),
            CACHE,
        )
        .expect("open over memory")
    }

    /// `(tag, length, fnv1a64 of the bytes)` per file.
    fn fingerprints(&mut self) -> Vec<(&'static str, u64, u64)> {
        [
            ("dat", &mut self.dat),
            ("idx", &mut self.idx),
            ("slices", &mut self.slices),
            ("counts", &mut self.counts),
            ("commit", &mut self.commit),
            ("dedup", &mut self.dedup),
            ("log", &mut self.log),
            ("del", &mut self.del),
        ]
        .into_iter()
        .map(|(tag, file)| {
            let len = file.len().expect("len");
            let mut bytes = vec![0u8; len as usize];
            file.read_at(0, &mut bytes).expect("read");
            (tag, len, fnv1a64(&bytes))
        })
        .collect()
    }
}

/// Appends with receipts, a delete with a receipt, a bare flush, a reopen
/// that appends once more: every writer of every format runs at least
/// once, the ping-pong commit file has used both slots, and `.del` and
/// `.log` each hold more than one record.
#[test]
fn on_disk_formats_are_frozen() {
    let mut files = MemFiles::default();
    {
        let mut dep = files.open();
        let batch = txns(0..40);
        for t in &batch {
            dep.append(t).expect("append");
        }
        dep.flush_logged(0, &batch, &[(7, receipt(0, 25)), (8, receipt(25, 15))])
            .expect("logged flush");
        dep.commit_deletes(&[1, 3, 17], &[(9, receipt(u64::MAX, 3))])
            .expect("delete");
        let batch = txns(40..45);
        for t in &batch {
            dep.append(t).expect("append");
        }
        dep.flush_logged(40, &batch, &[(10, receipt(40, 5))])
            .expect("logged flush");
        dep.commit_deletes(&[41], &[]).expect("delete");
        dep.flush().expect("bare flush");
    }
    {
        let mut dep = files.open();
        assert_eq!((dep.db.len(), dep.deleted_rows()), (45, 4));
        assert_eq!(dep.dedup_lookup(9), Some(receipt(u64::MAX, 3)));
        dep.append_batch(&txns(45..50)).expect("batch after reopen");
    }
    let frozen: [(&str, u64, u64); 8] = [
        ("dat", 8192, 0xdf6bc26994f34cfa),
        ("idx", 12288, 0x525262251a1a34c8),
        ("slices", 258048, 0x11710fc5d9a83458),
        ("counts", 220, 0x4996803fe14f1d31),
        ("commit", 128, 0x2aea8c9a68e4145a),
        ("dedup", 160, 0x8bba3125a605532d),
        ("log", 1528, 0xac7ee92d292d645c),
        ("del", 80, 0x99d0744390f4ecee),
    ];
    assert_eq!(files.fingerprints(), frozen);
}

/// The swap marker is a format too: the one a compaction writes, read at
/// the hook step right after it became durable.
#[test]
fn swap_marker_is_frozen() {
    let mut base = std::env::temp_dir();
    base.push(format!("bbs_protocol_{}_marker", std::process::id()));
    {
        let mut dep = DiskDeployment::open(&base, WIDTH, hasher(), CACHE).expect("open");
        dep.append_batch(&txns(0..10)).expect("batch");
    }
    let marker = bbs_storage::maintain::swap_marker_path(&base);
    let mut seen = None;
    bbs_storage::compact_deployment_hooked(&base, WIDTH, hasher(), None, CACHE, &mut |step| {
        if step == "marker" {
            seen = Some(std::fs::read(&marker)?);
        }
        Ok(())
    })
    .expect("compact");
    DiskDeployment::remove_files(&base).ok();
    let bytes = seen.expect("the marker step ran");
    assert_eq!((bytes.len(), fnv1a64(&bytes)), (63, 0x5b52f40114982b32));
}
