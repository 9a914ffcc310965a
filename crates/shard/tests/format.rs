//! The format gate through the shard layer: a shard directory whose
//! shards are format v1 (commit slots carrying `BBSCMT01`) is refused by
//! `ShardedDeployment::open` with the typed error and left byte for byte
//! as it was; `verify` reports every shard dirty with the same message.

use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_shard::{shard_base, ShardedDeployment};
use bbs_storage::{deployment_paths, format_v1};
use bbs_tdb::{Itemset, Transaction};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SHARDS: usize = 3;

fn dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_shard_format_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn hasher() -> Arc<dyn ItemHasher> {
    Arc::new(Md5BloomHasher::new(4))
}

fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
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

#[test]
fn v1_shards_are_refused_untouched() {
    let d = dir("v1");
    let _g = Cleanup(d.clone());
    {
        let mut dep = ShardedDeployment::create(&d, SHARDS, 64, hasher(), 64).expect("create");
        for tid in 0..60u64 {
            let t = Transaction::new(tid, Itemset::from_values(&[7, 100 + (tid % 5) as u32]));
            dep.append(&t).expect("append");
        }
        dep.flush().expect("flush");
    }
    // Re-label every shard's commit slots as valid format-v1 records.
    for shard in 0..SHARDS {
        let path = deployment_paths(&shard_base(&d, shard)).commit;
        let mut commit = std::fs::read(&path).expect("read commit");
        for slot in commit.chunks_exact_mut(64) {
            if slot[0..8] == u64::from_be_bytes(*b"BBSCMT02").to_le_bytes() {
                slot[0..8].copy_from_slice(&u64::from_be_bytes(*b"BBSCMT01").to_le_bytes());
                let digest = bbs_storage::fnv1a64(&slot[0..56]);
                slot[56..64].copy_from_slice(&digest.to_le_bytes());
            }
        }
        std::fs::write(&path, commit).expect("write commit");
    }
    let before = files(&d);

    let err = match ShardedDeployment::open(&d, hasher(), 64) {
        Ok(_) => panic!("v1 shards must be refused"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(format_v1(&err).is_some(), "{err}");
    assert_eq!(files(&d), before, "open changed a file");

    let reports = ShardedDeployment::verify(&d).expect("verify");
    assert_eq!(reports.len(), SHARDS);
    for r in &reports {
        assert!(!r.report.is_clean());
        assert!(
            r.report.problems.iter().any(|p| p.contains("format v1")),
            "shard {}: {}",
            r.shard,
            r.report
        );
    }
    assert_eq!(files(&d), before, "verify changed a file");
}
