//! The mining-statistics oracle on real disk cursors: `mine_sharded` over
//! one to four shards mines what `mine_in_place` mines over the same rows
//! in one deployment — patterns, supports, approx markers and the whole
//! `MineStats` — for every scheme and worker count, at a width narrow
//! enough that the filter over-estimates and the settle refines.

use bbs_core::Scheme;
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_shard::{mine_sharded, ShardedDeployment};
use bbs_storage::{mine_in_place, DiskDeployment};
use bbs_tdb::{Itemset, MineResult, SupportThreshold, Transaction};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const WIDTH: usize = 64;
const TAU: u64 = 12;

fn base(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_shard_mine_stats_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(Vec<PathBuf>);
impl Drop for Cleanup {
    fn drop(&mut self) {
        for p in &self.0 {
            DiskDeployment::remove_files(p).ok();
            ShardedDeployment::remove_files(p).ok();
        }
    }
}

fn hasher() -> Arc<dyn ItemHasher> {
    Arc::new(Md5BloomHasher::new(3))
}

/// 240 rows over 30 items: a pseudo-random pair per row plus planted
/// groups, so the lattice is several levels deep.
fn transactions() -> Vec<Transaction> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 24) as u32
    };
    (0..240u64)
        .map(|i| {
            let mut items = vec![next(), next()];
            if i % 2 == 0 {
                items.extend([24, 25]);
            }
            if i % 3 == 0 {
                items.extend([26, 27, 28]);
            }
            if i % 5 == 0 {
                items.extend([25, 29]);
            }
            Transaction::new(i, Itemset::from_values(&items))
        })
        .collect()
}

fn unsharded(path: &Path, txns: &[Transaction]) -> DiskDeployment {
    let mut dep = DiskDeployment::open(path, WIDTH, hasher(), 16).expect("open");
    for txn in txns {
        dep.append(txn).expect("append");
    }
    dep.flush().expect("flush");
    dep
}

fn sharded(dir: &Path, shards: usize, txns: &[Transaction]) -> ShardedDeployment {
    let mut dep = ShardedDeployment::create(dir, shards, WIDTH, hasher(), 16).expect("create");
    for txn in txns {
        dep.append(txn).expect("append");
    }
    dep.flush().expect("flush");
    dep
}

fn canon(r: &MineResult) -> (Vec<(Itemset, u64)>, Vec<Itemset>) {
    let mut patterns: Vec<(Itemset, u64)> =
        r.patterns.iter().map(|(k, s)| (k.clone(), s)).collect();
    patterns.sort();
    let mut approx: Vec<Itemset> = r.approx_supports.iter().cloned().collect();
    approx.sort();
    (patterns, approx)
}

#[test]
fn sharded_mining_matches_in_place_mining_statistics_included() {
    let txns = transactions();
    let one = base("one");
    let dirs: Vec<PathBuf> = (1..=4).map(|n| base(&format!("shards{n}"))).collect();
    let _g = Cleanup(std::iter::once(one.clone()).chain(dirs.clone()).collect());
    let mut whole = unsharded(&one, &txns);
    let mut parts: Vec<ShardedDeployment> = dirs
        .iter()
        .zip(1..)
        .map(|(dir, n)| sharded(dir, n, &txns))
        .collect();
    let threshold = SupportThreshold::Count(TAU);
    for scheme in Scheme::ALL {
        let (want, _) = mine_in_place(&mut whole, scheme, threshold, 1).expect("in place");
        assert!(want.patterns.len() > 20, "{scheme:?}: a real lattice");
        if scheme == Scheme::Sfs {
            assert!(want.stats.false_drops > 0, "the settle refined something");
        }
        for dep in parts.iter_mut() {
            for threads in [1, 3] {
                let what = format!("{scheme:?} over {} shard(s) x{threads}", dep.shard_count());
                let (got, _) = mine_sharded(dep, scheme, threshold, threads).expect("sharded");
                assert_eq!(canon(&got), canon(&want), "{what}");
                assert_eq!(got.stats, want.stats, "{what}");
            }
        }
    }
}
