//! A width change interrupted between shards mines like the finished one.
//!
//! One shard of a three-shard directory is compacted to half width and
//! the MANIFEST is left alone: what a crash between the shards of `bbs
//! compact --base DIR --width M` leaves behind.  Each shard's estimate is
//! an upper bound on its own rows at any width, so the half-finished
//! directory must open and mine the same itemsets, through the library
//! and through `bbs mine-deployment`, as the same directory once `bbs
//! compact --base DIR` has finished the change — every scheme, serial and
//! threaded.  Supports agree wherever neither side marks one an upper
//! bound: a certified support is an estimate, and estimates depend on the
//! width; the exact frequent set does not.

use bbs_core::Scheme;
use bbs_hash::Md5BloomHasher;
use bbs_storage::{mine_deployment, Deployment};
use bbs_tdb::SupportThreshold;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

const SCHEMES: [(&str, Scheme); 4] = [
    ("sfs", Scheme::Sfs),
    ("sfp", Scheme::Sfp),
    ("dfs", Scheme::Dfs),
    ("dfp", Scheme::Dfp),
];
const THREADS: [usize; 2] = [1, 3];
const MIN_SUPPORT: &str = "5%";

fn temp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_half_width_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(PathBuf, PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        Deployment::remove_files(&self.0).ok();
        std::fs::remove_file(&self.1).ok();
    }
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf8 path")
}

/// Runs `bbs <args>` and returns its stdout; the command must succeed.
fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bbs"))
        .args(args)
        .output()
        .expect("run bbs");
    assert!(out.status.success(), "bbs {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// Itemset → (support, whether the support is only an upper bound).
type Mined = BTreeMap<Vec<u32>, (u64, bool)>;

fn library_mine(dir: &Path, scheme: Scheme, threads: usize) -> Mined {
    let mut dep =
        Deployment::open(dir, Arc::new(Md5BloomHasher::new(4)), 256).expect("open the directory");
    let (result, _) = mine_deployment(&mut dep, scheme, SupportThreshold::percent(5.0), threads)
        .expect("mine the directory");
    result
        .patterns
        .iter()
        .map(|(items, support)| {
            let ids = items.items().iter().map(|i| i.0).collect();
            (ids, (support, result.approx_supports.contains(items)))
        })
        .collect()
}

fn cli_mine(dir: &Path, scheme: &str, threads: usize) -> Mined {
    let threads = threads.to_string();
    let args = [
        "mine-deployment",
        "--base",
        path(dir),
        "--min-support",
        MIN_SUPPORT,
        "--scheme",
        scheme,
        "--threads",
        &threads,
    ];
    run(&args)
        .lines()
        .map(|line| {
            let (support, rest) = line.split_once('\t').expect("support<TAB>items");
            let (items, upper) = match rest.strip_suffix(" (upper bound)") {
                Some(items) => (items, true),
                None => (rest, false),
            };
            let ids = items.split(' ').map(|i| i.parse().expect("item id")).collect();
            (ids, (support.parse().expect("support"), upper))
        })
        .collect()
}

/// The same itemsets, and the same support on every one that neither
/// side marks as an upper bound.
fn assert_same_patterns(half: &Mined, done: &Mined, what: &str) {
    assert!(!done.is_empty(), "{what}: nothing was frequent");
    assert_eq!(
        half.keys().collect::<Vec<_>>(),
        done.keys().collect::<Vec<_>>(),
        "{what}: the itemsets differ"
    );
    for (items, &(support, upper)) in half {
        let (exact, done_upper) = done[items];
        if !upper && !done_upper {
            assert_eq!(support, exact, "{what}: support of {items:?}");
        }
    }
}

#[test]
fn a_half_finished_width_change_mines_like_the_finished_one() {
    let dir = temp("three");
    let data = temp("data.txt");
    let _g = Cleanup(dir.clone(), data.clone());
    run(&["generate", "--out", path(&data), "--transactions", "900", "--items", "60", "--seed", "11"]);
    run(&["create", "--base", path(&dir), "--shards", "3", "--width", "256"]);
    run(&["ingest", "--base", path(&dir), "--db", path(&data)]);
    let shard0 = dir.join("shard-000");
    run(&["compact", "--base", path(&shard0), "--width", "128"]);

    let mut half = Vec::new();
    for (name, scheme) in SCHEMES {
        for threads in THREADS {
            half.push((library_mine(&dir, scheme, threads), cli_mine(&dir, name, threads)));
        }
    }

    let out = run(&["compact", "--base", path(&dir)]);
    assert!(out.contains("shard 000: compact to width 256"), "{out}");
    assert!(!out.contains("manifest width updated"), "{out}");
    let mut half = half.into_iter();
    for (name, scheme) in SCHEMES {
        for threads in THREADS {
            let (half_lib, half_cli) = half.next().expect("one half-width run per case");
            let what = format!("{name} on {threads} thread(s)");
            assert_same_patterns(&half_lib, &library_mine(&dir, scheme, threads), &what);
            assert_same_patterns(&half_cli, &cli_mine(&dir, name, threads), &what);
        }
    }
}
