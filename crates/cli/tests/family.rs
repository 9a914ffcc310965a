//! `--hash-k` chooses a hash family only where a base is laid out; every
//! later command reads the base under the family its slice header
//! records, and a `--hash-k` given to one of them is checked against it,
//! as `--width` is.  The fixture is a 40-row base ingested at `md5/3`.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

fn temp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_cli_family_{}_{}", std::process::id(), name));
    std::fs::create_dir_all(&p).expect("mkdir");
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A `bbs serve` child, killed if the test fails before it stops.
struct Server(Child);
impl Drop for Server {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

fn bbs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bbs"))
        .args(args)
        .output()
        .expect("run bbs")
}

fn ok(args: &[&str]) -> String {
    let out = bbs(args);
    assert!(out.status.success(), "bbs {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf8 path")
}

/// Writes the data file and the `md5/3` base into `dir`; returns them.
fn fixture(dir: &Path) -> (PathBuf, PathBuf) {
    let (data, base) = (dir.join("data.txt"), dir.join("b"));
    ok(&[
        "generate",
        "--out",
        path(&data),
        "--transactions",
        "40",
        "--items",
        "20",
        "--seed",
        "2002",
    ]);
    ok(&[
        "ingest",
        "--base",
        path(&base),
        "--db",
        path(&data),
        "--hash-k",
        "3",
        "--width",
        "64",
    ]);
    (data, base)
}

#[test]
fn every_read_of_a_base_uses_its_recorded_family() {
    let dir = temp("read");
    let _g = Cleanup(dir.clone());
    let (data, base) = fixture(&dir);
    let mine = |extra: &[&str]| {
        let mut args = vec![
            "mine-deployment",
            "--base",
            path(&base),
            "--min-support",
            "10",
            "--scheme",
            "dfs",
            "--threads",
            "1",
        ];
        args.extend_from_slice(extra);
        bbs(&args)
    };
    let named = mine(&["--hash-k", "3"]);
    let unnamed = mine(&[]);
    assert!(named.status.success() && unnamed.status.success());
    assert_eq!(unnamed.stdout, named.stdout);
    assert_eq!(
        String::from_utf8_lossy(&unnamed.stdout).lines().count(),
        837
    );

    // Another family, given to a command that reads the base, is refused
    // naming both — and so is an ingest onto the existing base.
    for refused in [
        mine(&["--hash-k", "5"]),
        bbs(&["stats", "--base", path(&base), "--hash-k", "5"]),
        bbs(&[
            "ingest",
            "--base",
            path(&base),
            "--db",
            path(&data),
            "--hash-k",
            "5",
        ]),
    ] {
        let err = String::from_utf8_lossy(&refused.stderr).into_owned();
        assert!(!refused.status.success(), "{err}");
        assert!(err.contains("md5/3") && err.contains("md5/5"), "{err}");
    }
    assert!(ok(&["fsck", "--base", path(&base)]).contains("clean"));
}

#[test]
fn a_hash_k_that_names_no_family_is_refused() {
    let dir = temp("bad_k");
    let _g = Cleanup(dir.clone());
    let (data, _) = fixture(&dir);
    for (k, says) in [("0", "no hash functions"), ("100000000", "more than 64")] {
        let out = bbs(&["count", "--db", path(&data), "--items", "3", "--hash-k", k]);
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            !out.status.success() && err.contains(says),
            "--hash-k {k}: {err}"
        );
    }
}

#[test]
fn serve_counts_every_item_at_or_above_its_exact_support() {
    let dir = temp("serve");
    let _g = Cleanup(dir.clone());
    let (data, base) = fixture(&dir);
    let child = Command::new(env!("CARGO_BIN_EXE_bbs"))
        .args([
            "serve",
            "--base",
            path(&base),
            "--tcp",
            "127.0.0.1:0",
            "--width",
            "64",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn bbs serve");
    let mut server = Server(child);
    let mut lines = BufReader::new(server.0.stdout.take().expect("stdout")).lines();
    let addr = loop {
        let line = lines.next().expect("server announced").expect("read");
        if let Some(rest) = line.strip_prefix("listening tcp ") {
            break rest.trim().to_string();
        }
    };
    std::thread::spawn(move || for _ in lines.by_ref() {});

    let rows: Vec<Vec<u32>> = std::fs::read_to_string(&data)
        .expect("read data")
        .lines()
        .filter_map(|l| l.split_once(':'))
        .map(|(_, items)| {
            items
                .split_whitespace()
                .map(|i| i.parse().expect("item"))
                .collect()
        })
        .collect();
    assert_eq!(rows.len(), 40);
    for item in 0..20u32 {
        let exact = rows.iter().filter(|r| r.contains(&item)).count() as u64;
        let items = item.to_string();
        let served = ok(&["client", "count", "--tcp", &addr, "--items", &items]);
        let served: u64 = served.trim().parse().expect("a support");
        assert!(
            served >= exact,
            "item {item}: served {served} < exact {exact}"
        );
    }
    ok(&["client", "shutdown", "--tcp", &addr]);
    assert!(server.0.wait().expect("wait").success());
}
