//! Served == offline == in-memory on a churned deployment: most rows are
//! tombstoned, and `bbs client mine` against the running server,
//! `bbs mine-deployment` and `bbs mine-deployment --in-memory` over the
//! stopped files print the same patterns and supports, for every scheme,
//! serial and threaded — unsharded and behind `bbs serve` over three
//! shards.  A tombstoned row is in no tier's threshold base, counts or
//! refinement scan.

use bbs_server::Client;
use bbs_shard::ShardedDeployment;
use bbs_storage::DiskDeployment;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const SCHEMES: [&str; 4] = ["sfs", "sfp", "dfs", "dfp"];
const THREADS: [&str; 2] = ["1", "3"];
/// A fraction, so the base it resolves against matters: 12 % of the 150
/// live rows is 18, of all 500 rows 60.
const MIN_SUPPORT: &str = "12%";

fn temp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_churned_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        DiskDeployment::remove_files(&self.0).ok();
        ShardedDeployment::remove_files(&self.0).ok();
    }
}

fn bbs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bbs"))
}

/// Runs `bbs <args>` and returns its stdout; the command must succeed.
fn run(args: &[&str]) -> String {
    let out = bbs().args(args).output().expect("run bbs");
    assert!(out.status.success(), "bbs {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// The pattern lines a mining command printed (`support<TAB>items[ mark]`),
/// sorted: the server and the offline tool break support ties in
/// different orders.
fn mined(args: &[&str]) -> Vec<String> {
    let mut lines: Vec<String> = run(args).lines().map(str::to_string).collect();
    lines.sort();
    lines
}

fn spawn_server(base: &Path, width: Option<&str>) -> (Child, String) {
    let mut cmd = bbs();
    cmd.args([
        "serve",
        "--base",
        base.to_str().expect("utf8"),
        "--tcp",
        "127.0.0.1:0",
    ]);
    if let Some(width) = width {
        cmd.args(["--width", width]);
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn bbs serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before announcing its address")
            .expect("read stdout");
        if let Some(rest) = line.strip_prefix("listening tcp ") {
            break rest.trim().to_string();
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines.by_ref() {});
    (child, addr)
}

/// 500 rows over a 12-item background with two planted groups.  The
/// survivors are TIDs 0..150; `{20,21}` rides 40 of them and 200 of the
/// dead, `{30,31,32}` rides dead rows only.
fn rows() -> Vec<(u64, Vec<u32>)> {
    (0..500u64)
        .map(|t| {
            let mut items = vec![(t % 12) as u32, ((t * 5 + 1) % 12) as u32];
            if t < 40 || (200..400).contains(&t) {
                items.extend([20, 21]);
            }
            if t >= 300 {
                items.extend([30, 31, 32]);
            }
            (t, items)
        })
        .collect()
}

/// Ingests and churns through the running server, then collects what
/// `bbs client mine` prints for every scheme and thread count.
fn churn_and_mine_served(addr: &str) -> Vec<Vec<String>> {
    let mut client = Client::connect_tcp(addr).expect("connect");
    for batch in rows().chunks(64) {
        client.insert(batch).expect("insert");
    }
    let doomed: Vec<u64> = (150..500).collect();
    assert_eq!(client.delete(&doomed).expect("delete").deleted, 350);
    let mut served = Vec::new();
    for scheme in SCHEMES {
        for threads in THREADS {
            served.push(mined(&[
                "client",
                "mine",
                "--tcp",
                addr,
                "--min-support",
                MIN_SUPPORT,
                "--scheme",
                scheme,
                "--threads",
                threads,
            ]));
        }
    }
    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"sparse_ands\":"), "{stats}");
    client.shutdown_server().expect("shutdown");
    served
}

fn assert_survivors_only(lines: &[String], what: &str) {
    let has = |line: &str| lines.iter().any(|l| l == line);
    assert!(
        has("40\t20 21"),
        "{what}: the pair at its live support: {lines:?}"
    );
    assert!(
        !lines.iter().any(|l| l.contains("30 31")),
        "{what}: a dead-only group: {lines:?}"
    );
    assert!(lines.len() > 10, "{what}: {} patterns", lines.len());
}

#[test]
fn served_offline_and_in_memory_agree_on_a_churned_deployment() {
    let base = temp("single");
    let _g = Cleanup(base.clone());
    let path = base.to_str().expect("utf8");
    let (mut child, addr) = spawn_server(&base, Some("256"));
    let served = churn_and_mine_served(&addr);
    assert!(child.wait().expect("server exit").success());
    assert_survivors_only(&served[0], "served sfs x1");

    let mut outputs = served.iter();
    for scheme in SCHEMES {
        let in_memory = mined(&[
            "mine-deployment",
            "--base",
            path,
            "--min-support",
            MIN_SUPPORT,
            "--width",
            "256",
            "--scheme",
            scheme,
            "--in-memory",
        ]);
        for threads in THREADS {
            let served = outputs.next().expect("one per scheme and thread count");
            let offline = mined(&[
                "mine-deployment",
                "--base",
                path,
                "--min-support",
                MIN_SUPPORT,
                "--width",
                "256",
                "--scheme",
                scheme,
                "--threads",
                threads,
            ]);
            assert_eq!(served, &offline, "{scheme} x{threads}: served vs offline");
            assert_eq!(
                served, &in_memory,
                "{scheme} x{threads}: served vs in-memory"
            );
        }
    }
    // One answer, whatever the scheme: the exact supports of the survivors.
    assert!(
        served.iter().all(|s| s == &served[0]),
        "every scheme prints the same"
    );
}

#[test]
fn a_sharded_server_mines_the_same_churned_rows_in_place() {
    let base = temp("single_ref");
    let dir = temp("sharded");
    let (_g, _h) = (Cleanup(base.clone()), Cleanup(dir.clone()));
    let (mut child, addr) = spawn_server(&base, Some("256"));
    let unsharded = churn_and_mine_served(&addr);
    assert!(child.wait().expect("server exit").success());

    let path = dir.to_str().expect("utf8");
    run(&["create", "--base", path, "--shards", "3", "--width", "256"]);
    let (mut child, addr) = spawn_server(&dir, None);
    let served = churn_and_mine_served(&addr);
    assert!(child.wait().expect("sharded server exit").success());
    assert_survivors_only(&served[0], "sharded sfs x1");
    assert_eq!(
        served, unsharded,
        "3 shards print what one deployment prints"
    );

    let mut outputs = served.iter();
    for scheme in SCHEMES {
        for threads in THREADS {
            let offline = mined(&[
                "mine-deployment",
                "--base",
                path,
                "--min-support",
                MIN_SUPPORT,
                "--scheme",
                scheme,
                "--threads",
                threads,
            ]);
            assert_eq!(
                outputs.next(),
                Some(&offline),
                "{scheme} x{threads}: served vs offline"
            );
        }
    }
}
