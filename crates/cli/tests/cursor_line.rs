//! `bbs mine-deployment` reports what the filter's cursor did — the
//! stderr `# cursor:` line — for the memory-resident walk as it does for
//! the in-place one, and on a base without deletes the two walks are the
//! same walk: the same extends, τ exits, skipped chunks and sparse ANDs.

use std::path::PathBuf;
use std::process::Command;

fn temp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_cursor_line_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(PathBuf, PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        bbs_storage::DiskDeployment::remove_files(&self.0).ok();
        std::fs::remove_file(&self.1).ok();
    }
}

/// Runs `bbs <args>`, which must succeed, and returns its stdout and
/// stderr.
fn run(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bbs"))
        .args(args)
        .output()
        .expect("run bbs");
    assert!(out.status.success(), "bbs {args:?} failed: {out:?}");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf8");
    (text(out.stdout), text(out.stderr))
}

fn cursor_line(stderr: &str) -> &str {
    stderr
        .lines()
        .find(|l| l.starts_with("# cursor:"))
        .unwrap_or_else(|| panic!("no cursor line in {stderr}"))
}

#[test]
fn the_in_memory_walk_reports_the_in_place_walks_cursor() {
    let (base, data) = (temp("dep"), temp("data.txt"));
    let _g = Cleanup(base.clone(), data.clone());
    let (base, data) = (base.to_str().unwrap(), data.to_str().unwrap());
    run(&[
        "generate",
        "--out",
        data,
        "--transactions",
        "400",
        "--items",
        "60",
        "--seed",
        "5",
    ]);
    run(&["ingest", "--base", base, "--db", data, "--width", "128"]);
    let mine = |mode: &[&str]| {
        let mut args = vec!["mine-deployment", "--base", base, "--min-support", "4%"];
        args.extend_from_slice(&["--scheme", "dfs"]);
        args.extend_from_slice(mode);
        run(&args)
    };
    let (in_place, in_place_err) = mine(&["--threads", "1"]);
    let (in_memory, in_memory_err) = mine(&["--in-memory"]);
    assert_eq!(in_place, in_memory, "the same patterns");
    let (a, b) = (cursor_line(&in_place_err), cursor_line(&in_memory_err));
    assert_eq!(a, b);
    assert!(!a.starts_with("# cursor: 0 extends"), "{a}");
}
