//! `bbs fsck` on a shard directory whose shards disagree on width: one
//! shard compacted to another width by hand reads as DIRTY, the problem
//! names both widths and the fix, and the fix makes the directory clean.

use bbs_shard::ShardedDeployment;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_fsck_width_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(Vec<PathBuf>);
impl Drop for Cleanup {
    fn drop(&mut self) {
        for p in &self.0 {
            if p.is_dir() {
                ShardedDeployment::remove_files(p).ok();
            } else {
                std::fs::remove_file(p).ok();
            }
        }
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
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf8 path")
}

#[test]
fn fsck_reports_a_shard_at_another_width_dirty() {
    let data = temp("data.txt");
    let dir = temp("two");
    let _g = Cleanup(vec![data.clone(), dir.clone()]);
    ok(&["generate", "--out", path(&data), "--transactions", "200", "--items", "40", "--seed", "5"]);
    ok(&["create", "--base", path(&dir), "--shards", "2", "--width", "256"]);
    ok(&["ingest", "--base", path(&dir), "--db", path(&data)]);
    let stdout = ok(&["fsck", "--base", path(&dir)]);
    assert_eq!(stdout.matches(": clean").count(), 2, "{stdout}");

    let shard0 = dir.join("shard-000");
    ok(&["compact", "--base", path(&shard0), "--width", "128"]);
    let out = bbs(&["fsck", "--base", path(&dir)]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "a width mismatch must fail fsck:\n{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].starts_with("shard 000: DIRTY"), "{stdout}");
    assert!(
        lines[1].starts_with("  problem: ")
            && lines[1].contains("width 128")
            && lines[1].contains("MANIFEST width 256")
            && lines[1].contains("--width 256"),
        "the problem names both widths and the fix:\n{stdout}"
    );
    assert!(lines[2].starts_with("shard 001: clean"), "{stdout}");

    ok(&["compact", "--base", path(&shard0), "--width", "256"]);
    let stdout = ok(&["fsck", "--base", path(&dir)]);
    assert_eq!(stdout.matches(": clean").count(), 2, "{stdout}");
}
