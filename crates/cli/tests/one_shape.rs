//! Every offline command opens a base the same way, a plain `<base>.*`
//! as one partition and a shard directory as N: a read command neither
//! creates the base it was asked to read nor mistakes a directory for a
//! missing plain base, and `bbs compact --base DIR` moves every shard to
//! the MANIFEST width instead of moving the MANIFEST.

use bbs_storage::Deployment;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_one_shape_{}_{}", std::process::id(), name));
    p
}

struct Cleanup(Vec<PathBuf>);
impl Drop for Cleanup {
    fn drop(&mut self) {
        for p in &self.0 {
            Deployment::remove_files(p).ok();
            bbs_storage::DiskDeployment::remove_files(p).ok();
            std::fs::remove_file(p).ok();
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

/// The files `<base>.*` beside `base`, by name.
fn files_beside(base: &Path) -> Vec<String> {
    let name = base.file_name().expect("name").to_string_lossy().into_owned();
    let prefix = format!("{name}.");
    let mut found: Vec<String> = std::fs::read_dir(base.parent().expect("parent"))
        .expect("read_dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|f| f.starts_with(&prefix))
        .collect();
    found.sort();
    found
}

/// A directory of `shards` shards at width 256 holding 300 generated rows.
fn shard_directory(name: &str, shards: &str) -> (PathBuf, Cleanup) {
    let data = temp(&format!("{name}_data.txt"));
    let dir = temp(name);
    let guard = Cleanup(vec![data.clone(), dir.clone()]);
    ok(&["generate", "--out", path(&data), "--transactions", "300", "--items", "40", "--seed", "5"]);
    ok(&["create", "--base", path(&dir), "--shards", shards, "--width", "256"]);
    ok(&["ingest", "--base", path(&dir), "--db", path(&data)]);
    (dir, guard)
}

#[test]
fn stats_profiles_every_shard_of_a_directory() {
    let (dir, _g) = shard_directory("stats", "3");
    let stdout = ok(&["stats", "--base", path(&dir), "--min-support", "10%"]);
    assert!(stdout.contains("rows              : 300\n"), "{stdout}");
    assert!(stdout.contains("across 3 reader(s)"), "one reader per shard:\n{stdout}");
    assert_eq!(files_beside(&dir), Vec::<String>::new(), "a stray deployment appeared");
}

#[test]
fn read_commands_refuse_a_missing_base_and_create_nothing() {
    let base = temp("nosuch");
    let _g = Cleanup(vec![base.clone()]);
    let want = format!("no deployment at {0} (missing {0}.commit)", path(&base));
    for args in [
        vec!["mine-deployment", "--base", path(&base), "--min-support", "10%"],
        vec!["stats", "--base", path(&base)],
    ] {
        let out = bbs(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "bbs {args:?} must fail");
        assert!(stderr.contains(&want), "bbs {args:?}: {stderr}");
        assert_eq!(files_beside(&base), Vec::<String>::new(), "bbs {args:?} created files");
    }
}

#[test]
fn compact_without_width_moves_every_shard_to_the_manifest_width() {
    let (dir, _g) = shard_directory("compact", "3");
    let manifest = std::fs::read(dir.join("MANIFEST")).expect("read MANIFEST");
    ok(&["compact", "--base", path(&dir.join("shard-002")), "--width", "128"]);

    let stdout = ok(&["compact", "--base", path(&dir)]);
    assert!(!stdout.contains("manifest width updated"), "{stdout}");
    assert_eq!(
        std::fs::read(dir.join("MANIFEST")).expect("read MANIFEST"),
        manifest,
        "the MANIFEST moved"
    );
    let stdout = ok(&["fsck", "--base", path(&dir)]);
    assert_eq!(stdout.matches(": clean").count(), 3, "{stdout}");
}
