//! `bbs fsck` (and the commands that open a deployment) on a format-v1
//! deployment: the typed message on stderr, a non-zero exit, and every
//! file byte for byte as it was.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn temp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_cli_format_{}_{}", std::process::id(), name));
    std::fs::create_dir_all(&p).expect("mkdir");
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn bbs(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bbs"))
        .args(args)
        .output()
        .expect("run bbs")
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
fn fsck_refuses_a_v1_deployment_and_leaves_it_alone() {
    let dir = temp("fsck");
    let _g = Cleanup(dir.clone());
    let db = dir.join("data.txt");
    let base = dir.join("dep");
    let (db, base) = (db.to_str().expect("utf8"), base.to_str().expect("utf8"));
    let out = bbs(&[
        "generate",
        "--out",
        db,
        "--transactions",
        "200",
        "--items",
        "40",
        "--seed",
        "5",
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = bbs(&["ingest", "--base", base, "--db", db, "--width", "128"]);
    assert!(out.status.success(), "{out:?}");
    let out = bbs(&["fsck", "--base", base]);
    assert!(out.status.success(), "a fresh deployment is clean: {out:?}");

    // Re-label the commit slots as valid format-v1 records.
    let commit_path = dir.join("dep.commit");
    let mut commit = std::fs::read(&commit_path).expect("read commit");
    let mut relabelled = 0;
    for slot in commit.chunks_exact_mut(64) {
        if slot[0..8] == u64::from_be_bytes(*b"BBSCMT02").to_le_bytes() {
            slot[0..8].copy_from_slice(&u64::from_be_bytes(*b"BBSCMT01").to_le_bytes());
            let digest = bbs_storage::fnv1a64(&slot[0..56]);
            slot[56..64].copy_from_slice(&digest.to_le_bytes());
            relabelled += 1;
        }
    }
    assert!(relabelled > 0);
    std::fs::write(&commit_path, commit).expect("write commit");
    let before = files(&dir);

    for args in [
        &["fsck", "--base", base][..],
        &[
            "mine-deployment",
            "--base",
            base,
            "--min-support",
            "20%",
            "--width",
            "128",
        ],
        &["ingest", "--base", base, "--db", db, "--width", "128"],
    ] {
        let out = bbs(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("format v1 (FNV-1a page digests); rebuild with `bbs ingest`"),
            "{args:?}: {stderr}"
        );
        assert_eq!(files(&dir), before, "{args:?} changed a file");
    }
}
