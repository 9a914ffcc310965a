//! End-to-end tests of the `bbs` subcommands through their library entry
//! points, using temp files.

use bbs_cli::args::Flags;
use bbs_cli::commands;
use std::path::PathBuf;

fn flags(pairs: &[(&str, &str)]) -> Flags {
    let mut argv: Vec<String> = Vec::new();
    for (k, v) in pairs {
        argv.push(format!("--{k}"));
        argv.push(v.to_string());
    }
    Flags::parse(argv)
}

fn temp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("bbs_cli_test_{}_{name}", std::process::id()));
    p
}

struct Cleanup(Vec<PathBuf>);
impl Drop for Cleanup {
    fn drop(&mut self) {
        for p in &self.0 {
            std::fs::remove_file(p).ok();
        }
    }
}

/// Removes a deployment's files.
struct DeploymentCleanup(PathBuf);
impl Drop for DeploymentCleanup {
    fn drop(&mut self) {
        bbs_storage::DiskDeployment::remove_files(&self.0).ok();
    }
}

#[test]
fn generate_ingest_mine_count_pipeline() {
    let data = temp("pipeline.txt");
    let base = temp("pipeline_dep");
    let _cleanup = (Cleanup(vec![data.clone()]), DeploymentCleanup(base.clone()));
    let data_s = data.to_str().expect("utf8 path");
    let base_s = base.to_str().expect("utf8 path");

    commands::generate(&flags(&[
        ("out", data_s),
        ("transactions", "300"),
        ("items", "80"),
        ("avg-len", "6"),
        ("pattern-len", "3"),
        ("pattern-pool", "25"),
        ("seed", "11"),
    ]))
    .expect("generate");
    assert!(data.exists());

    commands::stats(&flags(&[("db", data_s)])).expect("stats");

    commands::ingest(&flags(&[
        ("db", data_s),
        ("base", base_s),
        ("width", "128"),
    ]))
    .expect("ingest");
    assert!(base.with_extension("slices").exists());

    // Mining the persisted deployment must succeed for every BBS scheme,
    // in place and memory-resident.
    for scheme in ["sfs", "sfp", "dfs", "dfp"] {
        commands::mine_deployment(&flags(&[
            ("base", base_s),
            ("width", "128"),
            ("min-support", "5%"),
            ("scheme", scheme),
            ("top", "3"),
        ]))
        .unwrap_or_else(|e| panic!("mine-deployment --scheme {scheme}: {e}"));
    }
    let in_memory = [
        "--base",
        base_s,
        "--width",
        "128",
        "--min-support",
        "5%",
        "--in-memory",
    ];
    commands::mine_deployment(&Flags::parse(in_memory.iter().map(|s| s.to_string())))
        .expect("mine-deployment --in-memory");

    commands::count(&flags(&[
        ("db", data_s),
        ("width", "128"),
        ("items", "1 2"),
    ]))
    .expect("count");

    commands::count(&flags(&[
        ("db", data_s),
        ("width", "128"),
        ("items", "1 2"),
        ("mod", "7"),
    ]))
    .expect("constrained count");
}

#[test]
fn mine_deployment_width_mismatch_is_rejected() {
    let data = temp("width.txt");
    let base = temp("width_dep");
    let _cleanup = (Cleanup(vec![data.clone()]), DeploymentCleanup(base.clone()));
    let data_s = data.to_str().expect("utf8 path");
    let base_s = base.to_str().expect("utf8 path");

    commands::generate(&flags(&[
        ("out", data_s),
        ("transactions", "50"),
        ("items", "20"),
        ("pattern-pool", "5"),
    ]))
    .expect("generate");
    commands::ingest(&flags(&[("db", data_s), ("base", base_s), ("width", "64")])).expect("ingest");

    // The deployment was built at width 64; mining it at another width
    // must refuse rather than hash queries into the wrong slices.
    let err = commands::mine_deployment(&flags(&[
        ("base", base_s),
        ("width", "128"),
        ("min-support", "10%"),
    ]))
    .expect_err("width mismatch must be rejected");
    assert!(err.to_string().contains("!= requested 128"), "{err}");
}

#[test]
fn missing_flags_and_bad_values_error_cleanly() {
    assert!(commands::generate(&flags(&[("out", "/tmp/x")])).is_err());
    assert!(commands::stats(&flags(&[("db", "/nonexistent/definitely.txt")])).is_err());
    let data = temp("badvals.txt");
    let _cleanup = Cleanup(vec![data.clone()]);
    let data_s = data.to_str().expect("utf8 path");
    commands::generate(&flags(&[
        ("out", data_s),
        ("transactions", "30"),
        ("items", "10"),
        ("pattern-pool", "5"),
    ]))
    .expect("generate");
    assert!(commands::mine(&flags(&[
        ("db", data_s),
        ("min-support", "200%"),
    ]))
    .is_err());
    assert!(commands::mine(&flags(&[
        ("db", data_s),
        ("min-support", "5%"),
        ("scheme", "quantum"),
    ]))
    .is_err());
    assert!(commands::count(&flags(&[("db", data_s), ("items", "one two")])).is_err());
}
