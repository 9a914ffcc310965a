//! The benchmark's vocabulary: every workload and metric name, with unit,
//! direction and (for end-to-end metrics) regression bound.  `BENCHMARK.json`
//! at the repository root repeats these tables for the driver; a unit test
//! keeps the two in agreement, and every emitter goes through
//! [`E2E`] / [`LAYER`] so a run can print nothing else.

use crate::json::Json;

/// What the driver runs (it appends `--workload … --seed … --seconds …
/// --trace …`), where the benchmark lives, and how long one run measures.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
pub const PATHS: [&str; 1] = ["benchmark"];
pub const RUN_SECONDS: u32 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// `new / old` oriented so that a value above 1 is worse.
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        match self {
            Better::Lower => new / old,
            Better::Higher => old / new,
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "quest-warm",
        why: "Quest T10.I10 on one engine whose page cache holds the whole slice file: kernel, shared scan, proto and net do the read work.",
    },
    Workload {
        name: "quest-cold",
        why: "Four times the base rows against a 2048-page cache, 4800 slice pages behind it: counts pay pager reads and evictions; appends still fit.",
    },
    Workload {
        name: "weblog-churn",
        why: "Paper 4.8 weblog with 20% daily expiry: deletes, tombstone-masked counts, a reader beside the committing writer, compaction that reclaims.",
    },
    Workload {
        name: "quest-scatter",
        why: "Quest rows over four shard servers behind the coordinator: router, pin protocol and fan-out dominate and per-shard scans are 4x smaller.",
    },
];

pub struct E2eMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> E2eMetric {
    E2eMetric {
        name,
        unit,
        better,
        bound,
        what,
    }
}

#[rustfmt::skip]
pub const E2E: [E2eMetric; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25,
        "generate the rows, build the base offline, start the servers, connect (median of 3 set-ups)"),
    e2e("count_p50_us", "us", Better::Lower, 0.25,
        "single `count` round trip over TCP on a quiesced server: median slice of all boots, each slice its median round trip"),
    e2e("count_itemsets_per_s", "itemsets/s", Better::Higher, 0.25,
        "`count_many` frames of 64 itemsets on one connection, median slice of all boots"),
    e2e("mine_s", "s", Better::Lower, 0.25,
        "served MINE (DFP, 0.4% of the live rows, 0.1% on the weblog, one thread), 0.22 s of them per server boot and one at least, median"),
    e2e("mine_inplace_s", "s", Better::Lower, 0.25,
        "the CLI's path: open the stopped deployment and `mine_in_place` / `mine_sharded`; thrice between server boots, once after the compaction, median"),
    e2e("ingest_txns_per_s", "txns/s", Better::Higher, 0.2,
        "acknowledged-durable rows per second through the server's group commit"),
    e2e("insert_p50_ms", "ms", Better::Lower, 0.2,
        "insert frame round trip (128 rows; 256 through the coordinator), queue wait and commit window included"),
    e2e("disk_bytes_per_txn", "B", Better::Lower, 0.02,
        "bytes of every deployment file after compaction and shutdown, per live transaction"),
    e2e("rss_peak_mib", "MiB", Better::Lower, 0.25,
        "the process's VmHWM once the served and in-place phases are over"),
];

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this layer number is predicted to move, and
    /// the workload on which the move should show most.
    pub moves: &'static str,
    pub on: &'static str,
    /// Repeats exactly between two runs of the same commit and seed.
    pub exact: bool,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
    exact: bool,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        on,
        exact,
    }
}

use Better::{Higher, Lower};

#[rustfmt::skip]
pub const LAYER: [LayerMetric; 80] = [
    // Read seams at batch 64: a layer's cost is the difference of two
    // adjacent rows.
    layer("bitslice.and_count_us_per_itemset", "us", Lower, "count_itemsets_per_s", "quest-warm", false),
    layer("bitslice.words_anded_per_itemset", "count", Lower, "count_itemsets_per_s", "quest-warm", true),
    layer("hash.positions_us_per_itemset", "us", Lower, "count_itemsets_per_s", "quest-warm", false),
    layer("storage.slicefile_us_per_itemset", "us", Lower, "count_itemsets_per_s", "quest-warm", false),
    layer("storage.snapshot_us_per_itemset", "us", Lower, "count_itemsets_per_s", "quest-warm", false),
    layer("server.engine_us_per_itemset", "us", Lower, "count_itemsets_per_s", "quest-warm", false),
    layer("server.handle_us_per_itemset", "us", Lower, "count_itemsets_per_s", "quest-warm", false),
    layer("server.proto_us_per_itemset", "us", Lower, "count_itemsets_per_s", "quest-warm", false),
    layer("server.unix_us_per_itemset", "us", Lower, "count_itemsets_per_s", "quest-warm", false),
    layer("server.tcp_us_per_itemset", "us", Lower, "count_itemsets_per_s", "quest-warm", false),
    layer("server.ping_rtt_us", "us", Lower, "count_p50_us", "quest-warm", false),
    layer("server.ping_unix_rtt_us", "us", Lower, "count_p50_us", "quest-warm", false),
    // Single-count seams.
    layer("storage.snapshot_count_us", "us", Lower, "count_p50_us", "quest-warm", false),
    layer("server.engine_count_us", "us", Lower, "count_p50_us", "quest-warm", false),
    layer("server.tcp_count_us", "us", Lower, "count_p50_us", "quest-warm", false),
    layer("server.tcp_count_p95_us", "us", Lower, "count_p50_us", "quest-warm", false),
    layer("server.tcp_count_p99_us", "us", Lower, "count_p50_us", "quest-warm", false),
    // Page cache, one client: the same frames against a cache that fits
    // and one of 64 pages.
    layer("storage.cache_hit_ratio_warm", "ratio", Higher, "count_itemsets_per_s", "quest-warm", true),
    layer("storage.cache_hit_ratio_cold", "ratio", Higher, "count_itemsets_per_s", "quest-cold", true),
    layer("storage.pager_reads_per_itemset_cold", "count", Lower, "count_itemsets_per_s", "quest-cold", true),
    layer("storage.cache_evictions_cold", "count", Lower, "count_itemsets_per_s", "quest-cold", true),
    layer("storage.hot_hits_per_itemset", "count", Higher, "count_itemsets_per_s", "quest-warm", true),
    // Scatter seams: four shards built from the same rows.
    layer("shard.gather_us_per_itemset", "us", Lower, "count_itemsets_per_s", "quest-scatter", false),
    layer("server.sharded_us_per_itemset", "us", Lower, "count_itemsets_per_s", "quest-scatter", false),
    layer("remote.handle_pin_us", "us", Lower, "count_p50_us", "quest-scatter", false),
    layer("remote.handle_count_us_per_itemset", "us", Lower, "count_itemsets_per_s", "quest-scatter", false),
    layer("remote.coordinator_us_per_itemset", "us", Lower, "count_itemsets_per_s", "quest-scatter", false),
    layer("remote.coordinator_count_us", "us", Lower, "count_p50_us", "quest-scatter", false),
    layer("remote.tcp_us_per_itemset", "us", Lower, "count_itemsets_per_s", "quest-scatter", false),
    layer("remote.tcp_count_us", "us", Lower, "count_p50_us", "quest-scatter", false),
    // Write path: every backend write and sync is a child span of the
    // commit that caused it.
    layer("storage.commit_ms_p50", "ms", Lower, "insert_p50_ms", "weblog-churn", false),
    layer("storage.syncs_per_commit", "count", Lower, "insert_p50_ms", "weblog-churn", true),
    layer("storage.writes_per_commit", "count", Lower, "insert_p50_ms", "weblog-churn", true),
    layer("storage.sync_ms_per_commit", "ms", Lower, "insert_p50_ms", "weblog-churn", false),
    layer("storage.sync_ms.dat", "ms", Lower, "insert_p50_ms", "weblog-churn", false),
    layer("storage.sync_ms.idx", "ms", Lower, "insert_p50_ms", "weblog-churn", false),
    layer("storage.sync_ms.slices", "ms", Lower, "insert_p50_ms", "weblog-churn", false),
    layer("storage.sync_ms.counts", "ms", Lower, "insert_p50_ms", "weblog-churn", false),
    layer("storage.sync_ms.dedup", "ms", Lower, "insert_p50_ms", "weblog-churn", false),
    layer("storage.sync_ms.log", "ms", Lower, "insert_p50_ms", "weblog-churn", false),
    layer("storage.sync_ms.del", "ms", Lower, "insert_p50_ms", "weblog-churn", false),
    layer("storage.sync_ms.commit", "ms", Lower, "insert_p50_ms", "weblog-churn", false),
    layer("storage.commit_cpu_ms_per_commit", "ms", Lower, "insert_p50_ms", "weblog-churn", false),
    layer("storage.write_bytes_per_txn_byte", "ratio", Lower, "disk_bytes_per_txn", "weblog-churn", true),
    layer("server.commit_us_mean", "us", Lower, "insert_p50_ms", "weblog-churn", false),
    layer("server.batches_per_commit", "count", Higher, "ingest_txns_per_s", "quest-warm", false),
    layer("server.queue_wait_ms_p50", "ms", Lower, "insert_p50_ms", "weblog-churn", false),
    layer("server.insert_p95_ms", "ms", Lower, "insert_p50_ms", "weblog-churn", false),
    layer("server.overloaded_ratio", "ratio", Lower, "ingest_txns_per_s", "quest-warm", false),
    layer("server.count_beside_writer_p50_us", "us", Lower, "count_p50_us", "weblog-churn", false),
    layer("server.count_beside_writer_p95_us", "us", Lower, "count_p50_us", "weblog-churn", false),
    layer("storage.delete_ms_p50", "ms", Lower, "ingest_txns_per_s", "weblog-churn", false),
    layer("server.delete_tids_per_s", "tids/s", Higher, "ingest_txns_per_s", "weblog-churn", false),
    // Maintenance.
    layer("storage.dead_fraction_before_compact", "ratio", Lower, "disk_bytes_per_txn", "weblog-churn", true),
    layer("storage.compact_s", "s", Lower, "disk_bytes_per_txn", "weblog-churn", false),
    layer("storage.compact_bytes_reclaimed", "B", Higher, "disk_bytes_per_txn", "weblog-churn", true),
    layer("storage.fold_s", "s", Lower, "disk_bytes_per_txn", "weblog-churn", false),
    layer("storage.measured_fpr_before", "ratio", Lower, "count_p50_us", "weblog-churn", true),
    layer("storage.measured_fpr_after", "ratio", Lower, "count_p50_us", "weblog-churn", true),
    // Mining.
    layer("storage.snapshot_load_s", "s", Lower, "mine_s", "quest-warm", false),
    layer("core.mine_dfp_s", "s", Lower, "mine_s", "quest-warm", false),
    layer("core.mine_dfs_s", "s", Lower, "mine_s", "quest-warm", false),
    layer("core.mine_sfp_s", "s", Lower, "mine_s", "quest-warm", false),
    layer("core.mine_sfs_s", "s", Lower, "mine_s", "quest-warm", false),
    layer("core.candidates", "count", Lower, "mine_s", "quest-warm", true),
    layer("core.false_drops", "count", Lower, "mine_s", "quest-warm", true),
    layer("core.certified_ratio", "ratio", Higher, "mine_s", "quest-warm", true),
    layer("core.bbs_counts", "count", Lower, "mine_s", "quest-warm", true),
    layer("server.mine_overhead_s", "s", Lower, "mine_s", "quest-warm", false),
    layer("storage.mine_inplace_s", "s", Lower, "mine_inplace_s", "quest-cold", false),
    layer("storage.mine_pager_reads", "count", Lower, "mine_inplace_s", "quest-cold", true),
    layer("storage.mine_cache_hit_ratio", "ratio", Higher, "mine_inplace_s", "quest-cold", true),
    layer("fptree.mine_s", "s", Lower, "mine_s", "quest-warm", false),
    layer("apriori.mine_s", "s", Lower, "mine_s", "quest-warm", false),
    layer("shard.mine_sharded_s", "s", Lower, "mine_inplace_s", "quest-scatter", false),
    layer("remote.rows_pull_s", "s", Lower, "mine_s", "quest-scatter", false),
    layer("remote.mine_s", "s", Lower, "mine_s", "quest-scatter", false),
    // Set-up and the price of tracing itself.
    layer("datagen.generate_s", "s", Lower, "setup_s", "quest-warm", false),
    layer("storage.build_s", "s", Lower, "setup_s", "quest-warm", false),
    layer("trace.overhead_ratio", "ratio", Lower, "count_itemsets_per_s", "quest-warm", false),
];

/// `BENCHMARK.json`, from the tables above (`benchmark spec` prints it).
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&PATHS)),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                E2E.iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|w| w.name == name)
}

pub fn e2e_metric(name: &str) -> Option<&'static E2eMetric> {
    E2E.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        name.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_stay_inside_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&E2E.len()));
        assert!((1..=128).contains(&LAYER.len()));
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in &E2E {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(e2e_metric(m.moves).is_some(), "{} moves nothing", m.name);
            assert!(workload_index(m.on).is_some(), "{} on no workload", m.name);
        }
        let setup = e2e_metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(E2E.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// harness emits.  They must say the same thing, key for key.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `benchmark spec`"
        );
        let keys: Vec<&str> = on_disk
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
    }
}
