//! `bbs` — the command-line face of the BBS frequent-pattern index.
//!
//! ```text
//! bbs generate --out data.txt --transactions 10000 --items 10000 [--avg-len 10] [--seed 7]
//! bbs generate --weblog --out log.txt --days 7 --sessions 1000 [--churn 0.1]
//! bbs mine     --db data.txt --min-support 0.3% [--scheme dfp]
//! bbs count    --db data.txt --items "1 2 3" [--mod 7]
//! bbs ingest   --base deploy --db data.txt [--width 1600]
//! bbs mine-deployment --base deploy --min-support 0.3% [--in-memory]
//! bbs stats    --db data.txt
//! bbs stats    --base deploy [--threads 4]
//! ```

use bbs_cli::args::Flags;
use bbs_cli::commands;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Flipped by the signal handler; `bbs serve` polls it and drains.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    STOP.store(true, Ordering::Release);
}

extern "C" {
    // signal(2), linked from the platform C library.  Declared locally
    // (the workspace carries no libc crate); the previous handler the
    // kernel returns is opaque to us, hence the untyped word.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// Routes SIGINT/SIGTERM into the [`STOP`] flag so `bbs serve` exits
/// through the same graceful drain a client `shutdown` triggers.
fn install_signal_handlers() {
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

const USAGE: &str = "\
bbs — Bit-Sliced Bloom-Filtered Signature File frequent-pattern miner

USAGE:
  bbs generate --out FILE --transactions N --items V
               [--avg-len T] [--pattern-len I] [--seed S]
  bbs generate --weblog --out FILE [--days N] [--sessions N] [--files V]
               [--churn R] [--rotation R] [--hot-fraction R] [--seed S]
               (dynamic web-log workload: day-partitioned growth over a
               rotating hot set; churn writes FILE.deletes, one line of
               expired TIDs per day)
  bbs mine     --db FILE --min-support N|P%
               [--scheme sfs|sfp|dfs|dfp|apriori|fpgrowth]
               [--width M] [--hash-k K] [--top N]
               (indexes FILE in memory; a persistent index is a
               deployment: `ingest`, then `mine-deployment`)
  bbs count    --db FILE --items \"I1 I2 …\"
               [--width M] [--hash-k K] [--mod D]
  bbs create   --base DIR --shards N [--width M] [--hash-k K]
               [--cache-pages P]   (sharded deployment: TID-range shards,
               each with its own pager, commit record and dedup window)
  bbs ingest   --base PATH --db FILE [--width M] [--hash-k K]
               [--cache-pages N]
  bbs mine-deployment --base PATH --min-support N|P%
               [--scheme sfs|sfp|dfs|dfp] [--width M] [--top N]
               [--threads N]   (in-place workers; 0 or absent = all cores)
               [--in-memory]   (load once and mine memory-resident instead)
  bbs serve    --base PATH [--tcp HOST:PORT] [--unix PATH] [--width M]
               (PATH: a plain base, created if missing, or a directory
               made by `create --shards N`, served as one router)
               [--cache-pages N] [--queue N] [--batch-max N]
               [--insert-timeout-ms T] [--commit-window-ms T]
               (0 = commit each batch immediately) [--dedup-window N]
               [--follow HOST:PORT] (replicate from that primary; one
               partition only) [--poll-ms T] [--auto-promote-ms T]
               (follower promotes itself after T ms of primary loss)
  bbs serve    --coordinator topology.json --tcp HOST:PORT | --unix PATH
               [--shard-timeout-ms T] [--retries N] [--retry-base-ms T]
               [--threads N]   (distributed: route inserts and
               scatter-gather reads over the shard servers the
               topology names, with per-shard replica failover)
  bbs topology check --file topology.json [--connect]
               (validate a TOPOLOGY manifest; --connect also dials
               every shard and checks width/hasher agreement)
  bbs client   ping|count|insert|delete|maintain|mine|probe|stats|
               promote|shutdown
               --tcp HOST:PORT | --unix PATH [--timeout-ms T]
               (count: --items \"I1 I2 …\", or repeatable
                --itemset \"I1 I2 …\" to batch many counts in one
                round trip; insert: --db FILE [--batch N]
                [--retries N] [--retry-base-ms T];
                mine: --min-support N|P% [--scheme …] [--threads N];
                probe: --row N; delete: --tids \"T1 T2 …\",
                --tid-file FILE, and/or --db FILE [--batch N]; maintain:
                [--action probe|compact|fold|auto]
                [--samples N] [--width M])
  bbs compact  --base PATH [--width M | --fold]
               [--cache-pages N]   (rewrite minus tombstoned rows behind
               an atomic epoch swap; --width M re-hashes to width M,
               --fold halves the width by OR-ing slice halves)
  bbs fsck     --base PATH
  bbs stats    --db FILE
  bbs stats    --base PATH [--min-support N|P%] [--scheme sfs|sfp|dfs|dfp]
               [--threads N]   (cache/pager profile of an in-place run)

Every `--base` also accepts a sharded directory made by `bbs create
--shards N`: inserts route by TID to per-shard commit pipelines, counts
and mining scatter-gather.  Each shard is read at the width and hash
family its own slice file records; `--width` lays out new files
(`create`, a first `ingest`, `compact`) and `--hash-k K` (family
`md5/K`, default 4) a new base (`create`, a first `ingest`), and each is
otherwise only checked against them.
`compact --base DIR` moves every shard to the MANIFEST width unless
`--width` or `--fold` is given.

The transaction file format is one transaction per line: whitespace-
separated item ids, optionally prefixed with an explicit `TID:`.  Lines
starting with '#' are comments.";

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let Some(command) = argv.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let flags = Flags::parse(argv);
    if flags.has("help") || flags.positional().iter().any(|p| p == "help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    let result = match command.as_str() {
        "generate" => commands::generate(&flags),
        "create" => commands::create(&flags),
        "mine" => commands::mine(&flags),
        "count" => commands::count(&flags),
        "ingest" => commands::ingest(&flags),
        "mine-deployment" => commands::mine_deployment(&flags),
        "serve" => {
            install_signal_handlers();
            bbs_cli::server_cmd::serve_with_stop(&flags, &STOP)
        }
        "client" => bbs_cli::server_cmd::client(&flags),
        "topology" => bbs_cli::server_cmd::topology(&flags),
        "compact" => commands::compact(&flags),
        "fsck" => commands::fsck(&flags),
        "stats" => commands::stats(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}").into()),
    };

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bbs {command}: {e}");
            ExitCode::FAILURE
        }
    }
}
