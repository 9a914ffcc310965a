//! The `bbs serve` and `bbs client` subcommands: the daemon side and the
//! wire-protocol side of the deployment server.

use crate::args::{parse_threshold, Flags};
use crate::commands::parse_threads;
use bbs_core::Scheme;
use bbs_remote::{CoordinatorEngine, CoordinatorOptions, RemoteOptions, Topology};
use bbs_server::{
    Bind, Client, Engine, RequestHandler, RetryClient, RetryPolicy, Role, ServerAddr,
    ServerConfig, ServerHandle, ShardedEngine,
};
use bbs_tdb::read_transactions_path;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::time::Duration;

type CmdResult = Result<(), Box<dyn Error>>;

/// `bbs serve` — run the query/ingest daemon over a deployment.
///
/// Prints one `listening <transport> <address>` line per bound listener
/// (tests and scripts parse these to discover a port picked with `:0`),
/// then serves until a client sends `shutdown` or the process receives a
/// signal.  Shutdown is a graceful drain: in-flight requests are
/// answered and every queued ingest batch is committed before exit.
pub fn serve(flags: &Flags) -> CmdResult {
    serve_with_stop(flags, &AtomicBool::new(false))
}

/// [`serve`] with an external stop flag: the binary's signal handler
/// flips it on SIGTERM/SIGINT, turning either into the same graceful
/// drain a client `shutdown` performs (queued batches commit, files
/// sync, exit 0).
pub fn serve_with_stop(flags: &Flags, stop: &AtomicBool) -> CmdResult {
    if let Some(path) = flags.get("coordinator") {
        // `bbs serve --coordinator topology.json`: no local data at all —
        // connect to every shard in the topology and serve the
        // scatter-gather engine behind the same listeners.
        return serve_coordinator(flags, path, stop);
    }
    let base = flags.require("base")?;
    let defaults = ServerConfig::default();
    let follow = flags.get("follow").map(str::to_string);
    let auto_promote_ms: u64 = flags.get_parsed_or("auto-promote-ms", 0u64)?;
    if follow.is_none() && auto_promote_ms != 0 {
        return Err("--auto-promote-ms only makes sense with --follow".into());
    }
    let cfg = ServerConfig {
        width: flags.get_parsed_or("width", bbs_storage::DEFAULT_WIDTH)?,
        cache_pages: flags.get_parsed_or("cache-pages", 4096usize)?,
        queue_capacity: flags.get_parsed_or("queue", 256usize)?,
        batch_max: flags.get_parsed_or("batch-max", 4096usize)?,
        mine_threads: flags.get_parsed_or("threads", 0usize)?,
        insert_timeout: Duration::from_millis(flags.get_parsed_or("insert-timeout-ms", 30_000u64)?),
        commit_window: Duration::from_millis(flags.get_parsed_or("commit-window-ms", 50u64)?),
        dedup_window: flags.get_parsed_or("dedup-window", ServerConfig::default().dedup_window)?,
        follow,
        poll_interval: Duration::from_millis(flags.get_parsed_or("poll-ms", 50u64)?),
        auto_promote: (auto_promote_ms != 0).then(|| Duration::from_millis(auto_promote_ms)),
        maintain_interval: {
            let ms: u64 = flags.get_parsed_or("maintain-ms", 0u64)?;
            (ms != 0).then(|| Duration::from_millis(ms))
        },
        fpr_hi: flags.get_parsed_or("fpr-hi", defaults.fpr_hi)?,
        fpr_lo: flags.get_parsed_or("fpr-lo", defaults.fpr_lo)?,
        fpr_samples: flags.get_parsed_or("fpr-samples", defaults.fpr_samples)?,
        dead_fraction_hi: flags.get_parsed_or("dead-fraction-hi", defaults.dead_fraction_hi)?,
        min_width: flags.get_parsed_or("min-width", defaults.min_width)?,
    };
    let bind = Bind {
        tcp: flags.get("tcp").map(str::to_string),
        unix: flags.get("unix").map(PathBuf::from),
    };
    if bind.tcp.is_none() && bind.unix.is_none() {
        return Err("serve needs a listener: --tcp HOST:PORT and/or --unix PATH".into());
    }

    if bbs_storage::Deployment::is_sharded(Path::new(base)) {
        // A sharded directory (made by `bbs create --shards N`): serve
        // the shard router — N per-shard commit pipelines behind one
        // listener set.
        let engine = ShardedEngine::open(Path::new(base), cfg)?;
        let rows: u64 = engine.engines().iter().map(|e| e.snapshot().rows()).sum();
        let shards = engine.shard_count();
        let banner = format!("serving {base}/ ({rows} committed rows across {shards} shard(s))");
        let handle = bbs_server::serve(engine, &bind)?;
        return run_until_stopped(handle, &banner, stop);
    }
    let engine = Engine::open(Path::new(base), cfg)?;
    let rows = engine.snapshot().rows();
    let role = engine.role();
    let banner = match role {
        Role::Primary => format!("serving {base}.* ({rows} committed rows, primary)"),
        Role::Follower { primary } => {
            format!("serving {base}.* ({rows} committed rows, following {primary})")
        }
    };
    let handle = bbs_server::serve(engine, &bind)?;
    run_until_stopped(handle, &banner, stop)
}

/// Builds the per-shard connection knobs a coordinator (or a topology
/// connect-check) uses: `--shard-timeout-ms` bounds each remote
/// request, `--retries`/`--retry-base-ms` shape the transient-fault
/// backoff.
fn coordinator_options(flags: &Flags) -> Result<CoordinatorOptions, Box<dyn Error>> {
    let defaults = RetryPolicy::default();
    Ok(CoordinatorOptions {
        remote: RemoteOptions {
            timeout: Duration::from_millis(flags.get_parsed_or("shard-timeout-ms", 5_000u64)?),
            policy: RetryPolicy {
                attempts: flags.get_parsed_or("retries", defaults.attempts)?,
                base: Duration::from_millis(flags.get_parsed_or("retry-base-ms", 10u64)?),
                cap: defaults.cap,
            },
        },
        mine_threads: flags.get_parsed_or("threads", 0usize)?,
    })
}

/// The `--coordinator` branch of `bbs serve`: read the topology, connect
/// (and validate) every shard, and serve the scatter-gather engine.
fn serve_coordinator(flags: &Flags, topology_path: &str, stop: &AtomicBool) -> CmdResult {
    let bind = Bind {
        tcp: flags.get("tcp").map(str::to_string),
        unix: flags.get("unix").map(PathBuf::from),
    };
    if bind.tcp.is_none() && bind.unix.is_none() {
        return Err("serve needs a listener: --tcp HOST:PORT and/or --unix PATH".into());
    }
    let topology = Topology::read(Path::new(topology_path))?;
    let engine = CoordinatorEngine::connect(topology, coordinator_options(flags)?)?;
    let rows: u64 = engine
        .handles()
        .iter()
        .map(|h| h.pin().map(|p| p.rows).unwrap_or(0))
        .sum();
    let shards = engine.topology().shards;
    let banner =
        format!("coordinating {topology_path} ({rows} committed rows across {shards} shard(s))");
    let handle = bbs_server::serve(engine, &bind)?;
    run_until_stopped(handle, &banner, stop)
}

/// `bbs topology ACTION` — inspect a TOPOLOGY manifest.
///
/// `check --file topology.json` parses and validates the manifest
/// (version, shard ordering, address sanity) and prints its summary;
/// with `--connect`, it also dials every shard and verifies each one
/// serves the width and hasher identity the topology pins — the exact
/// admission a coordinator performs at startup.
pub fn topology(flags: &Flags) -> CmdResult {
    let action = flags
        .positional()
        .first()
        .map(String::as_str)
        .ok_or("topology needs an action: check --file topology.json [--connect]")?;
    if action != "check" {
        return Err(format!("unknown topology action {action:?} (expected check)").into());
    }
    let path = flags.require("file")?;
    let topology = Topology::read(Path::new(path))?;
    println!("{topology}");
    if flags.has("connect") {
        let engine = CoordinatorEngine::connect(topology, coordinator_options(flags)?)?;
        for handle in engine.handles() {
            let pin = handle.pin().expect("connect always pins");
            println!(
                "shard {:03} at {}: {} rows at epoch {} (width {}, hasher {})",
                handle.shard(),
                handle.addr(),
                pin.rows,
                pin.epoch,
                pin.width,
                pin.hasher
            );
        }
        println!("all shards agree: width and hasher match the topology");
    }
    Ok(())
}

/// Prints the listener lines and banner, then blocks until a client
/// `shutdown` or the stop flag triggers the graceful drain.
fn run_until_stopped<H: RequestHandler>(
    handle: ServerHandle<H>,
    banner: &str,
    stop: &AtomicBool,
) -> CmdResult {
    if let Some(addr) = handle.tcp_addr() {
        println!("listening tcp {addr}");
    }
    if let Some(path) = handle.unix_path() {
        println!("listening unix {}", path.display());
    }
    println!("{banner}");
    // The line-buffered stdout must reach a parent that spawned us before
    // it tries to connect.
    use std::io::Write;
    std::io::stdout().flush().ok();

    handle.wait_with_stop(stop);
    eprintln!("bbs serve: drained and stopped");
    Ok(())
}

fn server_addr(flags: &Flags) -> Result<ServerAddr, Box<dyn Error>> {
    match (flags.get("tcp"), flags.get("unix")) {
        (Some(addr), None) => Ok(ServerAddr::Tcp(addr.to_string())),
        (None, Some(path)) => Ok(ServerAddr::Unix(PathBuf::from(path))),
        (Some(_), Some(_)) => Err("give --tcp or --unix, not both".into()),
        (None, None) => Err("client needs --tcp HOST:PORT or --unix PATH".into()),
    }
}

fn connect(flags: &Flags) -> Result<Client, Box<dyn Error>> {
    let mut client = match server_addr(flags)? {
        ServerAddr::Tcp(addr) => Client::connect_tcp(addr.as_str())?,
        ServerAddr::Unix(path) => Client::connect_unix(path)?,
    };
    let timeout_ms: u64 = flags.get_parsed_or("timeout-ms", 120_000u64)?;
    if timeout_ms > 0 {
        client.set_timeout(Some(Duration::from_millis(timeout_ms)))?;
    }
    Ok(client)
}

/// Builds the retrying client `bbs client insert` uses: `--retries` is
/// the total attempt budget per batch, `--retry-base-ms` the backoff
/// before the first retry (it doubles per retry, with jitter).
fn retry_client(flags: &Flags) -> Result<RetryClient, Box<dyn Error>> {
    let addr = server_addr(flags)?;
    let defaults = RetryPolicy::default();
    let policy = RetryPolicy {
        attempts: flags.get_parsed_or("retries", defaults.attempts)?,
        base: Duration::from_millis(flags.get_parsed_or("retry-base-ms", 10u64)?),
        cap: defaults.cap,
    };
    let mut client = RetryClient::with_policy(addr, policy);
    let timeout_ms: u64 = flags.get_parsed_or("timeout-ms", 120_000u64)?;
    if timeout_ms > 0 {
        client.set_timeout(Some(Duration::from_millis(timeout_ms)));
    }
    Ok(client)
}

fn parse_items(raw: &str) -> Result<Vec<u32>, Box<dyn Error>> {
    let mut values = Vec::new();
    for tok in raw.split(|c: char| c.is_whitespace() || c == ',') {
        if tok.is_empty() {
            continue;
        }
        values.push(
            tok.parse::<u32>()
                .map_err(|e| format!("bad item {tok:?}: {e}"))?,
        );
    }
    if values.is_empty() {
        return Err("an itemset must name at least one item".into());
    }
    Ok(values)
}

/// `bbs client ACTION` — one request against a running server.
///
/// Actions: `ping`, `count --items "…"` (or repeatable `--itemset "…"`
/// flags, batched over one `count_many` round-trip),
/// `insert --db FILE [--batch N]`,
/// `mine --min-support N|P% [--scheme …] [--threads N]`, `probe --row N`,
/// `stats`, `shutdown`.
pub fn client(flags: &Flags) -> CmdResult {
    let action = flags
        .positional()
        .first()
        .map(String::as_str)
        .ok_or(
            "client needs an action: ping|count|insert|delete|maintain|mine|probe|stats|\
             promote|shutdown",
        )?;
    if action == "insert" {
        // Insert connects through the retrying client (lazily, so a
        // server that is still starting up is retried, not failed).
        return client_insert(flags);
    }
    if action == "delete" {
        // Deletes ride the same retrying client as inserts: one request
        // ID per batch, so a retried delete is answered from the dedup
        // window instead of double-counting tombstones.
        return client_delete(flags);
    }
    let mut client = connect(flags)?;
    match action {
        "ping" => {
            client.ping()?;
            println!("pong");
        }
        "count" => {
            let raw_sets = flags.get_all("itemset");
            if raw_sets.is_empty() {
                let items = parse_items(flags.require("items")?)?;
                let reply = client.count(&items)?;
                println!("{}", reply.support);
                eprintln!(
                    "# BBS estimate at epoch {} ({} rows visible)",
                    reply.epoch, reply.rows
                );
            } else {
                // Repeatable --itemset flags ride one count_many frame:
                // every support comes from the same snapshot.
                let sets: Vec<Vec<u32>> = raw_sets
                    .iter()
                    .map(|raw| parse_items(raw))
                    .collect::<Result<_, _>>()?;
                let refs: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
                let reply = client.count_many(&refs)?;
                for (items, support) in sets.iter().zip(&reply.supports) {
                    let ids: Vec<String> = items.iter().map(u32::to_string).collect();
                    println!("{support}\t{}", ids.join(" "));
                }
                eprintln!(
                    "# {} BBS estimates at epoch {} ({} rows visible)",
                    reply.supports.len(),
                    reply.epoch,
                    reply.rows
                );
            }
        }
        "mine" => {
            let threshold = parse_threshold(flags.require("min-support")?)?;
            let scheme: Scheme = flags
                .get("scheme")
                .unwrap_or("dfp")
                .parse()
                .map_err(|e: String| e)?;
            let threads = u16::try_from(parse_threads(flags)?).unwrap_or(u16::MAX);
            let reply = client.mine(scheme, threshold, threads)?;
            let top: usize = flags.get_parsed_or("top", usize::MAX)?;
            let mut patterns = reply.patterns;
            patterns.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            for (items, support, approx) in patterns.iter().take(top) {
                let ids: Vec<String> = items.iter().map(u32::to_string).collect();
                let mark = if *approx { " (upper bound)" } else { "" };
                println!("{}\t{}{}", support, ids.join(" "), mark);
            }
            eprintln!(
                "# {} patterns over {} rows at epoch {} (scheme {})",
                patterns.len(),
                reply.rows,
                reply.epoch,
                scheme.name()
            );
        }
        "probe" => {
            let row: u64 = flags.require_parsed("row")?;
            match client.probe(row)? {
                Some((tid, items)) => {
                    let ids: Vec<String> = items.iter().map(u32::to_string).collect();
                    println!("{tid}: {}", ids.join(" "));
                }
                None => {
                    println!("row {row}: past the end");
                }
            }
        }
        "maintain" => {
            let action_code = match flags.get("action").unwrap_or("auto") {
                "probe" | "probe-fpr" => bbs_server::maintain_action::PROBE_FPR,
                "compact" => bbs_server::maintain_action::COMPACT,
                "fold" => bbs_server::maintain_action::FOLD,
                "auto" => bbs_server::maintain_action::AUTO,
                other => {
                    return Err(format!(
                        "unknown maintenance action {other:?} (expected probe|compact|fold|auto)"
                    )
                    .into())
                }
            };
            // The argument is the probe sample count for probe/auto, the
            // target width for compact (0 = keep the current width).
            let arg: u64 = match action_code {
                bbs_server::maintain_action::COMPACT => flags.get_parsed_or("width", 0u64)?,
                _ => flags.get_parsed_or("samples", 0u64)?,
            };
            let reply = client.maintain(action_code, arg)?;
            let taken = match reply.action_taken {
                bbs_server::maintain_action::COMPACT => "compacted",
                bbs_server::maintain_action::FOLD => "folded",
                _ => "probed",
            };
            println!(
                "{taken}: width {}, {} live rows, {} tombstoned, measured FPR {:.6}",
                reply.width, reply.live_rows, reply.deleted_rows, reply.fpr
            );
        }
        "stats" => {
            println!("{}", client.stats()?);
        }
        "promote" => {
            let reply = client.promote()?;
            println!(
                "promoted to primary (epoch {}, {} rows)",
                reply.epoch, reply.rows
            );
        }
        "shutdown" => {
            client.shutdown_server()?;
            println!("server draining");
        }
        other => {
            return Err(format!(
                "unknown client action {other:?} (expected ping|count|insert|delete|maintain|\
                 mine|probe|stats|promote|shutdown)"
            )
            .into())
        }
    }
    Ok(())
}

/// `bbs client insert`: bulk-load a transaction file through the
/// retrying client — backoff on overload, reconnect on transport
/// failures, and one request ID per batch so a retried batch is never
/// appended twice.
fn client_insert(flags: &Flags) -> CmdResult {
    let path = flags.require("db")?;
    let db = read_transactions_path(Path::new(path))?;
    let batch: usize = flags.get_parsed_or("batch", 512usize)?;
    let batch = batch.max(1);
    let mut sent = 0u64;
    let mut first_row = None;
    let mut last_epoch = 0;
    let txns: Vec<(u64, Vec<u32>)> = db
        .transactions()
        .iter()
        .map(|t| (t.tid.0, t.items.items().iter().map(|i| i.0).collect()))
        .collect();
    let mut retrying = retry_client(flags)?;
    for chunk in txns.chunks(batch) {
        let reply = retrying.insert(chunk)?;
        first_row.get_or_insert(reply.first_row);
        last_epoch = reply.epoch;
        sent += reply.appended;
    }
    println!(
        "inserted {sent} transactions (rows {}..{}, epoch {last_epoch})",
        first_row.unwrap_or(0),
        first_row.unwrap_or(0) + sent
    );
    let stats = retrying.stats();
    eprintln!(
        "# {} attempts, {} retries, {} reconnects, {} deduped",
        stats.attempts, stats.retries, stats.reconnects, stats.deduped
    );
    Ok(())
}

/// `bbs client delete`: tombstone the named TIDs through the retrying
/// client.  `--tids "T1 T2 …"` names them inline; `--db FILE` retires
/// every TID a transaction file names (the file's items are ignored);
/// `--tid-file FILE` reads bare whitespace/comma-separated TIDs —
/// `#`-comment lines skipped — the format `generate --weblog --churn`
/// writes to its `<out>.deletes` companion.
fn client_delete(flags: &Flags) -> CmdResult {
    fn parse_tids(raw: &str, into: &mut Vec<u64>) -> Result<(), String> {
        for tok in raw.split(|c: char| c.is_whitespace() || c == ',') {
            if tok.is_empty() {
                continue;
            }
            into.push(tok.parse::<u64>().map_err(|e| format!("bad TID {tok:?}: {e}"))?);
        }
        Ok(())
    }
    let mut tids: Vec<u64> = Vec::new();
    if let Some(raw) = flags.get("tids") {
        parse_tids(raw, &mut tids)?;
    }
    if let Some(path) = flags.get("tid-file") {
        let body = std::fs::read_to_string(path)
            .map_err(|e| format!("reading TID file {path}: {e}"))?;
        for line in body.lines().filter(|l| !l.trim_start().starts_with('#')) {
            parse_tids(line, &mut tids)?;
        }
    }
    if let Some(path) = flags.get("db") {
        let db = read_transactions_path(Path::new(path))?;
        tids.extend(db.transactions().iter().map(|t| t.tid.0));
    }
    if tids.is_empty() {
        return Err("delete needs --tids \"T1 T2 …\", --tid-file FILE, and/or --db FILE".into());
    }
    let batch: usize = flags.get_parsed_or("batch", 512usize)?;
    let batch = batch.max(1);
    let mut retrying = retry_client(flags)?;
    let mut deleted = 0u64;
    let mut last_epoch = 0;
    for chunk in tids.chunks(batch) {
        let reply = retrying.delete(chunk)?;
        deleted += reply.deleted;
        last_epoch = reply.epoch;
    }
    println!("tombstoned {deleted} row(s) (epoch {last_epoch})");
    let stats = retrying.stats();
    eprintln!(
        "# {} attempts, {} retries, {} reconnects, {} deduped",
        stats.attempts, stats.retries, stats.reconnects, stats.deduped
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_storage::DiskDeployment;

    fn flags(args: &[&str]) -> Flags {
        Flags::parse(args.iter().map(|s| s.to_string()))
    }

    fn temp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bbs_srvcmd_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn serve_requires_a_listener() {
        let base = temp("nolisten");
        let err = serve(&flags(&["--base", base.to_str().expect("utf8")]))
            .expect_err("must demand a listener");
        assert!(err.to_string().contains("--tcp"), "{err}");
    }

    #[test]
    fn client_validates_transport_and_action() {
        let err = client(&flags(&["ping"])).expect_err("no transport");
        assert!(err.to_string().contains("--tcp"), "{err}");
        let err = client(&flags(&["ping", "--tcp", "127.0.0.1:1", "--unix", "/tmp/x"]))
            .expect_err("both transports");
        assert!(err.to_string().contains("not both"), "{err}");
        let err = client(&flags(&["--tcp", "127.0.0.1:1"])).expect_err("no action");
        assert!(err.to_string().contains("needs an action"), "{err}");
    }

    #[test]
    fn serve_and_client_roundtrip_in_process() {
        let base = temp("roundtrip");
        let db_path = temp("roundtrip_db.txt");
        std::fs::write(&db_path, "1 2 3\n1 2\n1 4\n1 2 5\n").expect("write db");

        let engine = Engine::open(
            &base,
            ServerConfig {
                width: 64,
                cache_pages: 64,
                ..ServerConfig::default()
            },
        )
        .expect("open engine");
        let handle = bbs_server::serve(
            engine,
            &Bind {
                tcp: Some("127.0.0.1:0".into()),
                unix: None,
            },
        )
        .expect("serve");
        let addr = handle.tcp_addr().expect("addr").to_string();

        client(&flags(&["ping", "--tcp", &addr])).expect("ping");
        client(&flags(&[
            "insert",
            "--tcp",
            &addr,
            "--db",
            db_path.to_str().expect("utf8"),
            "--batch",
            "2",
        ]))
        .expect("insert");
        client(&flags(&["count", "--tcp", &addr, "--items", "1 2"])).expect("count");
        client(&flags(&[
            "count", "--tcp", &addr, "--itemset", "1 2", "--itemset", "1,4", "--itemset", "5",
        ]))
        .expect("count many");
        client(&flags(&[
            "mine",
            "--tcp",
            &addr,
            "--min-support",
            "2",
            "--scheme",
            "dfp",
        ]))
        .expect("mine");
        client(&flags(&["probe", "--tcp", &addr, "--row", "0"])).expect("probe");
        client(&flags(&["stats", "--tcp", &addr])).expect("stats");
        client(&flags(&["shutdown", "--tcp", &addr])).expect("shutdown");
        handle.join();

        DiskDeployment::remove_files(&base).ok();
        std::fs::remove_file(&db_path).ok();
    }
}
