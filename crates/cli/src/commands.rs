//! The `bbs` subcommand implementations.

use crate::args::{parse_threshold, Flags};
use bbs_apriori::AprioriMiner;
use bbs_core::{AdhocEngine, Bbs, BbsMiner, Scheme};
use bbs_datagen::QuestConfig;
use bbs_fptree::FpGrowthMiner;
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_tdb::{
    read_transactions_path, write_transactions_path, FrequentPatternMiner, IoStats, Itemset,
    MineResult, TidModulo, TransactionDb,
};
use bbs_storage::{Deployment, DEFAULT_WIDTH};
use std::error::Error;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

type CmdResult = Result<(), Box<dyn Error>>;

fn load_db(flags: &Flags) -> Result<TransactionDb, Box<dyn Error>> {
    let path = flags.require("db")?;
    let db = read_transactions_path(Path::new(path))?;
    if db.is_empty() {
        return Err(format!("{path}: no transactions").into());
    }
    Ok(db)
}

fn hasher(flags: &Flags) -> Result<Arc<dyn ItemHasher>, Box<dyn Error>> {
    let k: usize = flags.get_parsed_or("hash-k", 4usize)?;
    if k == 0 {
        return Err("--hash-k must be at least 1".into());
    }
    Ok(Arc::new(Md5BloomHasher::new(k)))
}

/// Builds the index of `--db` in memory; a durable one is a deployment
/// (`bbs ingest`, then `bbs mine-deployment`).
fn build_index(flags: &Flags, db: &TransactionDb) -> Result<Bbs, Box<dyn Error>> {
    let width: usize = flags.get_parsed_or("width", DEFAULT_WIDTH)?;
    let mut io = IoStats::new();
    Ok(Bbs::build(width, hasher(flags)?, db, &mut io))
}

/// `bbs generate` — write a synthetic Quest dataset, or (with
/// `--weblog`) the §4.8 dynamic web-log workload: day-partitioned
/// growth over a rotating hot set, with an optional churn rate that
/// expires old sessions as new ones arrive.
pub fn generate(flags: &Flags) -> CmdResult {
    if flags.has("weblog") {
        return generate_weblog(flags);
    }
    let out = flags.require("out")?;
    let cfg = QuestConfig {
        transactions: flags.require_parsed("transactions")?,
        items: flags.require_parsed("items")?,
        avg_txn_len: flags.get_parsed_or("avg-len", 10.0)?,
        avg_pattern_len: flags.get_parsed_or("pattern-len", 10.0)?,
        pattern_pool: flags.get_parsed_or("pattern-pool", 2000usize)?,
        correlation: 0.5,
        corruption_mean: 0.5,
        corruption_sd: 0.1,
        seed: flags.get_parsed_or("seed", 2002u64)?,
    };
    let db = bbs_datagen::generate_db(cfg);
    write_transactions_path(&db, Path::new(out))?;
    println!(
        "wrote {} ({} transactions, {} distinct items) to {out}",
        cfg.label(),
        db.len(),
        db.vocabulary().len()
    );
    Ok(())
}

/// The `--weblog` arm of [`generate`]: writes the transaction file with
/// one `# day N` marker per day boundary, and — when `--churn` is
/// nonzero — a companion `<out>.deletes` file with one line per day
/// listing the TIDs that expired that day (day 0's line is empty).  A
/// driver replays the pair as interleaved insert/delete batches.
fn generate_weblog(flags: &Flags) -> CmdResult {
    use std::io::Write;
    let out = flags.require("out")?;
    let days: usize = flags.get_parsed_or("days", 5usize)?;
    let sessions: usize = flags.get_parsed_or("sessions", 1000usize)?;
    let mut cfg = bbs_datagen::WeblogConfig::paper_scaled(days, sessions);
    cfg.files = flags.get_parsed_or("files", cfg.files)?;
    cfg.hot_fraction = flags.get_parsed_or("hot-fraction", cfg.hot_fraction)?;
    cfg.daily_rotation = flags.get_parsed_or("rotation", cfg.daily_rotation)?;
    cfg.avg_session_len = flags.get_parsed_or("avg-len", cfg.avg_session_len)?;
    cfg.churn_rate = flags.get_parsed_or("churn", 0.0f64)?;
    cfg.seed = flags.get_parsed_or("seed", cfg.seed)?;
    if !(0.0..=1.0).contains(&cfg.churn_rate) {
        return Err("--churn must be a fraction in [0, 1]".into());
    }

    let batches = bbs_datagen::WeblogGenerator::new(cfg).all_days();
    let mut body = String::new();
    let mut deletes = String::new();
    let mut total_txns = 0usize;
    let mut total_expired = 0usize;
    for batch in &batches {
        body.push_str(&format!("# day {}\n", batch.day));
        for t in &batch.transactions {
            let ids: Vec<String> = t.items.items().iter().map(|i| i.to_string()).collect();
            body.push_str(&format!("{}: {}\n", t.tid.0, ids.join(" ")));
        }
        total_txns += batch.transactions.len();
        let tids: Vec<String> = batch.expired_tids.iter().map(u64::to_string).collect();
        deletes.push_str(&tids.join(" "));
        deletes.push('\n');
        total_expired += batch.expired_tids.len();
    }
    std::fs::write(out, body)?;
    let mut summary = format!(
        "wrote weblog workload ({} day(s), {} sessions, {} files, rotation {}%) to {out}",
        days,
        total_txns,
        cfg.files,
        (cfg.daily_rotation * 100.0).round()
    );
    if cfg.churn_rate > 0.0 {
        let del_path = format!("{out}.deletes");
        let mut f = std::fs::File::create(&del_path)?;
        f.write_all(deletes.as_bytes())?;
        summary.push_str(&format!(
            "; {total_expired} expirations (churn {}%) to {del_path}",
            (cfg.churn_rate * 100.0).round()
        ));
    }
    println!("{summary}");
    Ok(())
}

fn parse_scheme(raw: &str) -> Result<Option<Scheme>, Box<dyn Error>> {
    match raw.to_ascii_lowercase().as_str() {
        "sfs" => Ok(Some(Scheme::Sfs)),
        "sfp" => Ok(Some(Scheme::Sfp)),
        "dfs" => Ok(Some(Scheme::Dfs)),
        "dfp" => Ok(Some(Scheme::Dfp)),
        "apriori" | "aps" | "fpgrowth" | "fps" => Ok(None),
        other => Err(format!(
            "unknown scheme {other:?} (expected sfs|sfp|dfs|dfp|apriori|fpgrowth)"
        )
        .into()),
    }
}

/// `bbs mine` — mine frequent patterns.
pub fn mine(flags: &Flags) -> CmdResult {
    let db = load_db(flags)?;
    let threshold = parse_threshold(flags.require("min-support")?)?;
    let scheme_raw = flags.get("scheme").unwrap_or("dfp").to_string();

    let start = Instant::now();
    let result: MineResult = match parse_scheme(&scheme_raw)? {
        Some(scheme) => {
            let bbs = build_index(flags, &db)?;
            BbsMiner::with_index(scheme, bbs).mine(&db, threshold)
        }
        None if scheme_raw.starts_with('a') => AprioriMiner::new().mine(&db, threshold),
        None => FpGrowthMiner::new().mine(&db, threshold),
    };
    let secs = start.elapsed().as_secs_f64();

    print_patterns(&result, flags.get_parsed_or("top", usize::MAX)?);
    eprintln!(
        "# {} patterns in {:.3}s  (scheme {}, candidates {}, false drops {}, \
         db scans {}, probes {})",
        result.patterns.len(),
        secs,
        scheme_raw,
        result.stats.candidates,
        result.stats.false_drops,
        result.stats.io.db_scans,
        result.stats.io.db_probes,
    );
    Ok(())
}

/// `bbs count` — exact ad-hoc count of one itemset, optionally constrained.
pub fn count(flags: &Flags) -> CmdResult {
    let db = load_db(flags)?;
    let raw_items = flags.require("items")?;
    let mut values = Vec::new();
    for tok in raw_items.split_whitespace() {
        values.push(tok.parse::<u32>().map_err(|e| format!("bad item {tok:?}: {e}"))?);
    }
    if values.is_empty() {
        return Err("--items must name at least one item".into());
    }
    let itemset = Itemset::from_values(&values);

    let bbs = build_index(flags, &db)?;
    let engine = AdhocEngine::new(&bbs, &db);
    let mut io = IoStats::new();
    let start = Instant::now();
    let (count, constrained) = match flags.get("mod") {
        Some(raw) => {
            let divisor: u64 = raw.parse().map_err(|e| format!("bad --mod {raw:?}: {e}"))?;
            (
                engine.count_constrained(&itemset, &TidModulo::divisible_by(divisor), &mut io),
                true,
            )
        }
        None => (engine.count(&itemset, &mut io), false),
    };
    let secs = start.elapsed().as_secs_f64();
    let probes = io.db_probes;
    let estimate = engine.estimate(&itemset, &mut io);
    println!("{count}");
    eprintln!(
        "# exact count of {itemset:?}{} in {:.4}s ({} rows probed, estimate {})",
        if constrained { " under TID-mod constraint" } else { "" },
        secs,
        probes,
        estimate,
    );
    Ok(())
}

/// `bbs create` — lay down an empty sharded deployment directory:
/// a `MANIFEST` (shard count + target signature width) plus one complete
/// per-shard durable stack under `DIR/shard-NNN.*`.
pub fn create(flags: &Flags) -> CmdResult {
    let dir = flags.require("base")?;
    let shards: usize = flags.require_parsed("shards")?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let width: usize = flags.get_parsed_or("width", DEFAULT_WIDTH)?;
    let cache_pages: usize = flags.get_parsed_or("cache-pages", 4096usize)?;
    Deployment::create(Path::new(dir), shards, width, hasher(flags)?, cache_pages)?;
    println!("created sharded deployment {dir}/ ({shards} shard(s), width {width})");
    Ok(())
}

/// The one open of `--base`: a plain `<base>.*` deployment is one
/// partition, a directory made by `bbs create --shards N` is N, each at
/// the width its own slice file holds.  A base that does not exist is
/// refused, unless `create` lays it down at `--width`.  A `--width` that
/// is given must be every partition's.
fn open_base(flags: &Flags, create: bool) -> Result<Deployment, Box<dyn Error>> {
    let path = Path::new(flags.require("base")?);
    let width = flags.get("width").map(|_| flags.require_parsed("width")).transpose()?;
    let cache_pages: usize = flags.get_parsed_or("cache-pages", 4096usize)?;
    let hasher = hasher(flags)?;
    let dep = if create {
        Deployment::open_or_create(path, width.unwrap_or(DEFAULT_WIDTH), hasher, cache_pages)?
    } else {
        Deployment::open(path, hasher, cache_pages)?
    };
    dep.check_width(width)?;
    Ok(dep)
}

/// `bbs ingest` — append a text transaction file into a durable
/// deployment, creating a plain `<base>.*` one if absent.  In a sharded
/// directory (made by `bbs create --shards N`) every transaction routes
/// by TID to its owning shard, and each shard commits its own prefix.
pub fn ingest(flags: &Flags) -> CmdResult {
    let db = load_db(flags)?;
    let base = flags.require("base")?;
    let start = Instant::now();
    let mut dep = open_base(flags, true)?;
    dep.append_batch(db.transactions())?;
    dep.flush()?;
    let secs = start.elapsed().as_secs_f64();
    if dep.shard_count() == 1 {
        println!(
            "ingested {} transactions (deployment now {} rows, index {} slices) in {secs:.3}s -> {base}.*",
            db.len(),
            dep.rows(),
            dep.shards()[0].index.width(),
        );
    } else {
        let rows: Vec<String> = dep.shard_rows().iter().map(u64::to_string).collect();
        println!(
            "ingested {} transactions across {} shard(s) (rows now {} = {}) in {secs:.3}s -> {base}/",
            db.len(),
            dep.shard_count(),
            dep.rows(),
            rows.join("+"),
        );
    }
    Ok(())
}

/// Parses `--threads`: absent or `0` resolve to all available cores, any
/// other value is capped at them.  Rejects junk with a clear message.
pub fn parse_threads(flags: &Flags) -> Result<usize, Box<dyn Error>> {
    let requested: usize = match flags.get("threads") {
        Some(raw) => raw.parse().map_err(|e| {
            format!("bad --threads {raw:?}: {e} (expected 0 for all cores, or a positive count)")
        })?,
        None => 0,
    };
    Ok(bbs_server::resolve_threads(requested, 0))
}

/// `bbs mine-deployment` — mine a durable deployment directly from its
/// files.
///
/// By default the run stays **in place**: the filter phase counts
/// straight off every shard's slice file on `--threads N` worker threads
/// (one independent reader per shard each; `0` or absent = all cores) and
/// uncertain candidates are refined by one streaming heap-file scan per
/// shard — the database is never materialised in memory.  With
/// `--in-memory` the index of a one-partition deployment is loaded once
/// and mined there (the paper's memory-resident mode); the patterns are
/// identical either way.
pub fn mine_deployment(flags: &Flags) -> CmdResult {
    let threshold = parse_threshold(flags.require("min-support")?)?;
    let scheme_raw = flags.get("scheme").unwrap_or("dfp").to_string();
    let Some(scheme) = parse_scheme(&scheme_raw)? else {
        return Err("mine-deployment supports the BBS schemes only (sfs|sfp|dfs|dfp)".into());
    };
    let threads: Option<usize> = if flags.has("in-memory") {
        if flags.get("threads").is_some() {
            return Err(
                "--in-memory and --threads conflict: thread workers apply to in-place \
                 mining only (drop --in-memory, or drop --threads)"
                    .into(),
            );
        }
        None
    } else {
        Some(parse_threads(flags)?)
    };

    let start = Instant::now();
    let mut dep = open_base(flags, false)?;
    let open_secs = start.elapsed().as_secs_f64();

    let mine_start = Instant::now();
    let (result, disk_stats) = match threads {
        Some(threads) => {
            let (result, stats) = bbs_storage::mine_deployment(&mut dep, scheme, threshold, threads)?;
            (result, Some(stats))
        }
        None => {
            let [one] = dep.shards_mut() else {
                return Err(
                    "--in-memory does not apply to a sharded deployment (sharded mining \
                     is always in place, dealing candidates across shards x cores)"
                        .into(),
                );
            };
            let (db, bbs) = one.load()?;
            (BbsMiner::with_index(scheme, bbs).mine(&db, threshold), None)
        }
    };
    let mine_secs = mine_start.elapsed().as_secs_f64();

    print_patterns(&result, flags.get_parsed_or("top", usize::MAX)?);
    let shards = match dep.shard_count() {
        1 => String::new(),
        n => format!(" in {n} shard(s)"),
    };
    eprintln!(
        "# {} patterns over {} live rows{} (open {:.3}s, mine {:.3}s, scheme {}{})",
        result.patterns.len(),
        dep.live_rows(),
        shards,
        open_secs,
        mine_secs,
        scheme.name(),
        match threads {
            Some(t) => format!(", in place on {t} thread(s)"),
            None => ", memory-resident".to_string(),
        },
    );
    if let Some(stats) = disk_stats {
        print_disk_stats(&stats);
    }
    Ok(())
}

/// Prints the `top` most frequent patterns, one `support<TAB>items` line
/// each, marking the supports that are only upper bounds.
fn print_patterns(result: &MineResult, top: usize) {
    let mut patterns = result.patterns.sorted();
    patterns.sort_by_key(|p| std::cmp::Reverse(p.support));
    for p in patterns.iter().take(top) {
        let mark = if result.approx_supports.contains(&p.items) {
            " (upper bound)"
        } else {
            ""
        };
        let ids: Vec<String> = p.items.items().iter().map(|i| i.to_string()).collect();
        println!("{}\t{}{}", p.support, ids.join(" "), mark);
    }
}

/// Prints the aggregated read-side counters of an in-place mining run.
fn print_disk_stats(stats: &bbs_storage::DiskMineStats) {
    eprintln!(
        "# cache: {} hits, {} misses, {} evictions, hit rate {}",
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions,
        match stats.hit_rate() {
            Some(r) => format!("{:.1}%", r * 100.0),
            None => "n/a".to_string(),
        },
    );
    eprintln!(
        "# pager: {} page reads, {} checksum-page reads, {} pages checksum-verified",
        stats.pager.reads, stats.pager.checksum_reads, stats.pager.verified,
    );
    eprintln!(
        "# cursor: {} extends, {} tau exits, {} chunks skipped, {} sparse ands ({} reader(s))",
        stats.cursor.extends,
        stats.cursor.tau_exits,
        stats.cursor.chunks_skipped,
        stats.cursor.sparse_ands,
        stats.readers,
    );
}

/// `bbs compact` — offline maintenance of a durable deployment: rewrite
/// every shard without its tombstoned rows (at `--width M`, or else at the
/// sharded directory's MANIFEST width, which finishes a width change left
/// half done), or halve each shard's width in place with `--fold`.  Each
/// shard runs behind the atomic epoch-swap protocol, so a crash at any
/// point leaves it either old or new; the MANIFEST follows once every
/// shard ends at one width.
pub fn compact(flags: &Flags) -> CmdResult {
    let base = flags.require("base")?;
    let cache_pages: usize = flags.get_parsed_or("cache-pages", 4096usize)?;
    let fold = flags.has("fold");
    let width = flags.get("width").map(|_| flags.require_parsed("width")).transpose()?;
    if fold && width.is_some() {
        return Err("--fold and --width conflict: fold always halves the width".into());
    }
    let (reports, manifest_width) =
        Deployment::compact(Path::new(base), width, fold, hasher(flags)?, cache_pages)?;
    if let [report] = &reports[..] {
        println!(
            "{}: width {} ({} -> {} rows, {} tombstoned row(s) reclaimed, commit seq {})",
            report.action,
            report.width,
            report.rows_before,
            report.rows_after,
            report.reclaimed,
            report.seq
        );
    } else {
        for (shard, report) in reports.iter().enumerate() {
            println!(
                "shard {:03}: {} to width {} ({} -> {} rows, {} reclaimed, seq {})",
                shard,
                report.action,
                report.width,
                report.rows_before,
                report.rows_after,
                report.reclaimed,
                report.seq
            );
        }
    }
    if let Some(width) = manifest_width {
        println!("manifest width updated to {width}");
    }
    Ok(())
}

/// `bbs fsck` — read-only integrity check of a durable deployment.
///
/// Verifies every committed page of every shard's `<base>.*` files
/// against the stored per-page checksums and the commit record's boundary
/// digests, without opening (and therefore without recovering) anything;
/// in a sharded directory, also each shard's width against the MANIFEST's.
/// Exits nonzero if any shard is dirty.
pub fn fsck(flags: &Flags) -> CmdResult {
    let base = flags.require("base")?;
    let reports = Deployment::verify(Path::new(base))?;
    if let [one] = &reports[..] {
        let report = &one.report;
        print!("{report}");
        if report.is_clean() {
            return Ok(());
        }
        return Err(format!(
            "{}: {} corrupt page(s), {} structural problem(s)",
            base,
            report.corrupt_pages.len(),
            report.problems.len()
        )
        .into());
    }
    let mut dirty = 0usize;
    for r in &reports {
        if r.report.is_clean() {
            let dead = r.report.deleted_rows.min(r.report.committed_rows);
            println!(
                "shard {:03}: clean ({} committed rows: {} live, {} tombstoned; {} pages checked)",
                r.shard,
                r.report.committed_rows,
                r.report.committed_rows - dead,
                dead,
                r.report.pages_checked
            );
        } else {
            dirty += 1;
            println!(
                "shard {:03}: DIRTY ({} corrupt page(s), {} structural problem(s), \
                 {} committed rows)",
                r.shard,
                r.report.corrupt_pages.len(),
                r.report.problems.len(),
                r.report.committed_rows
            );
            for c in &r.report.corrupt_pages {
                println!("  corrupt: {} file, {}", c.file, c.mismatch);
            }
            for p in &r.report.problems {
                println!("  problem: {p}");
            }
        }
    }
    if dirty == 0 {
        Ok(())
    } else {
        Err(format!("{base}: {dirty} of {} shard(s) dirty", reports.len()).into())
    }
}

/// `bbs stats` — dataset summary (`--db`), or a cache/pager profile of an
/// in-place mining run over a deployment (`--base`).
pub fn stats(flags: &Flags) -> CmdResult {
    if let Some(base) = flags.get("base") {
        return deployment_stats(flags, base);
    }
    let db = load_db(flags)?;
    let vocab = db.vocabulary();
    let total_items: usize = db.transactions().iter().map(|t| t.items.len()).sum();
    let longest = db
        .transactions()
        .iter()
        .map(|t| t.items.len())
        .max()
        .unwrap_or(0);
    println!("transactions      : {}", db.len());
    println!("distinct items    : {}", vocab.len());
    println!(
        "avg items per txn : {:.2}",
        total_items as f64 / db.len() as f64
    );
    println!("longest txn       : {longest}");
    println!("flat-file bytes   : {}", db.total_bytes());
    println!("pages (4 KiB)     : {}", db.total_pages());
    Ok(())
}

/// `bbs stats --base PATH` — run one in-place mining pass over every
/// shard of a durable deployment and report the read-side counters (cache
/// hits/misses/hit rate, physical reads, checksum-verified pages, what the
/// cursors did).
fn deployment_stats(flags: &Flags, base: &str) -> CmdResult {
    let cache_pages: usize = flags.get_parsed_or("cache-pages", 4096usize)?;
    // Default stays serial (a deterministic profile); explicit `0` asks
    // for all cores, like everywhere else.
    let threads: usize = match flags.get("threads") {
        Some(_) => parse_threads(flags)?,
        None => 1,
    };
    let threshold = parse_threshold(flags.get("min-support").unwrap_or("1%"))?;
    let scheme_raw = flags.get("scheme").unwrap_or("dfs").to_string();
    let Some(scheme) = parse_scheme(&scheme_raw)? else {
        return Err("stats --base supports the BBS schemes only (sfs|sfp|dfs|dfp)".into());
    };

    let mut dep = open_base(flags, false)?;
    let widths: Vec<String> = dep.shards().iter().map(|s| s.index.width().to_string()).collect();
    match dep.shard_count() {
        1 => println!("deployment        : {base}.*"),
        n => println!("deployment        : {base}/ ({n} shards)"),
    }
    println!("rows              : {}", dep.rows());
    println!(
        "committed rows    : {}",
        dep.shards().iter().map(|s| s.committed_rows()).sum::<u64>()
    );
    println!("slices (width m)  : {}", widths.join(" "));
    println!("slice cache pages : {cache_pages}");

    let start = Instant::now();
    let (result, stats) = bbs_storage::mine_deployment(&mut dep, scheme, threshold, threads)?;
    let secs = start.elapsed().as_secs_f64();
    println!(
        "mining run        : scheme {}, {} pattern(s), {} CountItemSet call(s), {:.3}s on {} thread(s)",
        scheme.name(),
        result.patterns.len(),
        result.stats.bbs_counts,
        secs,
        threads,
    );
    println!(
        "cache             : {} hits, {} misses, {} evictions, hit rate {}",
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions,
        match stats.hit_rate() {
            Some(r) => format!("{:.1}%", r * 100.0),
            None => "n/a".to_string(),
        },
    );
    println!(
        "pager             : {} page reads, {} checksum-page reads, {} pages checksum-verified",
        stats.pager.reads, stats.pager.checksum_reads, stats.pager.verified,
    );
    println!(
        "cursor            : {} extends, {} tau exits, {} chunks skipped, {} sparse ands across {} reader(s)",
        stats.cursor.extends,
        stats.cursor.tau_exits,
        stats.cursor.chunks_skipped,
        stats.cursor.sparse_ands,
        stats.readers,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn flags(pairs: &[(&str, &str)]) -> Flags {
        Flags::parse(
            pairs
                .iter()
                .flat_map(|(k, v)| [format!("--{k}"), v.to_string()]),
        )
    }

    fn temp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bbs_cli_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn fsck_missing_deployment_is_an_error() {
        let base = temp("fsck_missing");
        let err = fsck(&flags(&[("base", base.to_str().expect("utf8"))]))
            .expect_err("missing deployment must fail");
        assert!(err.to_string().contains("commit record"), "{err}");
    }

    #[test]
    fn mine_deployment_in_place_and_stats_profile_run() {
        let db_path = temp("inplace_db.txt");
        let base = temp("inplace_dep");
        let mut lines = String::new();
        for i in 0..60 {
            lines.push_str(&format!("{} {} 7 8\n", i % 5, 5 + (i % 2)));
        }
        std::fs::write(&db_path, lines).expect("write db");
        let base_s = base.to_str().expect("utf8").to_string();
        ingest(&flags(&[
            ("db", db_path.to_str().expect("utf8")),
            ("base", &base_s),
            ("width", "64"),
        ]))
        .expect("ingest");

        // In-place threaded mining and the stats profile both succeed on
        // the same deployment.
        mine_deployment(&flags(&[
            ("base", &base_s),
            ("width", "64"),
            ("min-support", "50%"),
            ("scheme", "dfs"),
            ("threads", "2"),
        ]))
        .expect("mine in place");
        stats(&flags(&[
            ("base", &base_s),
            ("width", "64"),
            ("min-support", "50%"),
            ("threads", "2"),
        ]))
        .expect("deployment stats");

        bbs_storage::DiskDeployment::remove_files(&base).ok();
        std::fs::remove_file(&db_path).ok();
    }

    #[test]
    fn sharded_cli_create_ingest_mine_and_fsck() {
        let db_path = temp("shard_db.txt");
        let dir = temp("shard_dep");
        let _cleanup = CleanupShards(dir.clone(), db_path.clone());
        let mut lines = String::new();
        for i in 0..60 {
            lines.push_str(&format!("{i}: {} {} 7 8\n", i % 5, 5 + (i % 2)));
        }
        std::fs::write(&db_path, lines).expect("write db");
        let dir_s = dir.to_str().expect("utf8").to_string();

        create(&flags(&[("base", &dir_s), ("shards", "3"), ("width", "64")]))
            .expect("create sharded");
        assert!(Deployment::is_sharded(&dir));

        // `bbs ingest` detects the shard directory and routes by TID.
        ingest(&flags(&[
            ("db", db_path.to_str().expect("utf8")),
            ("base", &dir_s),
        ]))
        .expect("sharded ingest");
        let dep = Deployment::open(
            &dir,
            std::sync::Arc::new(bbs_hash::Md5BloomHasher::new(4)),
            64,
        )
        .expect("reopen");
        assert_eq!(dep.rows(), 60);
        assert_eq!(dep.shard_rows(), &[20, 20, 20]);
        drop(dep);

        // In-place sharded mining runs; the memory-resident mode is an
        // unsharded-only flag and must say so.
        mine_deployment(&flags(&[
            ("base", &dir_s),
            ("min-support", "50%"),
            ("scheme", "dfp"),
            ("threads", "2"),
        ]))
        .expect("sharded mine");
        let err = mine_deployment(&Flags::parse(
            ["--base", &dir_s, "--min-support", "50%", "--in-memory"]
                .iter()
                .map(|s| s.to_string()),
        ))
        .expect_err("--in-memory must be rejected on a shard directory");
        assert!(err.to_string().contains("sharded"), "{err}");

        // fsck: clean shards pass; flipping one committed byte in one
        // shard's heap file dirties exactly that shard and the exit.
        fsck(&flags(&[("base", &dir_s)])).expect("clean shards verify");
        let dat = bbs_storage::shard_base(&dir, 1).with_extension("dat");
        let mut bytes = std::fs::read(&dat).expect("read shard dat");
        bytes[bbs_storage::PAGE_SIZE + 4] ^= 0x40;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&dat)
            .and_then(|mut fh| fh.write_all(&bytes))
            .expect("corrupt shard dat");
        let err = fsck(&flags(&[("base", &dir_s)])).expect_err("dirty shard must fail");
        assert!(err.to_string().contains("1 of 3 shard(s) dirty"), "{err}");
    }

    struct CleanupShards(std::path::PathBuf, std::path::PathBuf);
    impl Drop for CleanupShards {
        fn drop(&mut self) {
            Deployment::remove_files(&self.0).ok();
            std::fs::remove_file(&self.1).ok();
        }
    }

    #[test]
    fn create_rejects_zero_shards() {
        let dir = temp("shard_zero");
        let err = create(&flags(&[
            ("base", dir.to_str().expect("utf8")),
            ("shards", "0"),
        ]))
        .expect_err("zero shards must fail");
        assert!(err.to_string().contains("at least 1"), "{err}");
    }

    #[test]
    fn fsck_passes_clean_and_fails_corrupt_deployments() {
        let db_path = temp("fsck_db.txt");
        let base = temp("fsck_dep");
        std::fs::write(&db_path, "1 2 3\n2 3 4\n3 4 5\n").expect("write db");
        let base_s = base.to_str().expect("utf8").to_string();
        let f = flags(&[
            ("db", db_path.to_str().expect("utf8")),
            ("base", &base_s),
            ("width", "64"),
        ]);
        ingest(&f).expect("ingest");

        fsck(&flags(&[("base", &base_s)])).expect("clean deployment verifies");

        // Flip one committed byte in the heap data file (physical page 1
        // is the first data page; the committed tail covers its prefix).
        let dat = base.with_extension("dat");
        let mut bytes = std::fs::read(&dat).expect("read dat");
        bytes[bbs_storage::PAGE_SIZE + 4] ^= 0x40;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&dat)
            .and_then(|mut fh| fh.write_all(&bytes))
            .expect("corrupt dat");

        let err = fsck(&flags(&[("base", &base_s)])).expect_err("corruption must fail");
        assert!(err.to_string().contains("corrupt page"), "{err}");

        bbs_storage::DiskDeployment::remove_files(&base).ok();
        std::fs::remove_file(&db_path).ok();
    }
}
