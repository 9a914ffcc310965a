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
    let width: usize = flags.get_parsed_or("width", 1600usize)?;
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

    let mut patterns = result.patterns.sorted();
    patterns.sort_by_key(|p| std::cmp::Reverse(p.support));
    let top: usize = flags.get_parsed_or("top", usize::MAX)?;
    for p in patterns.iter().take(top) {
        let mark = if result.approx_supports.contains(&p.items) {
            " (upper bound)"
        } else {
            ""
        };
        let ids: Vec<String> = p.items.items().iter().map(|i| i.to_string()).collect();
        println!("{}\t{}{}", p.support, ids.join(" "), mark);
    }
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
/// a `MANIFEST` (shard count + signature width) plus one complete
/// per-shard durable stack under `DIR/shard-NNN.*`.
pub fn create(flags: &Flags) -> CmdResult {
    let dir = flags.require("base")?;
    let shards: usize = flags.require_parsed("shards")?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let width: usize = flags.get_parsed_or("width", 1600usize)?;
    let cache_pages: usize = flags.get_parsed_or("cache-pages", 4096usize)?;
    let dep = bbs_shard::ShardedDeployment::create(
        Path::new(dir),
        shards,
        width,
        hasher(flags)?,
        cache_pages,
    )?;
    println!(
        "created sharded deployment {dir}/ ({} shard(s), width {})",
        dep.shard_count(),
        dep.width()
    );
    Ok(())
}

/// `bbs ingest` — append a text transaction file into a durable
/// deployment (`<base>.dat/.idx/.slices/.counts`), creating it if
/// absent.  When `--base` names a sharded deployment directory (made by
/// `bbs create --shards N`), transactions route to their owning shards.
pub fn ingest(flags: &Flags) -> CmdResult {
    let db = load_db(flags)?;
    let base = flags.require("base")?;
    let width: usize = flags.get_parsed_or("width", 1600usize)?;
    let cache_pages: usize = flags.get_parsed_or("cache-pages", 4096usize)?;
    if bbs_shard::ShardedDeployment::is_sharded(Path::new(base)) {
        return ingest_sharded(flags, &db, base, cache_pages);
    }
    let start = Instant::now();
    let mut dep = bbs_storage::DiskDeployment::open(
        Path::new(base),
        width,
        hasher(flags)?,
        cache_pages,
    )?;
    for txn in db.transactions() {
        dep.append(txn)?;
    }
    dep.flush()?;
    println!(
        "ingested {} transactions (deployment now {} rows, index {} slices) in {:.3}s -> {base}.*",
        db.len(),
        dep.db.len(),
        dep.index.width(),
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

/// The sharded arm of [`ingest`]: every transaction routes by TID to its
/// owning shard, each shard commits its own prefix.
fn ingest_sharded(
    flags: &Flags,
    db: &TransactionDb,
    dir: &str,
    cache_pages: usize,
) -> CmdResult {
    let start = Instant::now();
    let mut dep =
        bbs_shard::ShardedDeployment::open(Path::new(dir), hasher(flags)?, cache_pages)?;
    for txn in db.transactions() {
        dep.append(txn)?;
    }
    dep.flush()?;
    let rows: Vec<String> = dep.shard_rows().iter().map(u64::to_string).collect();
    println!(
        "ingested {} transactions across {} shard(s) (rows now {} = {}) in {:.3}s -> {dir}/",
        db.len(),
        dep.shard_count(),
        dep.rows(),
        rows.join("+"),
        start.elapsed().as_secs_f64()
    );
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
/// straight off the slice file on `--threads N` worker threads (one
/// independent reader each; `0` or absent = all cores) and uncertain
/// candidates are refined by one streaming heap-file scan — the database
/// is never materialised in memory.  With `--in-memory` the index is
/// loaded once and mined there (the paper's memory-resident mode); the
/// patterns are identical either way.
pub fn mine_deployment(flags: &Flags) -> CmdResult {
    let base = flags.require("base")?;
    let width: usize = flags.get_parsed_or("width", 1600usize)?;
    let cache_pages: usize = flags.get_parsed_or("cache-pages", 4096usize)?;
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

    if bbs_shard::ShardedDeployment::is_sharded(Path::new(base)) {
        let Some(threads) = threads else {
            return Err(
                "--in-memory does not apply to a sharded deployment (sharded mining \
                 is always in place, dealing candidates across shards x cores)"
                    .into(),
            );
        };
        return mine_deployment_sharded(flags, base, threshold, scheme, threads, cache_pages);
    }

    let start = Instant::now();
    let mut dep = bbs_storage::DiskDeployment::open(
        Path::new(base),
        width,
        hasher(flags)?,
        cache_pages,
    )?;
    let open_secs = start.elapsed().as_secs_f64();

    let mine_start = Instant::now();
    let (result, disk_stats, rows) = match threads {
        Some(threads) => {
            let rows = dep.db.len();
            let (result, stats) = bbs_storage::mine_in_place(&mut dep, scheme, threshold, threads)?;
            (result, Some(stats), rows)
        }
        None => {
            let rows = dep.db.len();
            let (db, bbs) = dep.load()?;
            (BbsMiner::with_index(scheme, bbs).mine(&db, threshold), None, rows)
        }
    };
    let mine_secs = mine_start.elapsed().as_secs_f64();

    let mut patterns = result.patterns.sorted();
    patterns.sort_by_key(|p| std::cmp::Reverse(p.support));
    let top: usize = flags.get_parsed_or("top", usize::MAX)?;
    for p in patterns.iter().take(top) {
        let mark = if result.approx_supports.contains(&p.items) {
            " (upper bound)"
        } else {
            ""
        };
        let ids: Vec<String> = p.items.items().iter().map(|i| i.to_string()).collect();
        println!("{}\t{}{}", p.support, ids.join(" "), mark);
    }
    eprintln!(
        "# {} patterns over {} rows (open {:.3}s, mine {:.3}s, scheme {}{})",
        result.patterns.len(),
        rows,
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

/// The sharded arm of [`mine_deployment`]: in-place mining with candidate
/// subtrees dealt across workers, each counting across every shard —
/// the result is bit-for-bit an unsharded run over the same rows.
fn mine_deployment_sharded(
    flags: &Flags,
    dir: &str,
    threshold: bbs_tdb::SupportThreshold,
    scheme: Scheme,
    threads: usize,
    cache_pages: usize,
) -> CmdResult {
    let start = Instant::now();
    let mut dep =
        bbs_shard::ShardedDeployment::open(Path::new(dir), hasher(flags)?, cache_pages)?;
    let open_secs = start.elapsed().as_secs_f64();
    let mine_start = Instant::now();
    let (result, stats) = bbs_shard::mine_sharded(&mut dep, scheme, threshold, threads)?;
    let mine_secs = mine_start.elapsed().as_secs_f64();

    let mut patterns = result.patterns.sorted();
    patterns.sort_by_key(|p| std::cmp::Reverse(p.support));
    let top: usize = flags.get_parsed_or("top", usize::MAX)?;
    for p in patterns.iter().take(top) {
        let mark = if result.approx_supports.contains(&p.items) {
            " (upper bound)"
        } else {
            ""
        };
        let ids: Vec<String> = p.items.items().iter().map(|i| i.to_string()).collect();
        println!("{}\t{}{}", p.support, ids.join(" "), mark);
    }
    eprintln!(
        "# {} patterns over {} rows in {} shard(s) (open {:.3}s, mine {:.3}s, \
         scheme {}, in place on {} thread(s))",
        result.patterns.len(),
        dep.rows(),
        dep.shard_count(),
        open_secs,
        mine_secs,
        scheme.name(),
        threads,
    );
    print_disk_stats(&stats);
    Ok(())
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
/// it without its tombstoned rows (`--width M` re-hashes into a
/// different slice width at the same time), or halve the slice width in
/// place with `--fold`.  Both run behind the atomic epoch-swap protocol,
/// so a crash at any point leaves either the old or the new deployment.
/// A sharded directory applies the operation to every shard and updates
/// the manifest width.
pub fn compact(flags: &Flags) -> CmdResult {
    let base = flags.require("base")?;
    let cache_pages: usize = flags.get_parsed_or("cache-pages", 4096usize)?;
    let fold = flags.has("fold");
    let target_width: Option<usize> = match flags.get("width") {
        Some(raw) => Some(raw.parse().map_err(|e| format!("bad --width {raw:?}: {e}"))?),
        None => None,
    };
    if fold && target_width.is_some() {
        return Err("--fold and --width conflict: fold always halves the width".into());
    }
    let hasher = hasher(flags)?;
    let run = |shard_base: &Path, width_hint: usize| -> Result<_, Box<dyn Error>> {
        let report = if fold {
            bbs_storage::fold_deployment(shard_base, Arc::clone(&hasher), cache_pages)?
        } else {
            bbs_storage::compact_deployment(
                shard_base,
                width_hint,
                Arc::clone(&hasher),
                target_width,
                cache_pages,
            )?
        };
        Ok(report)
    };

    if bbs_shard::ShardedDeployment::is_sharded(Path::new(base)) {
        let mut manifest = bbs_shard::Manifest::read(Path::new(base))?;
        let mut width = manifest.width;
        for shard in 0..manifest.shards {
            let sb = bbs_shard::shard_base(Path::new(base), shard);
            let report = run(&sb, manifest.width)?;
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
            width = report.width;
        }
        if width != manifest.width {
            // Folds and width-changing compactions moved every shard in
            // lockstep; record the new width so reopen hints match.
            manifest.width = width;
            manifest.write(Path::new(base))?;
            println!("manifest width updated to {width}");
        }
        return Ok(());
    }
    if !Path::new(&format!("{base}.commit")).exists() {
        // compact_deployment would create a fresh empty deployment from
        // nothing; maintenance of a base that was never built is a typo.
        return Err(format!("no deployment at {base} (missing {base}.commit)").into());
    }
    let width_hint: usize = flags.get_parsed_or("width", 1600usize)?;
    let report = run(Path::new(base), width_hint)?;
    println!(
        "{}: width {} ({} -> {} rows, {} tombstoned row(s) reclaimed, commit seq {})",
        report.action,
        report.width,
        report.rows_before,
        report.rows_after,
        report.reclaimed,
        report.seq
    );
    Ok(())
}

/// `bbs fsck` — read-only integrity check of a durable deployment.
///
/// Verifies every committed page of `<base>.dat/.idx/.slices/.counts`
/// against the stored per-page checksums and the commit record's
/// boundary digests, without opening (and therefore without recovering)
/// the deployment.  Exits nonzero if any corruption is found.
pub fn fsck(flags: &Flags) -> CmdResult {
    let base = flags.require("base")?;
    if bbs_shard::ShardedDeployment::is_sharded(Path::new(base)) {
        return fsck_sharded(base);
    }
    let report = bbs_storage::DiskDeployment::verify(Path::new(base))?;
    print!("{report}");
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{}: {} corrupt page(s), {} structural problem(s)",
            base,
            report.corrupt_pages.len(),
            report.problems.len()
        )
        .into())
    }
}

/// The sharded arm of [`fsck`]: every shard verifies in parallel, one
/// summary line per shard, and the exit is nonzero if *any* shard is
/// dirty.
fn fsck_sharded(dir: &str) -> CmdResult {
    let reports = bbs_shard::ShardedDeployment::verify(Path::new(dir))?;
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
        }
    }
    if dirty == 0 {
        Ok(())
    } else {
        Err(format!("{dir}: {dirty} of {} shard(s) dirty", reports.len()).into())
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

/// `bbs stats --base PATH` — run one in-place mining pass over a durable
/// deployment and report the read-side counters (cache hits/misses/hit
/// rate, physical reads, checksum-verified pages, what the cursors did).
fn deployment_stats(flags: &Flags, base: &str) -> CmdResult {
    let width: usize = flags.get_parsed_or("width", 1600usize)?;
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

    let mut dep = bbs_storage::DiskDeployment::open(
        Path::new(base),
        width,
        hasher(flags)?,
        cache_pages,
    )?;
    println!("deployment        : {base}.*");
    println!("rows              : {}", dep.db.len());
    println!("committed rows    : {}", dep.committed_rows());
    println!("slices (width m)  : {}", dep.index.width());
    println!("slice cache pages : {cache_pages}");

    let start = Instant::now();
    let (result, stats) = bbs_storage::mine_in_place(&mut dep, scheme, threshold, threads)?;
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
        assert!(bbs_shard::ShardedDeployment::is_sharded(&dir));

        // `bbs ingest` detects the shard directory and routes by TID.
        ingest(&flags(&[
            ("db", db_path.to_str().expect("utf8")),
            ("base", &dir_s),
        ]))
        .expect("sharded ingest");
        let dep = bbs_shard::ShardedDeployment::open(
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
        let dat = bbs_shard::shard_base(&dir, 1).with_extension("dat");
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
            bbs_shard::ShardedDeployment::remove_files(&self.0).ok();
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
