//! One function per figure of the paper's evaluation (§4), each returning a
//! [`Table`] with the same series the paper plots.
//!
//! Absolute times differ from the 1997-era SUN Ultra the authors used; what
//! these experiments reproduce is the *shape*: which scheme wins, by what
//! rough factor, and where behaviour changes (see EXPERIMENTS.md for the
//! paper-vs-measured record).

use crate::profile::Profile;
use crate::table::{fmt_secs, Table};
use bbs_apriori::AprioriMiner;
use bbs_core::{
    probe_candidates, run_filter, AdhocEngine, Bbs, BbsMiner, FilterKind, Scheme,
};
use bbs_datagen::{generate_db, WeblogConfig, WeblogGenerator};
use bbs_fptree::FpGrowthMiner;
use bbs_hash::{ItemHasher, Md5BloomHasher};
use bbs_tdb::{
    FrequentPatternMiner, IoStats, MemoryBudget, MineResult, SupportThreshold, TransactionDb,
};
use std::sync::Arc;
use std::time::Instant;

/// Times a closure.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

fn hasher(p: &Profile) -> Arc<dyn ItemHasher> {
    Arc::new(Md5BloomHasher::new(p.hash_k))
}

/// Ground-truth frequent-pattern count (via FP-growth, which is exact and
/// fast enough at these scales).
fn actual_frequent(db: &TransactionDb, tau: u64) -> u64 {
    FpGrowthMiner::new()
        .mine(db, SupportThreshold::Count(tau))
        .patterns
        .len() as u64
}

fn fdr(result: &MineResult, actual: u64) -> f64 {
    if actual == 0 {
        0.0
    } else {
        result.stats.false_drops as f64 / actual as f64
    }
}

/// Figure 5: effect of the signature width `m` on (a) the false-drop ratio
/// and (b) the response time, for SFS/SFP/DFS/DFP.
pub fn run_fig5(p: &Profile, widths: &[usize]) -> (Table, Table) {
    let db = generate_db(p.quest());
    let tau = p.tau_for(db.len());
    let actual = actual_frequent(&db, tau);

    let mut fdr_table = Table::new(
        format!("Figure 5(a): false-drop ratio vs vector size (actual frequent = {actual})"),
        &["m", "SFS", "SFP", "DFS", "DFP"],
    );
    let mut time_table = Table::new(
        "Figure 5(b): response time (s) vs vector size",
        &["m", "SFS", "SFP", "DFS", "DFP"],
    );

    for &m in widths {
        let mut io = IoStats::new();
        let bbs = Bbs::build(m, hasher(p), &db, &mut io);
        let mut fdr_row = vec![m.to_string()];
        let mut time_row = vec![m.to_string()];
        for scheme in Scheme::ALL {
            let mut miner = BbsMiner::with_index(scheme, bbs.clone());
            let (result, secs) = timed(|| miner.mine(&db, SupportThreshold::Count(tau)));
            assert_eq!(result.patterns.len() as u64, actual, "{} m={m}", scheme.name());
            fdr_row.push(format!("{:.4}", fdr(&result, actual)));
            time_row.push(fmt_secs(secs));
        }
        fdr_table.push_row(fdr_row);
        time_table.push_row(time_row);
    }
    (fdr_table, time_table)
}

/// Runs all six algorithms on one database and appends a row per algorithm.
fn compare_all(
    db: &TransactionDb,
    p: &Profile,
    tau: u64,
    label: &str,
    table: &mut Table,
) {
    let actual = actual_frequent(db, tau);
    let threshold = SupportThreshold::Count(tau);

    let mut io = IoStats::new();
    let bbs = Bbs::build(p.width, hasher(p), db, &mut io);
    let mut cells = vec![label.to_string()];
    for scheme in Scheme::ALL {
        let mut miner = BbsMiner::with_index(scheme, bbs.clone());
        let (result, secs) = timed(|| miner.mine(db, threshold));
        assert_eq!(result.patterns.len() as u64, actual, "{}", scheme.name());
        cells.push(fmt_secs(secs));
    }
    let (aps, aps_secs) = timed(|| AprioriMiner::new().mine(db, threshold));
    assert_eq!(aps.patterns.len() as u64, actual, "APS");
    cells.push(fmt_secs(aps_secs));
    let (fps, fps_secs) = timed(|| FpGrowthMiner::new().mine(db, threshold));
    assert_eq!(fps.patterns.len() as u64, actual, "FPS");
    cells.push(fmt_secs(fps_secs));
    cells.push(actual.to_string());
    table.push_row(cells);
}

const COMPARE_HEADERS: [&str; 8] = ["x", "SFS", "SFP", "DFS", "DFP", "APS", "FPS", "patterns"];

/// Figure 6: all six algorithms on the default settings, with the full cost
/// breakdown (the paper plots only response time; the extra columns expose
/// *why* the ordering comes out the way it does).
pub fn run_fig6(p: &Profile) -> Table {
    let mut table = Table::new(
        format!(
            "Figure 6: default settings ({}, V={}, m={}, tau={}%)",
            p.quest().label(),
            p.items,
            p.width,
            p.tau_pct
        ),
        &[
            "algorithm",
            "time (s)",
            "patterns",
            "candidates",
            "false drops",
            "certified",
            "db scans",
            "probe rows",
            "db pages",
            "bbs pages",
        ],
    );
    let db = generate_db(p.quest());
    let tau = p.tau_for(db.len());
    let threshold = SupportThreshold::Count(tau);

    let mut io = IoStats::new();
    let bbs = Bbs::build(p.width, hasher(p), &db, &mut io);
    let mut push = |name: &str, result: &MineResult, secs: f64| {
        table.push_row(vec![
            name.to_string(),
            fmt_secs(secs),
            result.patterns.len().to_string(),
            result.stats.candidates.to_string(),
            result.stats.false_drops.to_string(),
            result.stats.certified.to_string(),
            result.stats.io.db_scans.to_string(),
            result.stats.io.db_probes.to_string(),
            result.stats.io.db_pages_read.to_string(),
            result.stats.io.bbs_pages_read.to_string(),
        ]);
    };
    for scheme in Scheme::ALL {
        let mut miner = BbsMiner::with_index(scheme, bbs.clone());
        let (result, secs) = timed(|| miner.mine(&db, threshold));
        push(scheme.name(), &result, secs);
    }
    let (aps, secs) = timed(|| AprioriMiner::new().mine(&db, threshold));
    push("APS", &aps, secs);
    let (fps, secs) = timed(|| FpGrowthMiner::new().mine(&db, threshold));
    push("FPS", &fps, secs);
    table
}

/// Figure 7: minimum-support sweep.
pub fn run_fig7(p: &Profile, taus_pct: &[f64]) -> Table {
    let mut table = Table::new(
        "Figure 7: response time (s) vs minimum support (%)",
        &COMPARE_HEADERS,
    );
    let db = generate_db(p.quest());
    for &pct in taus_pct {
        let tau = ((pct / 100.0 * db.len() as f64).ceil() as u64).max(1);
        compare_all(&db, p, tau, &format!("{pct}%"), &mut table);
    }
    table
}

/// Figure 8: database-size sweep.
pub fn run_fig8(p: &Profile, sizes: &[usize]) -> Table {
    let mut table = Table::new(
        "Figure 8: response time (s) vs number of transactions",
        &COMPARE_HEADERS,
    );
    for &d in sizes {
        let db = generate_db(p.quest().with_transactions(d));
        compare_all(&db, p, p.tau_for(d), &format!("{d}"), &mut table);
    }
    table
}

/// Figure 9: vocabulary-size sweep.
pub fn run_fig9(p: &Profile, item_counts: &[u32]) -> Table {
    let mut table = Table::new(
        "Figure 9: response time (s) vs number of distinct items",
        &COMPARE_HEADERS,
    );
    for &v in item_counts {
        let db = generate_db(p.quest().with_items(v));
        compare_all(&db, p, p.tau_for(db.len()), &format!("{v}"), &mut table);
    }
    table
}

/// Figure 10: average-transaction-length sweep.
pub fn run_fig10(p: &Profile, lengths: &[f64]) -> Table {
    let mut table = Table::new(
        "Figure 10: response time (s) vs average transaction length",
        &COMPARE_HEADERS,
    );
    for &t in lengths {
        let db = generate_db(p.quest().with_avg_txn_len(t));
        compare_all(&db, p, p.tau_for(db.len()), &format!("{t}"), &mut table);
    }
    table
}

/// Figure 11: memory-budget sweep for DFP vs APS vs FPS.
pub fn run_fig11(p: &Profile, budgets_kib: &[usize]) -> Table {
    let mut table = Table::new(
        "Figure 11: response time (s) vs memory size (KiB)",
        &["mem KiB", "DFP", "APS", "FPS", "DFP bbs passes", "APS scans", "FPS scans"],
    );
    let db = generate_db(p.quest());
    let tau = p.tau_for(db.len());
    let threshold = SupportThreshold::Count(tau);
    let actual = actual_frequent(&db, tau);

    let mut io = IoStats::new();
    let bbs = Bbs::build(p.width, hasher(p), &db, &mut io);

    for &kib in budgets_kib {
        let budget = MemoryBudget::kib(kib);
        let mut dfp = BbsMiner::with_index(Scheme::Dfp, bbs.clone()).with_budget(budget);
        let (dfp_result, dfp_secs) = timed(|| dfp.mine(&db, threshold));
        assert_eq!(dfp_result.patterns.len() as u64, actual, "DFP @{kib}KiB");

        let (aps_result, aps_secs) =
            timed(|| AprioriMiner::new().with_budget(budget).mine(&db, threshold));
        assert_eq!(aps_result.patterns.len() as u64, actual, "APS @{kib}KiB");

        let (fps_result, fps_secs) =
            timed(|| FpGrowthMiner::new().with_budget(budget).mine(&db, threshold));
        assert_eq!(fps_result.patterns.len() as u64, actual, "FPS @{kib}KiB");

        table.push_row(vec![
            kib.to_string(),
            fmt_secs(dfp_secs),
            fmt_secs(aps_secs),
            fmt_secs(fps_secs),
            dfp_result.stats.io.bbs_passes.to_string(),
            aps_result.stats.io.db_scans.to_string(),
            fps_result.stats.io.db_scans.to_string(),
        ]);
    }
    table
}

/// Figure 12: dynamic web-log database — per-day cost of keeping the answer
/// current (DFP appends; APS/FPS start from scratch over the full history).
pub fn run_fig12(p: &Profile, days: usize, sessions_per_day: usize) -> Table {
    let mut table = Table::new(
        "Figure 12: dynamic database — per-day response time (s) and pages moved",
        &[
            "day",
            "db size",
            "DFP update+mine",
            "APS",
            "FPS",
            "DFP pages",
            "APS pages",
            "FPS pages",
        ],
    );
    let cfg = WeblogConfig {
        seed: p.seed,
        ..WeblogConfig::paper_scaled(days, sessions_per_day)
    };
    let mut generator = WeblogGenerator::new(cfg);
    let day0 = generator.next_day().expect("day 0");
    let mut db = TransactionDb::from_transactions(day0.transactions);
    let mut miner = BbsMiner::build(Scheme::Dfp, &db, p.width, hasher(p));
    let threshold = SupportThreshold::percent(p.tau_pct.max(0.5));

    let mut day_idx = 0usize;
    loop {
        let (dfp_result, dfp_secs) = timed(|| miner.mine(&db, threshold));
        let (aps_result, aps_secs) = timed(|| AprioriMiner::new().mine(&db, threshold));
        let (fps_result, fps_secs) = timed(|| FpGrowthMiner::new().mine(&db, threshold));
        assert_eq!(dfp_result.patterns.len(), fps_result.patterns.len());
        assert_eq!(aps_result.patterns.len(), fps_result.patterns.len());

        // Pages each strategy moved for *this day's* answer: DFP pays its
        // mine I/O plus the incremental appends (maintenance ledger delta);
        // APS and FPS pay their full from-scratch runs.
        let maintenance_before = miner.maintenance_io();
        let mut append_secs = 0.0;
        let next = generator.next_day();
        let done = next.is_none();
        if let Some(day) = next {
            let (_, secs) = timed(|| {
                for txn in &day.transactions {
                    miner.append(txn);
                    db.push(txn.clone());
                }
            });
            append_secs = secs;
        }
        let appended_pages = miner
            .maintenance_io()
            .bbs_pages_written
            .saturating_sub(maintenance_before.bbs_pages_written);
        table.push_row(vec![
            day_idx.to_string(),
            db.len().to_string(),
            fmt_secs(dfp_secs + append_secs),
            fmt_secs(aps_secs),
            fmt_secs(fps_secs),
            (dfp_result.stats.io.total_pages() + appended_pages).to_string(),
            aps_result.stats.io.total_pages().to_string(),
            fps_result.stats.io.total_pages().to_string(),
        ]);
        if done {
            break;
        }
        day_idx += 1;
    }
    table
}

/// Figure 13: ad-hoc queries — Q1 (exact count of a non-frequent pattern)
/// and Q2 (count under a `TID % 7 == 0` constraint), DFP vs APS.  FPS
/// cannot answer either (no performance row, as in the paper).
pub fn run_fig13(p: &Profile) -> Table {
    let mut table = Table::new(
        "Figure 13: ad-hoc query response time (s), DFP vs APS (FPS: not applicable)",
        &["query", "DFP", "APS (rescan)"],
    );
    let db = generate_db(p.quest());
    let mut io = IoStats::new();
    let bbs = Bbs::build(p.width, hasher(p), &db, &mut io);
    let engine = AdhocEngine::new(&bbs, &db);

    // A handful of genuinely non-frequent 2-item patterns from the data.
    let queries: Vec<bbs_tdb::Itemset> = db
        .transactions()
        .iter()
        .step_by((db.len() / 8).max(1))
        .take(8)
        .map(|t| {
            bbs_tdb::Itemset::from_items(t.items.items().iter().take(2).copied().collect())
        })
        .collect();

    // Q1: DFP probes; APS has no materialised answer and must rescan.
    let (dfp_counts, dfp_q1) = timed(|| {
        let mut io = IoStats::new();
        queries
            .iter()
            .map(|q| engine.count(q, &mut io))
            .collect::<Vec<_>>()
    });
    let (aps_counts, aps_q1) = timed(|| {
        let mut io = IoStats::new();
        queries
            .iter()
            .map(|q| db.count_support(q, &mut io))
            .collect::<Vec<_>>()
    });
    assert_eq!(dfp_counts, aps_counts, "Q1 answers must agree");
    table.push_row(vec![
        "Q1: count of non-frequent patterns".into(),
        fmt_secs(dfp_q1),
        fmt_secs(aps_q1),
    ]);

    // Q2: constrained counts (TID divisible by 7).
    let constraint = bbs_tdb::TidModulo::divisible_by(7);
    let (dfp_c, dfp_q2) = timed(|| {
        let mut io = IoStats::new();
        let slice = engine.compile_constraint(&constraint, &mut io);
        queries
            .iter()
            .map(|q| engine.count_with_slice(q, &slice, &mut io))
            .collect::<Vec<_>>()
    });
    let (aps_c, aps_q2) = timed(|| {
        queries
            .iter()
            .map(|q| {
                db.transactions()
                    .iter()
                    .filter(|t| t.tid.0 % 7 == 0 && q.is_subset_of(&t.items))
                    .count() as u64
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(dfp_c, aps_c, "Q2 answers must agree");
    table.push_row(vec![
        "Q2: counts where TID % 7 == 0".into(),
        fmt_secs(dfp_q2),
        fmt_secs(aps_q2),
    ]);
    table
}

/// Ablation A1: the Bloom parameter `k` (hash functions per item) — not in
/// the paper, but DESIGN.md calls out the k/m trade-off.
pub fn run_ablation_hash_k(p: &Profile, ks: &[usize]) -> Table {
    let mut table = Table::new(
        "Ablation A1: hash functions per item (DFP)",
        &["k", "FDR", "time (s)", "certified", "probes"],
    );
    let db = generate_db(p.quest());
    let tau = p.tau_for(db.len());
    let actual = actual_frequent(&db, tau);
    for &k in ks {
        let mut io = IoStats::new();
        let bbs = Bbs::build(p.width, Arc::new(Md5BloomHasher::new(k)), &db, &mut io);
        let mut miner = BbsMiner::with_index(Scheme::Dfp, bbs);
        let (result, secs) = timed(|| miner.mine(&db, SupportThreshold::Count(tau)));
        assert_eq!(result.patterns.len() as u64, actual, "k={k}");
        table.push_row(vec![
            k.to_string(),
            format!("{:.4}", fdr(&result, actual)),
            fmt_secs(secs),
            result.stats.certified.to_string(),
            result.stats.io.db_probes.to_string(),
        ]);
    }
    table
}

/// Ablation A2: integrated vs two-phase probing — quantifies the
/// false-drop-chain effect §3.3 claims integration avoids.
pub fn run_ablation_integration(p: &Profile) -> Table {
    let mut table = Table::new(
        "Ablation A2: integrated vs two-phase probe refinement (single filter)",
        &["variant", "candidates", "false drops", "probes", "time (s)"],
    );
    let db = generate_db(p.quest());
    let tau = p.tau_for(db.len());
    let mut io = IoStats::new();
    let bbs = Bbs::build(p.width, hasher(p), &db, &mut io);

    // Integrated (SFP as shipped).
    let mut sfp = BbsMiner::with_index(Scheme::Sfp, bbs.clone());
    let (integrated, int_secs) = timed(|| sfp.mine(&db, SupportThreshold::Count(tau)));

    // Two-phase: full SingleFilter, then probe every candidate.
    let ((filter_out, refine_out), two_secs) = timed(|| {
        let f = run_filter(&bbs, FilterKind::Single, None, tau);
        let r = probe_candidates(&db, &bbs, &f.uncertain, tau);
        (f, r)
    });
    assert_eq!(
        integrated.patterns.len(),
        refine_out.confirmed.len(),
        "same final answer"
    );

    table.push_row(vec![
        "integrated (SFP)".into(),
        integrated.stats.candidates.to_string(),
        integrated.stats.false_drops.to_string(),
        integrated.stats.io.db_probes.to_string(),
        fmt_secs(int_secs),
    ]);
    table.push_row(vec![
        "two-phase".into(),
        filter_out.stats.candidates.to_string(),
        refine_out.false_drops.to_string(),
        refine_out.io.db_probes.to_string(),
        fmt_secs(two_secs),
    ]);
    table
}

/// Ablation A3: adaptive folding (§3.1) vs pre-built tiers (footnote 6)
/// under shrinking memory budgets.
pub fn run_ablation_tiered(p: &Profile, budgets_kib: &[usize]) -> Table {
    let mut table = Table::new(
        "Ablation A3: adaptive fold vs tiered indexes (DFP under memory budgets)",
        &[
            "mem KiB",
            "fold time",
            "tier time",
            "fold candidates",
            "tier candidates",
            "tier width",
        ],
    );
    let db = generate_db(p.quest());
    let tau = p.tau_for(db.len());
    let threshold = SupportThreshold::Count(tau);
    let actual = actual_frequent(&db, tau);

    let mut io = IoStats::new();
    let bbs = Bbs::build(p.width, hasher(p), &db, &mut io);
    // Tier widths: powers of two down from the full width, staying above
    // the saturation floor.
    let floor = sweeps::safe_width_floor(p);
    let mut tier_widths = Vec::new();
    let mut w = p.width;
    while w >= floor && tier_widths.len() < 5 {
        tier_widths.push(w);
        w /= 2;
    }
    let tiered = bbs_core::TieredBbs::build(&db, &tier_widths, hasher(p), &mut io);

    for &kib in budgets_kib {
        let budget = MemoryBudget::kib(kib);

        let mut fold_miner = BbsMiner::with_index(Scheme::Dfp, bbs.clone()).with_budget(budget);
        let (fold_result, fold_secs) = timed(|| fold_miner.mine(&db, threshold));
        assert_eq!(fold_result.patterns.len() as u64, actual, "fold @{kib}KiB");

        let tier = tiered.select(budget);
        let mut tier_miner = BbsMiner::with_index(Scheme::Dfp, tier.clone()).with_budget(budget);
        let (tier_result, tier_secs) = timed(|| tier_miner.mine(&db, threshold));
        assert_eq!(tier_result.patterns.len() as u64, actual, "tier @{kib}KiB");

        table.push_row(vec![
            kib.to_string(),
            fmt_secs(fold_secs),
            fmt_secs(tier_secs),
            fold_result.stats.candidates.to_string(),
            tier_result.stats.candidates.to_string(),
            tier.width().to_string(),
        ]);
    }
    table
}


/// Ablation A4: Apriori candidate counting — modern prefix trie vs the
/// original VLDB '94 hash tree.
pub fn run_ablation_counters(p: &Profile, taus_pct: &[f64]) -> Table {
    let mut table = Table::new(
        "Ablation A4: Apriori counting structure (trie vs hash tree)",
        &["tau", "trie (s)", "hash tree (s)", "patterns"],
    );
    let db = generate_db(p.quest());
    for &pct in taus_pct {
        let threshold = SupportThreshold::percent(pct);
        let (trie_result, trie_secs) = timed(|| AprioriMiner::new().mine(&db, threshold));
        let (tree_result, tree_secs) = timed(|| {
            AprioriMiner::new()
                .with_counter(bbs_apriori::CounterKind::HashTree)
                .mine(&db, threshold)
        });
        assert_eq!(trie_result.patterns, tree_result.patterns, "tau {pct}%");
        table.push_row(vec![
            format!("{pct}%"),
            fmt_secs(trie_secs),
            fmt_secs(tree_secs),
            trie_result.patterns.len().to_string(),
        ]);
    }
    table
}

/// One reproducible experiment: the name it goes by on the `figures`
/// command line, what it shows, and its run over the paper's sweep scaled
/// to a profile.
pub struct Figure {
    /// Command-line name (`fig5`, `ablation_hash_k`, …).
    pub name: &'static str,
    /// What the experiment shows.
    pub about: &'static str,
    /// Runs it at `profile` and returns its tables.
    pub run: fn(&Profile) -> Vec<Table>,
}

/// Every experiment, in the paper's order — the one list the `figures`
/// binary, the `figures` bench and the smoke test all run from.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig5",
        about: "Fig. 5: false-drop ratio and response time vs the signature width m",
        run: |p| {
            let (fdr, time) = run_fig5(p, &sweeps::widths(p));
            vec![fdr, time]
        },
    },
    Figure {
        name: "fig6",
        about: "Fig. 6: all six algorithms on the default settings",
        run: |p| vec![run_fig6(p)],
    },
    Figure {
        name: "fig7",
        about: "Fig. 7: response time vs the minimum support threshold",
        run: |p| vec![run_fig7(p, &sweeps::taus(p))],
    },
    Figure {
        name: "fig8",
        about: "Fig. 8: scalability with the number of transactions",
        run: |p| vec![run_fig8(p, &sweeps::sizes(p))],
    },
    Figure {
        name: "fig9",
        about: "Fig. 9: effect of the number of distinct items",
        run: |p| vec![run_fig9(p, &sweeps::item_counts(p))],
    },
    Figure {
        name: "fig10",
        about: "Fig. 10: effect of the average number of items per transaction",
        run: |p| vec![run_fig10(p, &sweeps::lengths(p))],
    },
    Figure {
        name: "fig11",
        about: "Fig. 11: effect of the memory budget on DFP, APS and FPS",
        run: |p| vec![run_fig11(p, &sweeps::budgets_kib(p))],
    },
    Figure {
        name: "fig12",
        about: "Fig. 12: growing database, incremental BBS vs from-scratch APS / FPS",
        run: |p| vec![run_fig12(p, 5, (p.transactions / 5).max(200))],
    },
    Figure {
        name: "fig13",
        about: "Fig. 13: ad-hoc queries (non-frequent and constrained counts), DFP vs APS",
        run: |p| vec![run_fig13(p)],
    },
    Figure {
        name: "ablation_hash_k",
        about: "A1: sensitivity to the number of hash functions per item",
        run: |p| vec![run_ablation_hash_k(p, &sweeps::ks(p))],
    },
    Figure {
        name: "ablation_integration",
        about: "A2: integrated vs two-phase probe refinement",
        run: |p| vec![run_ablation_integration(p)],
    },
    Figure {
        name: "ablation_tiered",
        about: "A3: adaptive folding vs pre-built tiered indexes (footnote 6)",
        run: |p| vec![run_ablation_tiered(p, &sweeps::budgets_kib(p))],
    },
    Figure {
        name: "ablation_counters",
        about: "A4: Apriori counting structures, prefix trie vs the original hash tree",
        run: |p| {
            vec![run_ablation_counters(
                p,
                &[p.tau_pct / 2.0, p.tau_pct, p.tau_pct * 2.0],
            )]
        },
    },
];

/// The sweep axes used by the paper for each figure, expressed relative to a
/// profile so the quick profile scales them down consistently.
pub mod sweeps {
    use super::Profile;

    /// Smallest signature width (or fold width) at which the filters stay
    /// selective: with density `d = T·k/m`, requires `d^k · D < τ/2`.
    /// Below this, nearly every itemset passes `CountItemSet` and the
    /// two-phase filters enumerate an exponential candidate set.
    pub fn safe_width_floor(p: &Profile) -> usize {
        let bits_per_txn = p.avg_txn_len * p.hash_k as f64;
        let tau = (p.tau_pct / 100.0 * p.transactions as f64).max(1.0);
        let d_max = (tau / 2.0 / p.transactions as f64).powf(1.0 / p.hash_k as f64);
        (bits_per_txn / d_max).ceil() as usize
    }

    /// Fig. 5: m from 400 to 6400 (paper); scaled by width/1600 for other
    /// profiles, but never below the saturation floor.
    ///
    /// A transaction sets about `T·k` of the `m` bits; when the resulting
    /// density `d = T·k/m` satisfies `d^k · D ≥ τ`, *every* itemset passes
    /// the filter and the two-phase schemes enumerate an exponential
    /// candidate set (the §2.2 trade-off taken to its breaking point).  The
    /// sweep stays above the width where `d^k · D < τ/2` so the FDR curve is
    /// steep but the runs terminate.
    pub fn widths(p: &Profile) -> Vec<usize> {
        let scale = p.width as f64 / 1600.0;
        let floor = safe_width_floor(p);
        let mut widths: Vec<usize> = [400usize, 800, 1600, 3200, 6400]
            .iter()
            .map(|&m| ((m as f64 * scale) as usize).max(floor))
            .collect();
        widths.dedup();
        widths
    }

    /// Fig. 7: τ from 0.1 % to 1.2 % (paper) — a third to four times the
    /// default threshold, which is what other profiles keep.
    pub fn taus(p: &Profile) -> Vec<f64> {
        [0.1, 0.2, 0.3, 0.6, 0.9, 1.2]
            .iter()
            .map(|&t| t * p.tau_pct / 0.3)
            .collect()
    }

    /// Fig. 8: D from 1× to 10× the profile size.
    pub fn sizes(p: &Profile) -> Vec<usize> {
        [1usize, 2, 5, 10]
            .iter()
            .map(|&f| p.transactions * f)
            .collect()
    }

    /// Fig. 9: V from 1× to 10× the profile vocabulary.
    pub fn item_counts(p: &Profile) -> Vec<u32> {
        [1u32, 2, 5, 10].iter().map(|&f| p.items * f).collect()
    }

    /// Fig. 10: T from 10 to 30 (paper) — one to three times the default
    /// transaction length, which is what other profiles keep.
    pub fn lengths(p: &Profile) -> Vec<f64> {
        [1.0, 1.5, 2.0, 2.5, 3.0]
            .iter()
            .map(|&f| f * p.avg_txn_len)
            .collect()
    }

    /// Fig. 11: memory 250 KiB – 2 MiB (paper), scaled to the index size for
    /// other profiles so the budget always straddles the fold threshold —
    /// but never folding below the saturation floor (MemBBS density obeys
    /// the same criterion as the raw width; the paper's own smallest budget,
    /// 250 K for a 2 MB BBS, folds 1600 → 200 slices, which is just safe at
    /// its parameters).
    pub fn budgets_kib(p: &Profile) -> Vec<usize> {
        let slice_bytes = p.transactions.div_ceil(8);
        let dense_kib = (p.width * slice_bytes / 1024).max(8);
        let floor_kib = (safe_width_floor(p) * slice_bytes).div_ceil(1024) + 1;
        let mut budgets: Vec<usize> = [1usize, 2, 4, 8]
            .iter()
            .map(|&f| (dense_kib * f / 8).max(floor_kib))
            .collect();
        budgets.dedup();
        budgets
    }

    /// Ablation A1: k sweep.
    pub fn ks(_p: &Profile) -> Vec<usize> {
        vec![1, 2, 4, 6, 8]
    }
}
