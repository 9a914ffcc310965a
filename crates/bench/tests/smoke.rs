//! Smoke tests: every experiment function runs end to end at micro scale
//! and produces a structurally sound table, and so does every entry of the
//! `FIGURES` table over its default sweep.  These guard the harness itself
//! (the `figures` binary and bench run from that table), not the
//! performance numbers.

use bbs_bench::experiments::{self, sweeps};
use bbs_bench::{Profile, Table};

fn assert_table(t: &Table, expect_rows: usize) {
    assert!(!t.title.is_empty());
    assert!(t.headers.len() >= 2, "{}", t.title);
    assert_eq!(t.rows.len(), expect_rows, "{}", t.title);
    for row in &t.rows {
        assert_eq!(row.len(), t.headers.len(), "{}", t.title);
        assert!(row.iter().all(|c| !c.is_empty()), "{}", t.title);
    }
    // Render exercises the alignment machinery.
    let rendered = t.render();
    assert!(rendered.lines().count() >= expect_rows + 3, "{}", t.title);
}

/// The table the `figures` binary and bench run from: every entry runs
/// over its default sweep, and there is one per `*_smoke` test of this
/// file.  The sweeps reach three times the profile's transaction length
/// and a third of its threshold; at micro's 4 % that is a dense database
/// mined at 1.3 % — half a minute in a debug build — so the threshold is
/// raised.
#[test]
fn every_figure_of_the_table_runs() {
    let names: Vec<&str> = experiments::FIGURES.iter().map(|f| f.name).collect();
    let mut expected: Vec<String> = (5..=13).map(|n| format!("fig{n}")).collect();
    expected.extend(["hash_k", "integration", "tiered", "counters"].map(|a| format!("ablation_{a}")));
    assert_eq!(names, expected);
    let p = Profile {
        tau_pct: 10.0,
        ..Profile::micro()
    };
    for figure in experiments::FIGURES {
        assert!(!figure.about.is_empty(), "{}", figure.name);
        let tables = (figure.run)(&p);
        assert!(!tables.is_empty(), "{}", figure.name);
        for t in &tables {
            assert!(!t.rows.is_empty(), "{}", figure.name);
            assert_table(t, t.rows.len());
        }
    }
}

#[test]
fn fig5_smoke() {
    let p = Profile::micro();
    let widths = [p.width, p.width * 2];
    let (fdr, time) = experiments::run_fig5(&p, &widths);
    assert_table(&fdr, 2);
    assert_table(&time, 2);
    // FDR must not increase with m.
    let fdr_at = |i: usize| fdr.rows[i][1].parse::<f64>().expect("fdr cell");
    assert!(fdr_at(1) <= fdr_at(0) + 1e-9);
}

#[test]
fn fig6_smoke() {
    let t = experiments::run_fig6(&Profile::micro());
    assert_table(&t, 6);
    // Every algorithm found the same number of patterns.
    let patterns: Vec<&str> = t.rows.iter().map(|r| r[2].as_str()).collect();
    assert!(patterns.windows(2).all(|w| w[0] == w[1]), "{patterns:?}");
}

#[test]
fn fig7_smoke() {
    let t = experiments::run_fig7(&Profile::micro(), &[4.0, 8.0]);
    assert_table(&t, 2);
    // Higher threshold, fewer patterns.
    let n = |i: usize| t.rows[i].last().expect("cell").parse::<u64>().expect("count");
    assert!(n(1) <= n(0));
}

#[test]
fn fig8_smoke() {
    let p = Profile::micro();
    let t = experiments::run_fig8(&p, &[p.transactions, p.transactions * 2]);
    assert_table(&t, 2);
}

#[test]
fn fig9_smoke() {
    let p = Profile::micro();
    let t = experiments::run_fig9(&p, &[p.items, p.items * 2]);
    assert_table(&t, 2);
}

#[test]
fn fig10_smoke() {
    let t = experiments::run_fig10(&Profile::micro(), &[6.0, 8.0]);
    assert_table(&t, 2);
}

#[test]
fn fig11_smoke() {
    let p = Profile::micro();
    let budgets = sweeps::budgets_kib(&p);
    let t = experiments::run_fig11(&p, &budgets);
    assert_table(&t, budgets.len());
}

#[test]
fn fig12_smoke() {
    let t = experiments::run_fig12(&Profile::micro(), 3, 100);
    assert_table(&t, 3);
    // The database grows monotonically.
    let size = |i: usize| t.rows[i][1].parse::<u64>().expect("size");
    assert!(size(0) <= size(1) && size(1) <= size(2));
}

#[test]
fn fig13_smoke() {
    let t = experiments::run_fig13(&Profile::micro());
    assert_table(&t, 2);
}

#[test]
fn ablation_hash_k_smoke() {
    let t = experiments::run_ablation_hash_k(&Profile::micro(), &[2, 4]);
    assert_table(&t, 2);
}

#[test]
fn ablation_integration_smoke() {
    let t = experiments::run_ablation_integration(&Profile::micro());
    assert_table(&t, 2);
    // Both variants saw the same candidate set.
    assert_eq!(t.rows[0][1], t.rows[1][1]);
}

#[test]
fn ablation_tiered_smoke() {
    let p = Profile::micro();
    let budgets = sweeps::budgets_kib(&p);
    let t = experiments::run_ablation_tiered(&p, &budgets);
    assert_table(&t, budgets.len());
}

#[test]
fn sweeps_respect_saturation_floor() {
    for p in [Profile::paper(), Profile::quick(), Profile::micro()] {
        let floor = sweeps::safe_width_floor(&p);
        for w in sweeps::widths(&p) {
            assert!(w >= floor, "width {w} below floor {floor}");
        }
        let slice_bytes = p.transactions.div_ceil(8);
        for kib in sweeps::budgets_kib(&p) {
            assert!(
                kib * 1024 >= floor * slice_bytes,
                "budget {kib}KiB folds below the floor"
            );
        }
    }
}

#[test]
fn ablation_counters_smoke() {
    let p = Profile::micro();
    let t = experiments::run_ablation_counters(&p, &[p.tau_pct]);
    assert_table(&t, 1);
}
