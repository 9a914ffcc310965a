//! Approximate mining without a refinement phase — the paper's future-work
//! direction (§5).
//!
//! > "We are extending this work by exploring the possibility of doing away
//! > with phase 2. … For the results to be meaningful, we are looking into
//! > mechanisms to provide some kind of probability on the likelihood of a
//! > pattern to be a frequent pattern."
//!
//! This module implements that mechanism.  The key observation: a BBS row
//! that does *not* contain a queried itemset still passes `CountItemSet` if
//! all of the query's bits happen to be set in its signature by other items.
//! Treating the slices as independent, the chance of that is the product of
//! the selected slices' bit densities.  From the estimate `est`, the model
//!
//! ```text
//! est = act + (rows − act) · p        p = Π density(slice_j)
//! ```
//!
//! yields a point estimate of the actual support and — with a normal
//! approximation of the binomial false-drop count — the probability that
//! the pattern truly reaches the threshold.  Everything here touches only
//! the index: no database scan, no probe.

use crate::bbs::Bbs;
use crate::filter::{run_filter, FilterKind};
use bbs_tdb::{Itemset, MineStats};

/// A pattern mined without refinement: the estimate, the model's corrected
/// support, and the probability that the pattern is genuinely frequent.
#[derive(Debug, Clone)]
pub struct ApproxPattern {
    /// The itemset.
    pub items: Itemset,
    /// The raw `CountItemSet` estimate (an upper bound on the support).
    pub est: u64,
    /// The model-corrected point estimate of the actual support.
    pub corrected: f64,
    /// `P(actual support ≥ τ)` under the independence model, in `[0, 1]`.
    pub confidence: f64,
    /// True when the DualFilter certified the pattern (Lemma 5 /
    /// Corollary 1) — the confidence is then exactly 1.
    pub certified: bool,
}

/// The result of an approximate mining run.
#[derive(Debug, Default)]
pub struct ApproxResult {
    /// Patterns with their confidences, most confident first.
    pub patterns: Vec<ApproxPattern>,
    /// Filter statistics (no refinement I/O by construction).
    pub stats: MineStats,
}

/// The per-slice bit densities of an index (fraction of rows with the bit
/// set), used as the independence model's parameters.
pub fn slice_densities(bbs: &Bbs) -> Vec<f64> {
    let rows = bbs.rows().max(1) as f64;
    (0..bbs.width())
        .map(|j| bbs.matrix().slice(j).count_ones() as f64 / rows)
        .collect()
}

/// Probability that a random row's signature covers the itemset's bits "by
/// chance" under slice independence.
pub fn chance_cover_probability(bbs: &Bbs, densities: &[f64], items: &Itemset) -> f64 {
    bbs.signature_of(items)
        .iter_ones()
        .map(|j| densities[j])
        .product()
}

/// Model-corrected support: solves `est = act + (rows − act)·p` for `act`,
/// clamped to `[0, est]`.
pub fn corrected_support(rows: u64, est: u64, p: f64) -> f64 {
    if p >= 1.0 {
        // Saturated slices carry no information; the estimate is all we have.
        return est as f64;
    }
    let n = rows as f64;
    ((est as f64 - n * p) / (1.0 - p)).clamp(0.0, est as f64)
}

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 approximation
/// (|error| < 7.5e-8 — far below the model error here).
pub fn phi(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.2316419 * x.abs());
    let poly = t
        * (0.319381530
            + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429))));
    let pdf = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let upper = pdf * poly;
    if x >= 0.0 {
        1.0 - upper
    } else {
        upper
    }
}

/// `P(actual ≥ τ)` for a pattern with estimate `est` over `rows` rows under
/// chance-cover probability `p`.
///
/// The false-drop count `F = est − act` is modelled as
/// `Binomial(rows − act, p) ≈ Normal(μ, σ²)` at the corrected point
/// estimate; the confidence is the normal tail mass of `act ≥ τ`.
pub fn frequent_probability(rows: u64, est: u64, p: f64, tau: u64) -> f64 {
    if (est as f64) < tau as f64 {
        return 0.0;
    }
    let act_hat = corrected_support(rows, est, p);
    let exposed = (rows as f64 - act_hat).max(0.0);
    let sigma = (exposed * p * (1.0 - p)).sqrt();
    if sigma < 1e-9 {
        // Deterministic model: no chance coverage (p≈0) or none exposed.
        return if act_hat + 0.5 >= tau as f64 { 1.0 } else { 0.0 };
    }
    // act = est − F; act ≥ τ  ⇔  F ≤ est − τ.  F ~ N(exposed·p, σ²).
    let mu_f = exposed * p;
    phi(((est - tau) as f64 + 0.5 - mu_f) / sigma)
}

/// Mines frequent patterns from the index alone — no refinement phase.
///
/// `kind` selects the filter; with [`FilterKind::Dual`] the certified
/// patterns come back with confidence 1.  `min_confidence` drops patterns
/// the model considers unlikely (pass 0.0 to keep every candidate).
pub fn mine_approximate(
    bbs: &Bbs,
    kind: FilterKind,
    tau: u64,
    min_confidence: f64,
) -> ApproxResult {
    let mut filter = run_filter(bbs, kind, None, tau);
    bbs.charge_cold_load(&mut filter.stats.io);
    let densities = slice_densities(bbs);
    let rows = bbs.rows() as u64;
    let mut result = ApproxResult {
        patterns: Vec::new(),
        stats: filter.stats,
    };

    for (items, count) in filter.frequent.iter().chain(filter.approx.iter()) {
        result.patterns.push(ApproxPattern {
            items: items.clone(),
            est: count,
            corrected: count as f64,
            confidence: 1.0,
            certified: true,
        });
    }
    for (items, est) in &filter.uncertain {
        let p = chance_cover_probability(bbs, &densities, items);
        let confidence = frequent_probability(rows, *est, p, tau);
        if confidence >= min_confidence {
            result.patterns.push(ApproxPattern {
                items: items.clone(),
                est: *est,
                corrected: corrected_support(rows, *est, p),
                confidence,
                certified: false,
            });
        }
    }
    result
        .patterns
        .sort_by(|a, b| b.confidence.partial_cmp(&a.confidence).expect("no NaN"));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_hash::Md5BloomHasher;
    use bbs_tdb::{FrequentPatternMiner, IoStats, NaiveMiner, SupportThreshold, TransactionDb};
    use std::sync::Arc;

    fn fixture() -> (Bbs, TransactionDb) {
        let itemsets: Vec<Itemset> = (0..60u32)
            .map(|i| {
                let mut v = vec![i % 12, (i + 1) % 12];
                if i % 2 == 0 {
                    v.push(100);
                    v.push(101);
                }
                Itemset::from_values(&v)
            })
            .collect();
        let db = TransactionDb::from_itemsets(itemsets);
        let mut io = IoStats::new();
        let bbs = Bbs::build(96, Arc::new(Md5BloomHasher::new(3)), &db, &mut io);
        (bbs, db)
    }

    #[test]
    fn phi_is_a_cdf() {
        assert!((phi(0.0) - 0.5).abs() < 1e-7);
        assert!(phi(5.0) > 0.999_999);
        assert!(phi(-5.0) < 1e-6);
        assert!((phi(1.96) - 0.975).abs() < 1e-3);
        let mut prev = 0.0;
        for i in -40..=40 {
            let v = phi(i as f64 / 10.0);
            assert!(v >= prev, "phi must be monotone");
            prev = v;
        }
    }

    #[test]
    fn corrected_support_basics() {
        // No chance coverage: corrected == est.
        assert_eq!(corrected_support(100, 30, 0.0), 30.0);
        // Saturated: fall back to est.
        assert_eq!(corrected_support(100, 100, 1.0), 100.0);
        // est entirely explainable by chance: corrected ~ 0.
        assert!(corrected_support(100, 10, 0.1) < 1.0);
        // Clamped to non-negative.
        assert!(corrected_support(100, 5, 0.2) >= 0.0);
    }

    #[test]
    fn confidence_zero_below_threshold() {
        assert_eq!(frequent_probability(100, 5, 0.01, 10), 0.0);
    }

    #[test]
    fn certified_patterns_have_confidence_one() {
        let (bbs, _) = fixture();
        let r = mine_approximate(&bbs, FilterKind::Dual, 20, 0.0);
        assert!(r.patterns.iter().any(|p| p.certified));
        for p in r.patterns.iter().filter(|p| p.certified) {
            assert_eq!(p.confidence, 1.0);
        }
    }

    #[test]
    fn approximate_set_covers_truth_and_scores_it_high() {
        let (bbs, db) = fixture();
        let tau = 20u64;
        let truth = NaiveMiner::new()
            .mine(&db, SupportThreshold::Count(tau))
            .patterns;
        let r = mine_approximate(&bbs, FilterKind::Single, tau, 0.0);
        // No false misses: every true pattern appears.
        for (items, _) in truth.iter() {
            let found = r
                .patterns
                .iter()
                .find(|p| &p.items == items)
                .unwrap_or_else(|| panic!("missing {items:?}"));
            assert!(
                found.confidence > 0.5,
                "true pattern {items:?} scored {}",
                found.confidence
            );
        }
    }

    #[test]
    fn min_confidence_filters() {
        let (bbs, _) = fixture();
        let all = mine_approximate(&bbs, FilterKind::Single, 20, 0.0);
        let strict = mine_approximate(&bbs, FilterKind::Single, 20, 0.9);
        assert!(strict.patterns.len() <= all.patterns.len());
        assert!(strict.patterns.iter().all(|p| p.confidence >= 0.9));
    }

    #[test]
    fn output_sorted_by_confidence() {
        let (bbs, _) = fixture();
        let r = mine_approximate(&bbs, FilterKind::Dual, 20, 0.0);
        for w in r.patterns.windows(2) {
            assert!(w[0].confidence >= w[1].confidence);
        }
    }

    #[test]
    fn densities_in_unit_interval() {
        let (bbs, _) = fixture();
        let d = slice_densities(&bbs);
        assert_eq!(d.len(), 96);
        assert!(d.iter().all(|&x| (0.0..=1.0).contains(&x)));
        // The index is non-trivial: some slice is in active use.
        assert!(d.iter().any(|&x| x > 0.1));
    }

    #[test]
    fn no_database_io_at_all() {
        let (bbs, _) = fixture();
        let r = mine_approximate(&bbs, FilterKind::Dual, 20, 0.5);
        assert_eq!(r.stats.io.db_scans, 0);
        assert_eq!(r.stats.io.db_probes, 0);
    }
}
