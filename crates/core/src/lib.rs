//! **BBS** — the Bit-Sliced Bloom-Filtered Signature File index and its
//! filter-and-refine frequent-pattern mining algorithms.
//!
//! This crate is the primary contribution of *"Efficient Indexing
//! Structures for Mining Frequent Patterns"* (Lan, Ooi & Tan, ICDE 2002):
//!
//! * [`bbs::Bbs`] — the index itself: per-transaction Bloom signatures
//!   stored slice-major, supporting incremental insertion, `CountItemSet`
//!   upper-bound support estimation, constraint slices and folding.
//! * [`filter`] — SingleFilter / DualFilter candidate generation with the
//!   CheckCount certainty logic (Lemma 5 / Corollary 1): one depth-first
//!   enumerator over a [`CountSource`], optionally integrated with
//!   database probing.
//! * [`cursor`] — the one [`CountSource`] over an index: a depth-first
//!   [`Cursor`] that keeps the enumeration prefix's AND-result per depth,
//!   reading slices page by page from any [`SliceSource`] — a loaded
//!   [`Bbs`] ([`Resident`]) here, the slice file in `bbs-storage`.
//! * [`view`] — [`mine_views`], every tier's MINE: filter and refine
//!   over any number of disjoint row partitions ([`MineView`]s), counting
//!   across them through [`counter`]'s cross-partition [`ShardedCounter`].
//! * [`refine`] — SequentialScan and Probe refinement.
//! * [`adaptive`] — the three-phase memory-constrained pipeline bounding
//!   I/O at two BBS passes.
//! * [`miners`] — the four algorithms SFS, SFP, DFS, DFP behind the
//!   workspace-wide [`bbs_tdb::FrequentPatternMiner`] trait.
//! * [`adhoc`] — exact counting of arbitrary (even non-frequent) patterns,
//!   with optional constraints.
//!
//! # Quick start
//!
//! ```
//! use bbs_core::{BbsMiner, Scheme};
//! use bbs_hash::Md5BloomHasher;
//! use bbs_tdb::{FrequentPatternMiner, Itemset, SupportThreshold, TransactionDb};
//! use std::sync::Arc;
//!
//! let db = TransactionDb::from_itemsets(vec![
//!     Itemset::from_values(&[1, 2, 3]),
//!     Itemset::from_values(&[1, 2]),
//!     Itemset::from_values(&[1, 2, 4]),
//! ]);
//! let mut miner = BbsMiner::build(Scheme::Dfp, &db, 64, Arc::new(Md5BloomHasher::new(4)));
//! let result = miner.mine(&db, SupportThreshold::Count(3));
//! assert_eq!(result.patterns.support(&Itemset::from_values(&[1, 2])), Some(3));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod adhoc;
pub mod bbs;
pub mod counter;
pub mod cursor;
pub mod filter;
pub mod miners;
pub mod refine;
pub mod tiered;
pub mod view;

pub use adaptive::{adaptive_filter, slices_for_budget};
pub use adhoc::AdhocEngine;
pub use bbs::Bbs;
pub use counter::{scaled_tau, ShardedCounter};
pub use cursor::{Cursor, CursorStats, Resident, SliceSource};
pub use filter::{
    run_filter, run_filter_source_threaded, run_filter_threaded, tally_subsets, CountSource,
    FilterKind, FilterOutput, Flag, EXACT,
};
pub use miners::{BbsMiner, RefineKind, Scheme};
pub use refine::{probe_candidates, probe_support, sequential_scan, RefineOutput};
pub use tiered::TieredBbs;
pub use view::{mine_views, scatter, sum_columns, sum_item_counts, MineView};
