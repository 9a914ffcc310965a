//! Experiment harness for the BBS reproduction.
//!
//! Every figure of the paper's evaluation section has a matching function in
//! [`experiments`] and an entry in [`experiments::FIGURES`], the table the
//! `figures` binary runs from (`figures fig5`, `figures --all`, `figures
//! --list`).  It runs at the paper's parameter scale by default; pass
//! `--quick` (or set `BBS_PROFILE=quick`) for a proportionally scaled-down
//! run.  The `figures` bench target (`cargo bench -p bbs-bench`) runs the
//! whole table at quick scale; Criterion micro-benchmarks for the bit-slice
//! kernels live in `benches/kernels.rs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod profile;
pub mod table;

pub use experiments::timed;
pub use profile::Profile;
pub use table::Table;
