//! TID-range sharded deployments for the BBS index.
//!
//! One logical deployment is partitioned into N shards by TID residue
//! class ([`manifest::route`]); each shard is a complete single-shard
//! durable stack, so crash safety, recovery and fsck stay per-shard and
//! parallelize across shards.  Counting is scatter-gather — per-shard
//! `CountItemSet` answers **sum exactly** to the unsharded answer,
//! because a BBS estimate is a sum over rows and the shards partition
//! the rows (the paper's Lemmas 1–4 are additive over disjoint TID
//! partitions) — and mining deals candidate subtrees across workers
//! while every worker merges supports across all shards before
//! refinement.
//!
//! The shard boundary for counting is the [`ShardHandle`] trait seam:
//! the gather layer never assumes a shard is local.
//!
//! * [`manifest`] — the shard directory layout (`MANIFEST` + `shard-NNN`
//!   bases) and TID routing;
//! * [`handle`] — the shard-boundary trait and the local-files handle;
//! * [`gather`] — exact scatter-gather counting and the column sums;
//! * [`counter`] — the per-worker cross-shard [`bbs_core::CountSource`],
//!   with the scaled-τ running-total scheme;
//! * [`deployment`] — [`ShardedDeployment`]: create/open/append/flush/
//!   count/verify over a shard directory;
//! * [`mine`] — in-place sharded mining with the global support merge.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod counter;
pub mod deployment;
pub mod gather;
pub mod handle;
pub mod manifest;
pub mod mine;

pub use counter::{scaled_tau, ShardedCounter};
pub use deployment::{ShardVerify, ShardedDeployment};
pub use gather::{count_many_sharded, scatter, sum_columns, sum_item_counts};
pub use handle::{DiskShardHandle, ShardHandle};
pub use manifest::{route, shard_base, Manifest, MANIFEST_FILE, MANIFEST_VERSION, MAX_SHARDS};
pub use mine::mine_sharded;
