//! The old home of partitioned deployments, kept as a facade.
//!
//! A deployment of N TID-routed partitions is [`bbs_storage::Deployment`]
//! (re-exported here as [`ShardedDeployment`]), mined by
//! [`bbs_storage::mine_deployment`]; the manifest and routing live in
//! [`bbs_storage::manifest`], and [`scatter`] in `bbs_core`.  What stays
//! here is the offline gather layer: the [`ShardHandle`] seam and
//! [`count_many_sharded`], which sums exact per-shard counts.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gather;
pub mod handle;

pub use bbs_core::scatter;
pub use bbs_storage::deployment::{Deployment as ShardedDeployment, ShardVerify};
pub use bbs_storage::manifest::{
    route, shard_base, Manifest, MANIFEST_FILE, MANIFEST_VERSION, MAX_SHARDS,
};
pub use bbs_storage::mine::mine_deployment as mine_sharded;
pub use gather::count_many_sharded;
pub use handle::{DiskShardHandle, ShardHandle};
