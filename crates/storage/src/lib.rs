//! Durable storage for the BBS reproduction.
//!
//! The paper's structures are disk files: the database is scanned or probed
//! through a positional index, and the BBS itself "is stored as slices".
//! This crate provides that layer for real:
//!
//! * [`pager`] — fixed-size page I/O over a file, with physical counters;
//! * [`cache`] — a bounded LRU page cache (write-back, dirty eviction);
//! * [`bytes`] — byte-granular access spanning page boundaries;
//! * [`heapfile`] — the append-only transaction store + positional index
//!   (§3.2's probe index);
//! * [`slicefile`] — the chunk-major on-disk slice file: `CountItemSet`
//!   reads only the selected slices' pages;
//! * [`diskbbs`] — the durable index ([`DiskBbs`]) and a row-aligned
//!   database+index pair ([`DiskDeployment`]): append incrementally,
//!   survive restarts, load to memory to mine, or count in place through
//!   the cache;
//! * [`deployment`] — [`Deployment`], what every offline command opens:
//!   one plain base, or the TID-routed partitions of a directory named by
//!   its [`manifest`];
//! * [`snapshot`] — epoch-stamped snapshot isolation over a deployment:
//!   one group-committing writer, any number of immutable read snapshots
//!   (the storage substrate of the `bbs-server` daemon).
//! * [`backend`] — the physical-I/O abstraction ([`StorageBackend`]) every
//!   structure above is generic over, including the fault-injection
//!   backend the crash tests drive.
//!
//! # Crash safety
//!
//! Every page carries a word-parallel digest verified on read
//! ([`pager::page_digest`]), a
//! deployment's durability boundary is a checksummed commit record written
//! last ([`diskbbs`]), and opening a deployment rolls every file back to
//! exactly the committed state — torn or interrupted writes heal, flipped
//! bits surface as [`ChecksumMismatch`], never as data.
//! [`DiskDeployment::verify`] is the read-only integrity check behind
//! `bbs fsck`.
//!
//! The in-memory crates stay the mining substrate; this crate feeds them
//! ([`HeapFile::load`] → `TransactionDb`, [`DiskBbs::load`] → `Bbs`) and
//! makes the paper's persistence claims mechanically checkable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod bytes;
pub mod cache;
mod commit;
pub mod dedup;
pub mod del;
pub mod deployment;
pub mod diskbbs;
mod files;
pub mod heapfile;
pub mod maintain;
pub mod manifest;
pub mod mine;
pub mod pager;
pub mod replog;
mod sealed;
pub mod slicefile;
pub mod snapshot;

pub use bbs_core::CursorStats;
pub use backend::{
    disk_full_error, is_disk_full, BitFlip, CrashMode, DynBackend, FaultInjector, FaultPlan,
    FileBackend, MemBackend, SharedFaultPlan, StorageBackend, WriteFault,
};
pub use cache::{CacheStats, PageCache};
pub use commit::{format_v1, FormatV1};
pub use dedup::{DedupLog, DedupReceipt};
pub use del::{read_deletions, DeadMask, DelLog};
pub use deployment::{Deployment, ShardVerify, DEFAULT_WIDTH};
pub use diskbbs::{
    deployment_paths, DeploymentBackends, DeploymentPaths, DiskBbs, DiskCounter, DiskDeployment,
    PageCorruption, VerifyReport, DEFAULT_DEDUP_WINDOW,
};
pub use heapfile::HeapFile;
pub use maintain::{
    compact_deployment, compact_deployment_hooked, finish_pending_swap, fold_deployment,
    fold_deployment_hooked, MaintainReport, SwapHook,
};
pub use manifest::{route, shard_base, Manifest, MANIFEST_FILE, MANIFEST_VERSION, MAX_SHARDS};
pub use mine::{mine_deployment, mine_deployments, mine_in_place, DiskMineStats};
pub use pager::{
    checksum_mismatch, fnv1a64, page_digest, ChecksumMismatch, PageId, Pager, PagerStats,
    PAGE_SIZE,
};
pub use replog::{read_entries, ReplEntry, ReplLog, ReplRead};
pub use slicefile::{HotStats, SliceFile, CHUNK_ROWS};
pub use snapshot::{BackendFactory, CommitReceipt, SharedDeployment, Snapshot, WriterProfile};
