//! A sharded deployment: one logical deployment partitioned into N
//! single-shard [`DiskDeployment`] stacks by TID residue class.
//!
//! Every shard owns its *full* durable stack — pager, page cache, commit
//! record, dedup window, replication log — so the crash-safety argument
//! is unchanged per shard (each shard independently rolls back to its own
//! committed prefix on open), and opening, flushing, verifying and
//! refining all parallelize across shards.  The shard directory layout
//! and routing live in [`crate::manifest`]; counting goes through the
//! scatter-gather layer of [`crate::gather`].

use crate::gather;
use crate::handle::DiskShardHandle;
use crate::manifest::{route, shard_base, Manifest, MANIFEST_VERSION};
use bbs_hash::ItemHasher;
use bbs_storage::diskbbs::{deployment_paths, DiskDeployment, VerifyReport};
use bbs_storage::slicefile::header_width;
use bbs_tdb::{Itemset, Transaction};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One shard's fsck outcome (see [`ShardedDeployment::verify`]).
#[derive(Debug)]
pub struct ShardVerify {
    /// Shard ordinal.
    pub shard: usize,
    /// The shard's deployment base path (`dir/shard-NNN`).
    pub base: PathBuf,
    /// The single-deployment integrity report.
    pub report: VerifyReport,
}

/// A TID-partitioned deployment over a shard directory.
pub struct ShardedDeployment {
    dir: PathBuf,
    manifest: Manifest,
    shards: Vec<DiskDeployment>,
}

impl ShardedDeployment {
    /// Creates a new sharded deployment at `dir` (the directory is
    /// created if needed; refuses to overwrite an existing manifest).
    pub fn create(
        dir: &Path,
        shards: usize,
        width: usize,
        hasher: Arc<dyn ItemHasher>,
        cache_pages: usize,
    ) -> io::Result<Self> {
        if Manifest::exists(dir) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{}: sharded deployment already exists", dir.display()),
            ));
        }
        std::fs::create_dir_all(dir)?;
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            shards,
            width,
        };
        manifest.write(dir)?;
        Self::open(dir, hasher, cache_pages)
    }

    /// True when `dir` is a sharded deployment (its manifest exists).
    pub fn is_sharded(dir: &Path) -> bool {
        Manifest::exists(dir)
    }

    /// Opens a sharded deployment, running each shard's crash recovery
    /// in parallel (per-shard commit records make the shards' recoveries
    /// fully independent).
    pub fn open(dir: &Path, hasher: Arc<dyn ItemHasher>, cache_pages: usize) -> io::Result<Self> {
        let manifest = Manifest::read(dir)?;
        let indices: Vec<usize> = (0..manifest.shards).collect();
        let shards = gather::scatter(&indices, |_, &i| {
            DiskDeployment::open(
                &shard_base(dir, i),
                manifest.width,
                Arc::clone(&hasher),
                cache_pages,
            )
        })?;
        Ok(ShardedDeployment {
            dir: dir.to_path_buf(),
            manifest,
            shards,
        })
    }

    /// Deletes every shard's files, the manifest, and the directory
    /// itself if it is then empty.
    pub fn remove_files(dir: &Path) -> io::Result<()> {
        if let Ok(manifest) = Manifest::read(dir) {
            for i in 0..manifest.shards {
                DiskDeployment::remove_files(&shard_base(dir, i)).ok();
            }
        }
        std::fs::remove_file(Manifest::path(dir)).ok();
        std::fs::remove_dir(dir).ok();
        Ok(())
    }

    /// The shard directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of shards (the routing modulus).
    pub fn shard_count(&self) -> usize {
        self.manifest.shards
    }

    /// Signature width shared by every shard.
    pub fn width(&self) -> usize {
        self.manifest.width
    }

    /// The per-shard stacks, in shard order.
    pub fn shards(&self) -> &[DiskDeployment] {
        &self.shards
    }

    /// Mutable access to the per-shard stacks (mining and the tests use
    /// this; routing invariants are the caller's problem).
    pub fn shards_mut(&mut self) -> &mut [DiskDeployment] {
        &mut self.shards
    }

    /// Total rows across shards.
    pub fn rows(&self) -> u64 {
        self.shards.iter().map(|s| s.db.len()).sum()
    }

    /// Committed rows per shard, in shard order.
    pub fn shard_rows(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.db.len()).collect()
    }

    /// Appends one transaction to its owning shard (TID routing).
    /// Returns `(shard, per-shard row)`.
    pub fn append(&mut self, txn: &Transaction) -> io::Result<(usize, u64)> {
        let shard = route(txn.tid.0, self.manifest.shards);
        let row = self.shards[shard].append(txn)?;
        Ok((shard, row))
    }

    /// Appends a batch, routing each transaction, without flushing.
    pub fn append_batch(&mut self, txns: &[Transaction]) -> io::Result<u64> {
        for txn in txns {
            self.append(txn)?;
        }
        Ok(txns.len() as u64)
    }

    /// Commits every shard: the per-shard flushes (data pages, then the
    /// commit record) run in parallel — N independent fsync pipelines.
    pub fn flush(&mut self) -> io::Result<()> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|s| scope.spawn(move || s.flush()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard flush worker panicked"))
                .collect::<io::Result<Vec<()>>>()
        })?;
        Ok(())
    }

    /// Borrowed scatter handles over every shard, in shard order.
    fn handles(&self) -> Vec<DiskShardHandle<'_>> {
        self.shards
            .iter()
            .map(|s| DiskShardHandle::new(&s.index, s.db.len()))
            .collect()
    }

    /// Exact cross-shard `CountItemSet` (see
    /// [`gather::count_many_sharded`]: `tau` changes nothing).
    pub fn count(&self, items: &Itemset, tau: Option<u64>) -> io::Result<u64> {
        Ok(self.count_many(std::slice::from_ref(items), tau)?[0])
    }

    /// Batched exact cross-shard `CountItemSet`: the batch is dispatched
    /// to every shard's naive AND
    /// ([`bbs_storage::DiskBbs::count_itemsets`]) and the per-shard
    /// answers are summed (exactly — see [`crate::gather`]; `tau` changes
    /// nothing).
    pub fn count_many(&self, itemsets: &[Itemset], tau: Option<u64>) -> io::Result<Vec<u64>> {
        gather::count_many_sharded(&self.handles(), itemsets, tau)
    }

    /// Read-only integrity check of every shard, in parallel — the
    /// engine behind `bbs fsck` on a shard directory.  Reports are
    /// returned in shard order; corruption is reported, never repaired.
    /// A shard whose files cannot even be opened (missing or renamed
    /// `shard-NNN.*` pieces) is reported **dirty** with the failure as a
    /// structural problem — one broken shard must not abort the check of
    /// the other N−1.  So is a shard whose slice file is not at the
    /// `MANIFEST` width: its estimates would not sum with the others'.
    pub fn verify(dir: &Path) -> io::Result<Vec<ShardVerify>> {
        let manifest = Manifest::read(dir)?;
        let indices: Vec<usize> = (0..manifest.shards).collect();
        gather::scatter(&indices, |_, &i| {
            let base = shard_base(dir, i);
            let mut report = DiskDeployment::verify(&base).unwrap_or_else(|e| VerifyReport {
                problems: vec![format!("{}: verify failed: {e}", base.display())],
                ..VerifyReport::default()
            });
            let slices = deployment_paths(&base).slices;
            match header_width(&slices) {
                Ok(Some(width)) if width != manifest.width => report.problems.push(format!(
                    "{}: slice file width {width} != MANIFEST width {}; re-run \
                     `bbs compact --base {} --width {}`",
                    slices.display(),
                    manifest.width,
                    base.display(),
                    manifest.width
                )),
                Ok(_) => {}
                Err(e) => report
                    .problems
                    .push(format!("{}: width unreadable: {e}", slices.display())),
            }
            Ok(ShardVerify {
                shard: i,
                report,
                base,
            })
        })
    }
}
