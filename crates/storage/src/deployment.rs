//! A deployment of one or more partitions — what every offline command
//! opens.  A plain `<base>.*` deployment is one partition; a directory
//! holding a [`Manifest`] and `shard-NNN.*` bases is N, split by TID
//! residue class ([`route`]).  Every partition (shard) is a complete
//! [`DiskDeployment`], so recovery, flushing and verifying stay per
//! partition and run in parallel; mining is [`crate::mine_deployment`].
//!
//! Each partition opens at the width its own slice-file header holds, as
//! the served open does.  The MANIFEST width is a *target*: new partitions
//! are laid out at it, [`Deployment::verify`] names a partition at any
//! other width, and [`Deployment::compact`] moves partitions to it.  So a
//! width change interrupted between partitions opens and mines: each
//! partition's estimate bounds its own rows' support from above at any
//! width, so their sum bounds the support, and refinement keeps every
//! pattern exact.

use crate::diskbbs::{deployment_paths, DiskDeployment, VerifyReport};
use crate::maintain::{compact_deployment, fold_deployment, MaintainReport};
use crate::manifest::{route, shard_base, Manifest, MANIFEST_VERSION};
use crate::slicefile::header_width;
use bbs_core::{scatter, sum_columns};
use bbs_hash::ItemHasher;
use bbs_tdb::{Itemset, Transaction};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The width a deployment is laid out at when nothing names one: the
/// paper's m = 1600.
pub const DEFAULT_WIDTH: usize = 1600;

/// One partition's fsck outcome (see [`Deployment::verify`]).
#[derive(Debug)]
pub struct ShardVerify {
    /// Partition ordinal.
    pub shard: usize,
    /// The single-deployment integrity report.
    pub report: VerifyReport,
}

/// A deployment: one plain base, or the N partitions of a directory.
pub struct Deployment {
    shards: Vec<DiskDeployment>,
}

impl Deployment {
    /// Creates a new partition directory at `dir` with `shards` empty
    /// partitions at `width` (the directory is created if needed; an
    /// existing manifest is never overwritten).
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

    /// True when `path` is a partition directory (its manifest exists).
    pub fn is_sharded(path: &Path) -> bool {
        Manifest::exists(path)
    }

    /// Opens the deployment at `path`, running each partition's crash
    /// recovery in parallel (per-partition commit records make the
    /// recoveries independent).  A path with neither a manifest nor a
    /// commit record is refused, and nothing is created there.
    pub fn open(path: &Path, hasher: Arc<dyn ItemHasher>, cache_pages: usize) -> io::Result<Self> {
        let (manifest, bases) = locate(path)?;
        let width = manifest.map_or(DEFAULT_WIDTH, |m| m.width);
        let shards = scatter(&bases, |_, base| {
            DiskDeployment::open_adopting(base, width, Arc::clone(&hasher), cache_pages)
        })?;
        Ok(Deployment { shards })
    }

    /// [`Deployment::open`], except that a path where no deployment is
    /// becomes a plain base laid out at `width`.
    pub fn open_or_create(
        path: &Path,
        width: usize,
        hasher: Arc<dyn ItemHasher>,
        cache_pages: usize,
    ) -> io::Result<Self> {
        if Manifest::exists(path) || deployment_paths(path).commit.exists() {
            return Self::open(path, hasher, cache_pages);
        }
        let plain = DiskDeployment::open(path, width, hasher, cache_pages)?;
        Ok(Deployment {
            shards: vec![plain],
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

    /// Number of partitions (the routing modulus).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Refuses the deployment unless every partition's slice file is at
    /// `width`, when one is given.
    pub fn check_width(&self, width: Option<usize>) -> io::Result<()> {
        let Some(width) = width else { return Ok(()) };
        match self.shards.iter().map(|s| s.index.width()).find(|&w| w != width) {
            Some(stored) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("slice file width {stored} != requested {width}"),
            )),
            None => Ok(()),
        }
    }

    /// The partitions, in shard order.
    pub fn shards(&self) -> &[DiskDeployment] {
        &self.shards
    }

    /// Mutable access to the partitions (mining and the tests use this;
    /// routing invariants are the caller's problem).
    pub fn shards_mut(&mut self) -> &mut [DiskDeployment] {
        &mut self.shards
    }

    /// Total rows across partitions.
    pub fn rows(&self) -> u64 {
        self.shards.iter().map(|s| s.db.len()).sum()
    }

    /// Rows across partitions that are not tombstoned.
    pub fn live_rows(&self) -> u64 {
        self.shards.iter().map(|s| s.live_rows()).sum()
    }

    /// Committed rows per partition, in shard order.
    pub fn shard_rows(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.db.len()).collect()
    }

    /// Appends one transaction to its owning partition (TID routing).
    /// Returns `(shard, per-shard row)`.
    pub fn append(&mut self, txn: &Transaction) -> io::Result<(usize, u64)> {
        let shard = route(txn.tid.0, self.shards.len());
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

    /// Commits every partition: the flushes (data pages, then the commit
    /// record) run in parallel — N independent fsync pipelines.
    pub fn flush(&mut self) -> io::Result<()> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|s| scope.spawn(move || s.flush()))
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("shard flush worker panicked"))
        })
    }

    /// Exact `CountItemSet` across partitions (`tau` changes nothing).
    pub fn count(&self, items: &Itemset, tau: Option<u64>) -> io::Result<u64> {
        Ok(self.count_many(std::slice::from_ref(items), tau)?[0])
    }

    /// Batched exact `CountItemSet`: each partition's naive AND
    /// ([`crate::DiskBbs::count_itemsets`]), summed.  An exact answer
    /// meets the early-exit contract whatever `tau` is, so it changes
    /// nothing.
    pub fn count_many(&self, itemsets: &[Itemset], _tau: Option<u64>) -> io::Result<Vec<u64>> {
        let per = self
            .shards
            .iter()
            .map(|s| s.index.count_itemsets(itemsets, None))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(sum_columns(&per, itemsets.len()))
    }

    /// Read-only integrity check of every partition, in parallel — the
    /// engine behind `bbs fsck`.  Reports come back in shard order;
    /// corruption is reported, never repaired.  In a directory, a
    /// partition whose files cannot even be opened (missing or renamed
    /// `shard-NNN.*` pieces) is reported **dirty** with the failure as a
    /// structural problem — one broken partition must not abort the check
    /// of the others — and so is one whose slice file is not at the
    /// `MANIFEST` width, with the compaction that finishes the change.
    pub fn verify(path: &Path) -> io::Result<Vec<ShardVerify>> {
        let (manifest, bases) = layout(path)?;
        scatter(&bases, |shard, base| {
            let mut report = match (DiskDeployment::verify(base), manifest) {
                (Ok(report), _) => report,
                (Err(e), None) => return Err(e),
                (Err(e), Some(_)) => VerifyReport {
                    problems: vec![format!("{}: verify failed: {e}", base.display())],
                    ..VerifyReport::default()
                },
            };
            if let Some(manifest) = manifest {
                let slices = deployment_paths(base).slices;
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
            }
            Ok(ShardVerify { shard, report })
        })
    }

    /// Offline maintenance of every partition, one after another, each
    /// behind the atomic epoch-swap protocol: rewrite it without its
    /// tombstoned rows at `width` — by default the MANIFEST width, which
    /// also finishes a half-done width change, or a plain base's own — or,
    /// with `fold`, halve its own width in place.  Returns one report per
    /// partition, and the MANIFEST's new width when the run moved it:
    /// only once every partition ends at one width.
    pub fn compact(
        path: &Path,
        width: Option<usize>,
        fold: bool,
        hasher: Arc<dyn ItemHasher>,
        cache_pages: usize,
    ) -> io::Result<(Vec<MaintainReport>, Option<usize>)> {
        let (manifest, bases) = locate(path)?;
        let target = width.or(manifest.map(|m| m.width));
        let mut reports = Vec::with_capacity(bases.len());
        for base in &bases {
            let report = if fold {
                fold_deployment(base, Arc::clone(&hasher), cache_pages)
            } else {
                let hint = target.unwrap_or(DEFAULT_WIDTH);
                compact_deployment(base, hint, Arc::clone(&hasher), target, cache_pages)
            };
            reports.push(report.map_err(|e| {
                io::Error::new(e.kind(), format!("{}: {e}", base.display()))
            })?);
        }
        let width = reports[0].width;
        match manifest {
            Some(mut m) if m.width != width && reports.iter().all(|r| r.width == width) => {
                m.width = width;
                m.write(path)?;
                Ok((reports, Some(width)))
            }
            _ => Ok((reports, None)),
        }
    }
}

/// The manifest at `path`, if it is a directory, and its partitions'
/// base paths: `shard-NNN` under a directory, else `path` itself.
fn layout(path: &Path) -> io::Result<(Option<Manifest>, Vec<PathBuf>)> {
    if !Manifest::exists(path) {
        return Ok((None, vec![path.to_path_buf()]));
    }
    let manifest = Manifest::read(path)?;
    let bases = (0..manifest.shards).map(|i| shard_base(path, i)).collect();
    Ok((Some(manifest), bases))
}

/// [`layout`] of a deployment that must already exist: a path with
/// neither a manifest nor a commit record is refused, so that nothing
/// opening or maintaining it creates one from nothing.
fn locate(path: &Path) -> io::Result<(Option<Manifest>, Vec<PathBuf>)> {
    let (manifest, bases) = layout(path)?;
    let commit = deployment_paths(path).commit;
    if manifest.is_none() && !commit.exists() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "no deployment at {} (missing {})",
                path.display(),
                commit.display()
            ),
        ));
    }
    Ok((manifest, bases))
}
