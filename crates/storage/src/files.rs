//! The file table: the one list of files a deployment at `<base>` is made
//! of (DESIGN.md §7, "The file table").  The path and backend structs, the
//! tags a [`crate::BackendFactory`] sees, the order files are created and
//! swapped in and `remove_files` are all generated from it, so a file joins
//! every one of them or none.

use std::io;
use std::path::{Path, PathBuf};

/// One file of the table.
pub(crate) struct TableFile {
    /// The file's extension, which is also its backend tag and the name a
    /// swap marker records it under.
    pub ext: &'static str,
    /// The [`crate::SwapHook`] label of the step that renamed it.
    pub renamed: &'static str,
}

impl TableFile {
    /// This file of the deployment at `base`.
    pub fn at(&self, base: &Path) -> PathBuf {
        base.with_extension(self.ext)
    }
}

/// A row is `extension "what the file holds"`; the extension doubles as
/// the field name.
macro_rules! deployment_files {
    ($($file:ident $doc:literal,)*) => {
        /// The backing files of a deployment at `<base>`.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct DeploymentPaths {
            $(#[doc = concat!($doc, " (`<base>.", stringify!($file), "`).")]
            pub $file: PathBuf,)*
        }

        /// Computes the file paths a deployment at `base` uses.
        pub fn deployment_paths(base: &Path) -> DeploymentPaths {
            DeploymentPaths {
                $($file: base.with_extension(stringify!($file)),)*
            }
        }

        /// Explicit backends for each deployment file — how tests interpose
        /// a [`crate::backend::FaultInjector`] on every physical operation.
        pub struct DeploymentBackends<B> {
            $(#[doc = concat!("Backend for `<base>.", stringify!($file), "`.")]
            pub $file: B,)*
        }

        impl<B> DeploymentBackends<B> {
            /// Opens every file of the deployment at `base` through
            /// `open(tag, path)`, in table order.
            pub fn open(
                base: &Path,
                mut open: impl FnMut(&'static str, &Path) -> io::Result<B>,
            ) -> io::Result<Self> {
                let paths = deployment_paths(base);
                Ok(DeploymentBackends {
                    $($file: open(stringify!($file), &paths.$file)?,)*
                })
            }
        }

        /// Every deployment file, in table order.
        pub(crate) const FILES: &[TableFile] = &[$(TableFile {
            ext: stringify!($file),
            renamed: concat!("rename-", stringify!($file)),
        },)*];
    };
}

// The commit record heads the table: it is created first, so that a crash
// during any later step of an open leaves an (empty) commit record rather
// than something resembling a legacy deployment, and swapped last.
deployment_files! {
    commit "Commit record",
    dat "Heap-file records",
    idx "Heap-file positional index",
    slices "BBS slice file",
    counts "Persisted 1-itemset counts",
    dedup "Exactly-once request-ID dedup window",
    log "Replication log of committed batches",
    del "Tombstone deletion log",
}

/// The table in the order a maintenance swap renames: the commit record
/// last.
pub(crate) fn swap_order() -> impl Iterator<Item = &'static TableFile> {
    FILES[1..].iter().chain(&FILES[..1])
}

/// Removes every file of the deployment at `base` that exists.
pub(crate) fn remove_files(base: &Path) {
    for file in FILES {
        std::fs::remove_file(file.at(base)).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendFactory, DiskDeployment, DynBackend, FileBackend, SharedDeployment};
    use bbs_hash::Md5BloomHasher;
    use bbs_tdb::{Itemset, Transaction};
    use std::os::unix::fs::MetadataExt;
    use std::sync::{Arc, Mutex};

    /// The files in `dir`, by name, with their inode numbers.
    fn listing(dir: &Path) -> Vec<(String, u64)> {
        let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
            .expect("read_dir")
            .map(|e| e.expect("entry"))
            .map(|e| {
                let ino = e.metadata().expect("stat").ino();
                (e.file_name().to_string_lossy().into_owned(), ino)
            })
            .collect();
        files.sort();
        files
    }

    /// Every file of the table — and no other — is created by open, reaches
    /// the factory under its tag, is renamed by a compaction swap and is
    /// gone after `remove_files`: a file cannot join one list and miss
    /// another.
    #[test]
    fn the_table_is_closed() {
        let dir = std::env::temp_dir().join(format!("bbs_files_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let base = dir.join("dep");
        let hasher = || Arc::new(Md5BloomHasher::new(3)) as Arc<dyn bbs_hash::ItemHasher>;
        let mut expected: Vec<String> = FILES.iter().map(|f| format!("dep.{}", f.ext)).collect();
        expected.sort();

        let tags = Arc::new(Mutex::new(Vec::new()));
        let factory: BackendFactory = {
            let (tags, base) = (Arc::clone(&tags), base.clone());
            Arc::new(move |tag, path| {
                assert_eq!(
                    path,
                    base.with_extension(tag),
                    "tag {tag} names its own file"
                );
                tags.lock().expect("tags").push(tag);
                Ok(Box::new(FileBackend::open(path)?) as DynBackend)
            })
        };
        let shared =
            SharedDeployment::open_with_factory(&base, 32, hasher(), 16, factory).expect("open");
        let rows: Vec<Transaction> = (0..8)
            .map(|i| Transaction::new(i, Itemset::from_values(&[i as u32 % 3, 7])))
            .collect();
        shared.commit(&rows).expect("commit");
        shared.delete_rows(&[2], &[(5, 1)]).expect("delete");
        drop(shared);
        let opened: Vec<&str> = FILES.iter().map(|f| f.ext).collect();
        assert_eq!(
            *tags.lock().expect("tags"),
            opened,
            "one factory call a file"
        );
        let before = listing(&dir);
        let names = |files: &[(String, u64)]| -> Vec<String> {
            files.iter().map(|(name, _)| name.clone()).collect()
        };
        assert_eq!(names(&before), expected, "open created the table, no more");

        let mut steps = Vec::new();
        crate::compact_deployment_hooked(&base, 32, hasher(), None, 16, &mut |step| {
            steps.push(step);
            Ok(())
        })
        .expect("compact");
        let mut swapped = vec!["build", "marker"];
        swapped.extend(swap_order().map(|f| f.renamed));
        swapped.push("unmark");
        assert_eq!(steps, swapped);
        assert_eq!(
            swapped[swapped.len() - 2],
            "rename-commit",
            "commit record last"
        );
        let after = listing(&dir);
        assert_eq!(names(&after), expected, "the swap left the table, no more");
        for ((name, old), (_, new)) in before.iter().zip(&after) {
            assert_ne!(old, new, "{name} was not replaced by the swap");
        }

        DiskDeployment::remove_files(&base).expect("remove");
        assert_eq!(listing(&dir), [], "remove_files left something behind");
        std::fs::remove_dir(&dir).expect("rmdir");
    }
}
