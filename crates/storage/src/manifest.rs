//! The partition directory manifest.
//!
//! A deployment of N partitions is a *directory* holding one `MANIFEST`
//! file plus N ordinary one-partition deployments named `shard-000` …
//! `shard-NNN`.  The manifest records the partition count (the TID
//! routing modulus) and the target signature width (see
//! [`crate::deployment`] for what a target is) in a dependency-free
//! `key=value` text format.  It is written and fsynced at `create`, before
//! any partition files exist; only a finished width change rewrites it,
//! and never its partition count (resharding is a rewrite, not an edit).

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Name of the manifest file inside a partition directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// On-disk manifest format version this build reads and writes.
pub const MANIFEST_VERSION: u32 = 1;

/// Largest admissible shard count — the routing width of the directory
/// layout (`shard-NNN` bases are addressed with three digits, and a
/// TID-residue split past this fan-out has long stopped buying ingest
/// parallelism).
pub const MAX_SHARDS: usize = 1000;

/// The recorded parameters of a partition directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Manifest format version.
    pub version: u32,
    /// Number of shards (the TID routing modulus), ≥ 1.
    pub shards: usize,
    /// Target signature width in bits.  Per-partition estimates sum to
    /// the one-partition estimate when every partition is at this width,
    /// and to an upper bound of it while a width change is half done.
    pub width: usize,
}

impl Manifest {
    /// Path of the manifest file inside `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// True when `dir` is a partition directory (the manifest file
    /// exists) rather than a plain `<base>.*` deployment.
    pub fn exists(dir: &Path) -> bool {
        Self::path(dir).is_file()
    }

    /// Writes the manifest into `dir` and fsyncs it (the directory must
    /// already exist).  Refuses nonsense parameters.
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        if let Some(why) = self.nonsense() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
        }
        let body = format!(
            "version={}\nshards={}\nwidth={}\n",
            self.version, self.shards, self.width
        );
        let mut f = std::fs::File::create(Self::path(dir))?;
        f.write_all(body.as_bytes())?;
        f.sync_all()
    }

    /// Reads and validates the manifest of `dir`.
    pub fn read(dir: &Path) -> io::Result<Manifest> {
        let path = Self::path(dir);
        let mut body = String::new();
        std::fs::File::open(&path)?.read_to_string(&mut body)?;
        let bad = |what: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {what}", path.display()),
            )
        };
        let mut version = None;
        let mut shards = None;
        let mut width = None;
        for line in body.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| bad(&format!("malformed manifest line {line:?}")))?;
            let parsed: u64 = value
                .parse()
                .map_err(|_| bad(&format!("bad value for {key}: {value:?}")))?;
            match key {
                "version" => version = Some(parsed as u32),
                "shards" => shards = Some(parsed as usize),
                "width" => width = Some(parsed as usize),
                // Unknown keys are reserved for future versions.
                _ => {}
            }
        }
        let version = version.ok_or_else(|| bad("missing version"))?;
        if version != MANIFEST_VERSION {
            return Err(bad(&format!("unsupported manifest version {version}")));
        }
        let manifest = Manifest {
            version,
            shards: shards.ok_or_else(|| bad("missing shards"))?,
            width: width.ok_or_else(|| bad("missing width"))?,
        };
        match manifest.nonsense() {
            Some(why) => Err(bad(&why)),
            None => Ok(manifest),
        }
    }

    /// Why these parameters describe no directory, if they do not.
    fn nonsense(&self) -> Option<String> {
        if self.shards == 0 || self.width == 0 {
            Some("shards and width must be nonzero".to_string())
        } else if self.shards > MAX_SHARDS {
            Some(format!(
                "{} shards exceeds the routing width ({MAX_SHARDS} shards max)",
                self.shards
            ))
        } else {
            None
        }
    }
}

/// Deployment base path of shard `shard` inside `dir`: `dir/shard-NNN`.
pub fn shard_base(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}"))
}

/// Routes a transaction to its owning shard: the TID residue class
/// `tid mod shards`.  Deterministic and independent of arrival order, so
/// a retried batch lands on exactly the same shards and the per-shard
/// dedup windows make the retry exactly-once.
pub fn route(tid: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (tid % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bbs_manifest_{}_{}", std::process::id(), name));
        std::fs::create_dir_all(&p).expect("mkdir");
        p
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn round_trip_and_existence() {
        let d = dir("round_trip");
        let _g = Cleanup(d.clone());
        assert!(!Manifest::exists(&d));
        let m = Manifest {
            version: MANIFEST_VERSION,
            shards: 4,
            width: 1600,
        };
        m.write(&d).expect("write");
        assert!(Manifest::exists(&d));
        assert_eq!(Manifest::read(&d).expect("read"), m);
    }

    #[test]
    fn rejects_malformed_and_wrong_version() {
        let d = dir("malformed");
        let _g = Cleanup(d.clone());
        std::fs::write(Manifest::path(&d), "version=1\nshards=two\nwidth=64\n").unwrap();
        assert!(Manifest::read(&d).is_err());
        std::fs::write(Manifest::path(&d), "version=99\nshards=2\nwidth=64\n").unwrap();
        assert!(Manifest::read(&d).is_err());
        std::fs::write(Manifest::path(&d), "version=1\nwidth=64\n").unwrap();
        assert!(Manifest::read(&d).is_err());
        std::fs::write(Manifest::path(&d), "version=1\nshards=0\nwidth=64\n").unwrap();
        assert!(Manifest::read(&d).is_err());
        let zero = Manifest {
            version: MANIFEST_VERSION,
            shards: 0,
            width: 64,
        };
        assert!(zero.write(&d).is_err());
    }

    #[test]
    fn rejects_shard_counts_past_the_routing_width() {
        let d = dir("too_many");
        let _g = Cleanup(d.clone());
        let oversized = Manifest {
            version: MANIFEST_VERSION,
            shards: MAX_SHARDS + 1,
            width: 64,
        };
        let err = oversized.write(&d).expect_err("must reject oversized");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("routing width"), "{err}");
        // The cap itself is fine.
        let max = Manifest {
            version: MANIFEST_VERSION,
            shards: MAX_SHARDS,
            width: 64,
        };
        max.write(&d).expect("write at the cap");
        assert_eq!(Manifest::read(&d).expect("read").shards, MAX_SHARDS);
        // A hand-edited manifest claiming more shards is rejected on read.
        std::fs::write(
            Manifest::path(&d),
            format!("version=1\nshards={}\nwidth=64\n", MAX_SHARDS + 1),
        )
        .unwrap();
        let err = Manifest::read(&d).expect_err("read must reject oversized");
        assert!(err.to_string().contains("routing width"), "{err}");
    }

    #[test]
    fn routing_is_a_residue_class_partition() {
        for shards in 1..6usize {
            let mut seen = vec![0u64; shards];
            for tid in 0..1000u64 {
                let s = route(tid, shards);
                assert_eq!(s as u64, tid % shards as u64);
                seen[s] += 1;
            }
            assert_eq!(seen.iter().sum::<u64>(), 1000);
        }
        assert_eq!(shard_base(Path::new("/x"), 7), PathBuf::from("/x/shard-007"));
    }
}
