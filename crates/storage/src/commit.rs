//! The deployment commit record: the single source of durability truth.
//!
//! A `<base>.commit` file holds two 64-byte slots written alternately
//! (ping-pong by sequence number), each self-validating:
//!
//! ```text
//! magic u64 | seq u64 | rows u64 | heap_tail u64 |
//! dat_digest u64 | idx_digest u64 | slices_digest u64 | fnv1a(first 56 B) u64
//! ```
//!
//! The magic names the format of the *whole deployment*.  `BBSCMT02` is
//! the current one: the paged files' checksum pages and the three digests
//! below are [`crate::pager::page_digest`] values.  `BBSCMT01` deployments
//! digested pages with FNV-1a; every one of their pages would fail
//! verification here, so a valid v1 slot is answered with the typed
//! [`FormatV1`] error — never mistaken for "no commit yet", which would
//! roll a populated deployment back to empty.
//!
//! The three digests pin down the committed content of the **boundary
//! pages** — the pages that later appends modify in place (the heap tail
//! page, the last positional-index entry page, and the slice pages of the
//! partially-filled boundary chunk).  Recovery reconstructs each boundary
//! page's committed bytes and checks them against these digests, so a
//! torn write is healed but a flipped bit inside committed data is
//! *detected*, never silently re-checksummed.
//!
//! A commit is the *last* thing the commit point writes (DESIGN.md §7, "The
//! commit ordering").  On open, the valid slot with the highest sequence
//! number defines the committed row count and heap tail; everything past
//! that boundary in the data files is, by definition, debris from an
//! interrupted flush, and is rolled back.  Because the slot being
//! overwritten is always the *older* one, a crash mid-commit-write (even a
//! torn one — the seal catches it) still leaves the previous commit intact.

use crate::backend::{FileBackend, StorageBackend};
use crate::sealed::{seal, unseal};
use std::io;
use std::path::Path;

const COMMIT_MAGIC: u64 = 0x4242_5343_4d54_3032; // "BBSCMT02"
/// The magic of format v1 (FNV-1a page digests): recognised, refused.
const COMMIT_MAGIC_V1: u64 = 0x4242_5343_4d54_3031; // "BBSCMT01"
const SLOT_SIZE: u64 = 64;

/// The deployment was written in format v1, whose page digests this
/// version cannot verify.  Wrapped inside an [`io::Error`] of kind
/// [`io::ErrorKind::InvalidData`]; retrieve it with [`format_v1`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FormatV1;

impl std::fmt::Display for FormatV1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("deployment is format v1 (FNV-1a page digests); rebuild with `bbs ingest`")
    }
}

impl std::error::Error for FormatV1 {}

/// Extracts the typed [`FormatV1`] from an I/O error, if that is what it
/// carries.
pub fn format_v1(e: &io::Error) -> Option<&FormatV1> {
    e.get_ref().and_then(|inner| inner.downcast_ref())
}

/// One decoded commit record.  The default is the empty state, before
/// any commit: no rows, and boundary digests all zero by convention.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Commit {
    /// Monotonic commit sequence number (first commit is 1).
    pub seq: u64,
    /// Committed transaction count (heap records == index rows).
    pub rows: u64,
    /// Committed heap-file data tail in bytes.
    pub heap_tail: u64,
    /// Digest of the committed heap boundary page (0 when `heap_tail` is
    /// 0).
    pub dat_digest: u64,
    /// Digest of the committed last index entry page (0 when `rows` is 0).
    pub idx_digest: u64,
    /// Chained digest of the committed boundary-chunk slice pages (0 when
    /// the row count is chunk-aligned).
    pub slices_digest: u64,
}

fn encode_slot(c: Commit) -> [u8; SLOT_SIZE as usize] {
    let mut buf = [0u8; SLOT_SIZE as usize];
    buf[0..8].copy_from_slice(&COMMIT_MAGIC.to_le_bytes());
    buf[8..16].copy_from_slice(&c.seq.to_le_bytes());
    buf[16..24].copy_from_slice(&c.rows.to_le_bytes());
    buf[24..32].copy_from_slice(&c.heap_tail.to_le_bytes());
    buf[32..40].copy_from_slice(&c.dat_digest.to_le_bytes());
    buf[40..48].copy_from_slice(&c.idx_digest.to_le_bytes());
    buf[48..56].copy_from_slice(&c.slices_digest.to_le_bytes());
    seal(&mut buf);
    buf
}

/// Decodes one slot: `Ok(None)` for anything that does not validate (a
/// torn or never-written slot), [`FormatV1`] for a valid slot of the old
/// format.
fn parse_slot(buf: &[u8]) -> io::Result<Option<Commit>> {
    let Some(body) = buf.get(..SLOT_SIZE as usize).and_then(unseal) else {
        return Ok(None);
    };
    let word = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes"));
    match word(0) {
        COMMIT_MAGIC => Ok(Some(Commit {
            seq: word(8),
            rows: word(16),
            heap_tail: word(24),
            dat_digest: word(32),
            idx_digest: word(40),
            slices_digest: word(48),
        })),
        COMMIT_MAGIC_V1 => Err(io::Error::new(io::ErrorKind::InvalidData, FormatV1)),
        _ => Ok(None),
    }
}

/// Decodes the winning (highest-sequence valid) commit from raw file
/// bytes.  Used by both `CommitFile` and the read-only verifier.
pub(crate) fn latest_commit(bytes: &[u8]) -> io::Result<Option<Commit>> {
    let a = parse_slot(bytes)?;
    let b = parse_slot(&bytes[bytes.len().min(SLOT_SIZE as usize)..])?;
    Ok(match (a, b) {
        (Some(a), Some(b)) => Some(if a.seq >= b.seq { a } else { b }),
        (a, b) => a.or(b),
    })
}

/// Refuses a format-v1 deployment by looking at its commit file alone,
/// read-only — for the open paths, which create and repair files and so
/// must check *before* they touch anything.  An absent file passes.
pub(crate) fn refuse_format_v1(commit_path: &Path) -> io::Result<()> {
    match std::fs::read(commit_path) {
        Ok(bytes) => latest_commit(&bytes).map(|_| ()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Writes `c` verbatim — including its explicit `seq` — into the
/// ping-pong slot that sequence number owns.  Offline maintenance (the
/// fold path) uses this to stage a fresh commit file whose single slot
/// carries the successor sequence of the live deployment's commit.
pub(crate) fn write_explicit<B: StorageBackend>(backend: &mut B, c: Commit) -> io::Result<()> {
    backend.write_at((c.seq % 2) * SLOT_SIZE, &encode_slot(c))?;
    backend.sync()
}

/// The two-slot commit file of one deployment.
pub(crate) struct CommitFile<B: StorageBackend = FileBackend> {
    backend: B,
    last: Option<Commit>,
}

impl<B: StorageBackend> CommitFile<B> {
    /// Wraps a backend, decoding the current commit (if any).
    pub fn new(mut backend: B) -> io::Result<Self> {
        let len = backend.len()?.min(2 * SLOT_SIZE);
        let mut bytes = vec![0u8; len as usize];
        backend.read_at(0, &mut bytes)?;
        let last = latest_commit(&bytes)?;
        Ok(CommitFile { backend, last })
    }

    /// The current commit, if one has ever completed.
    pub fn last(&self) -> Option<Commit> {
        self.last
    }

    /// The sequence number the next successful commit will take.
    pub fn next_seq(&self) -> u64 {
        self.last.map_or(0, |c| c.seq) + 1
    }

    /// Durably records a new commit point.
    ///
    /// Must only be called after the data files have been flushed and
    /// synced; the write goes to the slot *not* holding the current
    /// commit, then the file is synced.
    pub fn commit(&mut self, next: Commit) -> io::Result<()> {
        let record = Commit {
            seq: self.next_seq(),
            ..next
        };
        write_explicit(&mut self.backend, record)?;
        self.last = Some(record);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn empty_file_has_no_commit() {
        let c = CommitFile::new(MemBackend::new()).expect("new");
        assert_eq!(c.last(), None);
    }

    fn record(rows: u64, heap_tail: u64) -> Commit {
        Commit {
            seq: 0,
            rows,
            heap_tail,
            dat_digest: 0xD,
            idx_digest: 0x1,
            slices_digest: 0x5,
        }
    }

    #[test]
    fn commits_alternate_slots_and_survive_reopen() {
        let mut mem = MemBackend::new();
        {
            let mut c = CommitFile::new(&mut mem).expect("new");
            c.commit(record(10, 1000)).expect("commit");
            c.commit(record(20, 2000)).expect("commit");
        }
        let c = CommitFile::new(&mut mem).expect("reopen");
        let last = c.last().expect("present");
        assert_eq!((last.seq, last.rows, last.heap_tail), (2, 20, 2000));
    }

    #[test]
    fn torn_commit_write_falls_back_to_previous() {
        let mut mem = MemBackend::new();
        {
            let mut c = CommitFile::new(&mut mem).expect("new");
            c.commit(record(10, 1000)).expect("commit");
        }
        // Hand-tear the next commit: seq 2 goes to slot 0; write only a
        // 17-byte prefix of it.
        let next = encode_slot(Commit {
            seq: 2,
            ..record(99, 9999)
        });
        mem.write_at(0, &next[..17]).expect("torn write");
        let c = CommitFile::new(&mut mem).expect("reopen");
        let last = c.last().expect("previous commit survives");
        assert_eq!((last.seq, last.rows), (1, 10));
    }

    #[test]
    fn bit_flip_invalidates_a_slot() {
        let mut mem = MemBackend::new();
        {
            let mut c = CommitFile::new(&mut mem).expect("new");
            c.commit(record(10, 1000)).expect("commit");
        }
        let mut b = [0u8; 1];
        mem.read_at(SLOT_SIZE + 20, &mut b).expect("read");
        b[0] ^= 1;
        mem.write_at(SLOT_SIZE + 20, &b).expect("write");
        let c = CommitFile::new(&mut mem).expect("reopen");
        assert_eq!(c.last(), None, "corrupt slot must not validate");
    }
}
