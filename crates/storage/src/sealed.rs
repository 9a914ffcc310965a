//! Sealed records: `body | fnv1a64(body)`, the one checksummed framing of
//! every small deployment file, and the one walk over a log of them.
//!
//! A fixed-size record (commit slot, dedup entry) or a whole small file
//! (counts file, swap marker) is a body followed by its eight-byte seal:
//! [`seal`] / [`sealed`] write it, [`unseal`] checks it.  The two
//! append-only logs (`.del`, `.log`) hold
//!
//! ```text
//! body_len u32 | body | fnv1a64(body) u64        body := seq u64 | …
//! ```
//!
//! back to back, each body opening with the commit sequence it belongs to.
//! A record is durable iff its commit landed (DESIGN.md §7, "The commit
//! ordering"); what the three readers of such a log do with that is here
//! once, generic over the record kind ([`LogRecord`]): [`recover`] (open),
//! [`read_committed`] (stateless streaming read) and [`scan`] (`bbs fsck`).

use crate::backend::StorageBackend;
use crate::pager::fnv1a64;
use std::io::{self, Read};
use std::path::Path;

const SEAL: usize = 8;

/// Fills the last eight bytes of `record` with the seal of the rest.
pub(crate) fn seal(record: &mut [u8]) {
    let (body, digest) = record.split_at_mut(record.len() - SEAL);
    digest.copy_from_slice(&fnv1a64(body).to_le_bytes());
}

/// `body` with its seal appended.
pub(crate) fn sealed(mut body: Vec<u8>) -> Vec<u8> {
    body.extend_from_slice(&[0; SEAL]);
    seal(&mut body);
    body
}

/// The body of `record`, when its last eight bytes are the body's seal.
pub(crate) fn unseal(record: &[u8]) -> Option<&[u8]> {
    let (body, digest) = record.split_at(record.len().checked_sub(SEAL)?);
    (digest == fnv1a64(body).to_le_bytes()).then_some(body)
}

/// One kind of length-prefixed sealed log record.
pub(crate) trait LogRecord: Sized {
    /// Hard cap on one body, so a corrupt length prefix cannot ask for an
    /// absurd allocation.
    const MAX_BODY: u32;
    /// What fsck calls the file (`"deletion log"`).
    const FILE: &'static str;
    /// What fsck calls one record of it (`"record"`).
    const RECORD: &'static str;

    /// Decodes an unsealed body into its commit sequence and payload;
    /// `None` on any structural inconsistency.
    fn decode(body: &[u8]) -> Option<(u64, Self)>;
}

/// Frames `body` as one log record: length prefix, body, seal.
pub(crate) fn frame(body: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + body.len() + SEAL);
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(body);
    buf.extend_from_slice(&[0; SEAL]);
    seal(&mut buf[4..]);
    buf
}

/// The records framed in `bytes`, front to back, up to the first that does
/// not fit (a torn tail): each one's start, its end, and its body when the
/// seal holds.
fn frames<K: LogRecord>(bytes: &[u8]) -> impl Iterator<Item = (usize, usize, Option<&[u8]>)> {
    let mut at = 0usize;
    std::iter::from_fn(move || {
        let len = u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().expect("4 bytes"));
        if len > K::MAX_BODY {
            return None;
        }
        let end = at + 4 + len as usize + SEAL;
        let item = (at, end, unseal(bytes.get(at + 4..end)?));
        at = end;
        Some(item)
    })
}

/// Opens a log: hands every record of the longest valid prefix stamped at
/// or before `committed_seq` to `keep` — which ends the prefix itself by
/// answering `false` — then truncates the file to what was kept and
/// returns that length, the append offset.
pub(crate) fn recover<K: LogRecord, B: StorageBackend>(
    backend: &mut B,
    committed_seq: u64,
    mut keep: impl FnMut(K) -> bool,
) -> io::Result<u64> {
    let len = backend.len()?;
    let mut bytes = vec![0u8; len as usize];
    backend.read_at(0, &mut bytes)?;
    let mut kept = 0u64;
    for (_, end, body) in frames::<K>(&bytes) {
        match body.and_then(K::decode) {
            Some((seq, record)) if seq <= committed_seq => {
                if !keep(record) {
                    break;
                }
                kept = end as u64;
            }
            _ => break,
        }
    }
    if kept != len {
        backend.set_len(kept)?;
        backend.sync()?;
    }
    Ok(kept)
}

/// Fills `buf` from `src`; `false` when the source ends first.
fn read_whole(src: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    match src.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// Streams the valid prefix of the log at `path` to `each`, one unsealed
/// body at a time, without any shared state: the read ends at the end of
/// the file (a missing one is empty), at a record that is torn or fails its
/// seal, at one stamped past `upto_seq`, or when `each` answers `false`.
/// Bodies are handed over undecoded so a reader can skip history by looking
/// at a header alone.
pub(crate) fn read_committed<K: LogRecord>(
    path: &Path,
    upto_seq: u64,
    mut each: impl FnMut(&[u8]) -> bool,
) -> io::Result<()> {
    let mut src = match std::fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let mut record = Vec::new();
    loop {
        let mut head = [0u8; 4];
        if !read_whole(&mut src, &mut head)? {
            return Ok(());
        }
        let len = u32::from_le_bytes(head);
        if len > K::MAX_BODY {
            return Ok(());
        }
        record.resize(len as usize + SEAL, 0);
        if !read_whole(&mut src, &mut record)? {
            return Ok(());
        }
        let committed = unseal(&record).filter(|body| {
            body.first_chunk()
                .is_some_and(|seq| u64::from_le_bytes(*seq) <= upto_seq)
        });
        match committed {
            Some(body) if each(body) => {}
            _ => return Ok(()),
        }
    }
}

/// Read-only integrity scan of raw log bytes, for `bbs fsck`.  A torn tail
/// and debris past the commit are normal (open truncates them, as it rolls
/// back uncommitted rows); reported is what open cannot heal: a corrupt
/// record strictly *inside* the committed stream — detectable because
/// valid committed records still follow it — and a committed record behind
/// debris.  `committed(seq, record)` says whether a decoded record lies
/// within the commit; `check(record, gap)` may name what is wrong with a
/// committed one, `gap` telling it a corrupt record was skipped just before.
pub(crate) fn scan<K: LogRecord>(
    bytes: &[u8],
    mut committed: impl FnMut(u64, &K) -> bool,
    mut check: impl FnMut(K, bool) -> Option<String>,
) -> Vec<String> {
    let (file, name) = (K::FILE, K::RECORD);
    let mut problems = Vec::new();
    let mut pending_corrupt: Option<usize> = None;
    let mut saw_debris = false;
    for (at, _, body) in frames::<K>(bytes) {
        let Some((seq, record)) = body.and_then(K::decode) else {
            // Possibly the torn record of the final flush — only a problem
            // if committed records turn out to follow it.
            pending_corrupt.get_or_insert(at);
            continue;
        };
        if !committed(seq, &record) {
            saw_debris = true;
            continue;
        }
        let gap = pending_corrupt.take();
        if let Some(corrupt) = gap {
            problems.push(format!(
                "{file}: corrupt {name} at byte {corrupt} inside the committed stream"
            ));
        }
        if std::mem::take(&mut saw_debris) {
            problems.push(format!(
                "{file}: committed {name} at byte {at} follows uncommitted debris"
            ));
        }
        if let Some(what) = check(record, gap.is_some()) {
            problems.push(format!("{file}: {name} at byte {at} {what}"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::del::{self, DelLog};
    use crate::replog::{self, ReplLog};
    use bbs_tdb::{Itemset, Transaction};

    /// Every record of the test logs is committed: stamped 1..=4, rows
    /// below 100.
    const SEQ: u64 = 4;
    const ROWS: u64 = 100;

    /// One instantiation of the walker, seen through the three callers its
    /// module builds on it.
    struct Kind {
        /// What fsck says of a corrupt record at byte `at` that committed
        /// records follow.
        corrupt: fn(usize) -> String,
        /// A log of four committed records, and where each one ends.
        build: fn() -> (Vec<u8>, Vec<usize>),
        /// Open over `bytes`: the length the file is truncated to and the
        /// state replayed from what was kept.
        open: fn(&[u8]) -> (u64, String),
        /// The stateless reader over the file at `path`.
        read: fn(&Path) -> String,
        /// The fsck scan.
        scan: fn(&[u8]) -> Vec<String>,
    }

    fn mem(bytes: &[u8]) -> MemBackend {
        let mut mem = MemBackend::new();
        mem.write_at(0, bytes).expect("write");
        mem
    }

    fn contents(mem: &mut MemBackend) -> Vec<u8> {
        let mut bytes = vec![0u8; mem.len().expect("len") as usize];
        mem.read_at(0, &mut bytes).expect("read");
        bytes
    }

    const DEL: Kind = Kind {
        corrupt: |at| {
            format!("deletion log: corrupt record at byte {at} inside the committed stream")
        },
        build: || {
            let (mut mem, mut ends) = (MemBackend::new(), Vec::new());
            for (seq, rows) in [
                (1, &[3u64][..]),
                (2, &[5, 70]),
                (3, &[9]),
                (4, &[11, 12, 3]),
            ] {
                let mut log = DelLog::open(&mut mem, seq - 1).expect("open");
                log.record_synced(seq, rows).expect("record");
                drop(log);
                ends.push(mem.len().expect("len") as usize);
            }
            (contents(&mut mem), ends)
        },
        open: |bytes| {
            let mut mem = mem(bytes);
            let state = format!("{:?}", DelLog::open(&mut mem, SEQ).expect("open").mask());
            (mem.len().expect("len"), state)
        },
        read: |path| format!("{:?}", del::read_deletions(path, SEQ).expect("read")),
        scan: |bytes| del::scan_del_problems(bytes, SEQ, ROWS),
    };

    const LOG: Kind = Kind {
        corrupt: |at| {
            format!("replication log: corrupt entry at byte {at} inside the committed stream")
        },
        build: || {
            let txn = |tid: u64| Transaction::new(tid, Itemset::from_values(&[tid as u32, 7]));
            let (mut mem, mut ends) = (MemBackend::new(), Vec::new());
            {
                let mut log = ReplLog::open(&mut mem, 0, 0).expect("open");
                log.append_synced(1, 0, &[txn(0), txn(1)], &[(9, 0, 2)], &[])
                    .expect("a");
                log.append_synced(2, 2, &[], &[(77, 0, 1)], &[0])
                    .expect("delete-only");
                log.append_synced(3, 2, &[txn(2)], &[], &[]).expect("c");
                log.append_synced(4, 3, &[txn(3), txn(4)], &[], &[1])
                    .expect("d");
            }
            let bytes = contents(&mut mem);
            let mut at = 0;
            while at < bytes.len() {
                at += 12 + u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4")) as usize;
                ends.push(at);
            }
            (bytes, ends)
        },
        open: |bytes| {
            let mut mem = mem(bytes);
            // The log's whole state, the truncated file included.
            let state = format!("{:?}", ReplLog::open(&mut mem, SEQ, ROWS).expect("open"));
            (mem.len().expect("len"), state)
        },
        read: |path| {
            let read = replog::read_entries(path, 0, 0, usize::MAX, usize::MAX, SEQ);
            format!("{:?}", read.expect("read"))
        },
        scan: |bytes| replog::scan_problems(bytes, SEQ, ROWS),
    };

    /// Truncate the log at every byte and flip every byte: open keeps
    /// exactly the records wholly before the damage and truncates the rest,
    /// the stateless reader returns the same prefix, the fsck scan reports
    /// only a corrupt record that committed records still follow — and
    /// nothing panics.
    fn walker_is_total(name: &str, kind: &Kind) {
        let (file, ends) = (kind.build)();
        assert_eq!(ends.len(), 4, "{name}");
        assert_eq!(ends[3], file.len(), "{name}");
        let path = std::env::temp_dir().join(format!("bbs_sealed_{}_{name}", std::process::id()));
        let read = |bytes: &[u8]| {
            std::fs::write(&path, bytes).expect("write");
            (kind.read)(&path)
        };
        // What each caller makes of the clean prefix of `k` records.
        let prefix_end = |k: usize| if k == 0 { 0 } else { ends[k - 1] };
        let clean: Vec<((u64, String), String)> = (0..=4)
            .map(|k| {
                (
                    (kind.open)(&file[..prefix_end(k)]),
                    read(&file[..prefix_end(k)]),
                )
            })
            .collect();
        for (k, ((kept, _), _)) in clean.iter().enumerate() {
            assert_eq!(
                *kept,
                prefix_end(k) as u64,
                "{name}: clean prefix {k} kept whole"
            );
        }
        assert_eq!((kind.scan)(&file), Vec::<String>::new(), "{name}");

        for cut in 0..file.len() {
            let k = ends.iter().filter(|&&end| end <= cut).count();
            let torn = &file[..cut];
            assert_eq!((kind.open)(torn), clean[k].0, "{name}: open, cut at {cut}");
            assert_eq!(read(torn), clean[k].1, "{name}: read, cut at {cut}");
            assert_eq!(
                (kind.scan)(torn),
                Vec::<String>::new(),
                "{name}: scan, cut at {cut}"
            );
        }
        for at in 0..file.len() {
            let k = ends.iter().filter(|&&end| end <= at).count();
            let mut flipped = file.clone();
            flipped[at] ^= 0xFF;
            assert_eq!(
                (kind.open)(&flipped),
                clean[k].0,
                "{name}: open, flip at {at}"
            );
            assert_eq!(read(&flipped), clean[k].1, "{name}: read, flip at {at}");
            // The damaged record starts where the clean prefix ends.  With
            // its length prefix intact the framing holds, so the scan sees
            // the committed records behind it — if there are any.
            let start = prefix_end(k);
            let line = (kind.corrupt)(start);
            let problems = (kind.scan)(&flipped);
            if at >= start + 4 {
                let expected = if k < 3 { vec![line] } else { Vec::new() };
                assert_eq!(problems, expected, "{name}: scan, flip at {at}");
            } else {
                assert!(
                    problems.iter().all(|p| *p == line),
                    "{name}: flip at {at}: {problems:?}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn walker_is_total_over_delete_records() {
        walker_is_total("del", &DEL);
    }

    #[test]
    fn walker_is_total_over_replication_entries() {
        walker_is_total("log", &LOG);
    }

    #[test]
    fn seals_hold_and_break() {
        let record = sealed(b"body".to_vec());
        assert_eq!(unseal(&record), Some(&b"body"[..]));
        assert_eq!(unseal(&sealed(Vec::new())), Some(&[][..]));
        for cut in 0..record.len() {
            assert_eq!(unseal(&record[..cut]), None, "cut at {cut}");
        }
        let mut in_place = *b"body\0\0\0\0\0\0\0\0";
        seal(&mut in_place);
        assert_eq!(in_place[..], record[..]);
    }
}
