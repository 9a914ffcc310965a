//! Physical I/O backends and fault injection.
//!
//! Every byte this crate durably stores flows through a [`StorageBackend`]:
//! positioned reads and writes, truncation, and sync.  Production code uses
//! [`FileBackend`]; tests wrap any backend in a [`FaultInjector`] that can
//! kill the process model at the Nth physical operation — cleanly, with a
//! short write, or with a torn (partial page) write — and flip bits on
//! read, so crash recovery and corruption detection are provable rather
//! than aspirational.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Positioned physical I/O over one file-like object.
///
/// Reads and writes are explicit about their offset (no cursor state), so a
/// backend is free to reorder, count, or sabotage individual operations.
#[allow(clippy::len_without_is_empty)] // `len` is fallible I/O, not a collection size
pub trait StorageBackend {
    /// Reads exactly `buf.len()` bytes starting at `offset`.
    ///
    /// Reading past the current end is an error (callers track extents).
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Writes all of `data` starting at `offset`, extending if needed.
    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()>;

    /// Current length in bytes.
    fn len(&mut self) -> io::Result<u64>;

    /// Truncates (or zero-extends) to exactly `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;

    /// Flushes buffers to stable storage.
    fn sync(&mut self) -> io::Result<()>;
}

impl<B: StorageBackend + ?Sized> StorageBackend for &mut B {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        (**self).read_at(offset, buf)
    }
    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        (**self).write_at(offset, data)
    }
    fn len(&mut self) -> io::Result<u64> {
        (**self).len()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        (**self).set_len(len)
    }
    fn sync(&mut self) -> io::Result<()> {
        (**self).sync()
    }
}

impl<B: StorageBackend + ?Sized> StorageBackend for Box<B> {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        (**self).read_at(offset, buf)
    }
    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        (**self).write_at(offset, data)
    }
    fn len(&mut self) -> io::Result<u64> {
        (**self).len()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        (**self).set_len(len)
    }
    fn sync(&mut self) -> io::Result<()> {
        (**self).sync()
    }
}

/// A backend erased to a trait object — what [`crate::snapshot`] threads
/// through the writer deployment so production (plain files) and chaos
/// tests (fault injectors) share one code path.
pub type DynBackend = Box<dyn StorageBackend + Send>;

/// The error an exhausted disk produces ([`io::ErrorKind::StorageFull`],
/// the kind `ENOSPC` maps to).  Injected faults and real kernel errors
/// classify identically through [`is_disk_full`].
pub fn disk_full_error() -> io::Error {
    io::Error::new(io::ErrorKind::StorageFull, "no space left on device")
}

/// Whether an I/O error means the disk is out of space — the condition the
/// server degrades on (typed `DiskFull` response, reads keep serving)
/// rather than treating as corruption.
pub fn is_disk_full(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::StorageFull
}

/// The production backend: a plain file.
#[derive(Debug)]
pub struct FileBackend {
    file: File,
}

impl FileBackend {
    /// Opens (creating if absent) the file at `path`.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(FileBackend { file })
    }

    /// A second handle on the **same open file** (a duplicated
    /// descriptor), whatever its path names by now: what a reader uses to
    /// keep reading a file that maintenance has since renamed another one
    /// over.  I/O is positional (`pread`/`pwrite`), so the handles share no
    /// cursor and may be used from different threads.
    pub fn try_clone(&self) -> io::Result<Self> {
        Ok(FileBackend {
            file: self.file.try_clone()?,
        })
    }
}

impl StorageBackend for FileBackend {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.file.read_exact_at(buf, offset)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.file.write_all_at(data, offset)
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// An in-memory backend (tests; no filesystem dependence).  Two are equal
/// when they hold the same bytes.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct MemBackend {
    bytes: Vec<u8>,
}

impl MemBackend {
    /// An empty in-memory file.
    pub fn new() -> Self {
        MemBackend::default()
    }
}

impl StorageBackend for MemBackend {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let start = offset as usize;
        let end = start + buf.len();
        if end > self.bytes.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "read past end of in-memory backend",
            ));
        }
        buf.copy_from_slice(&self.bytes[start..end]);
        Ok(())
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        let start = offset as usize;
        let end = start + data.len();
        if end > self.bytes.len() {
            self.bytes.resize(end, 0);
        }
        self.bytes[start..end].copy_from_slice(data);
        Ok(())
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.bytes.len() as u64)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.bytes.resize(len as usize, 0);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Test double: an in-memory file that counts the `write_at` calls it
/// receives — how the write-back tests see run coalescing.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct CountingBackend {
    pub mem: MemBackend,
    pub writes: u64,
}

#[cfg(test)]
impl StorageBackend for CountingBackend {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.mem.read_at(offset, buf)
    }
    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.writes += 1;
        self.mem.write_at(offset, data)
    }
    fn len(&mut self) -> io::Result<u64> {
        self.mem.len()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.mem.set_len(len)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.mem.sync()
    }
}

/// How an injected crash manifests at the fatal operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// The operation fails outright; nothing of it reaches the media.
    Fail,
    /// A write lands only its first sector (512 bytes) before failing.
    ShortWrite,
    /// A write lands an arbitrary prefix (half) before failing — the
    /// classic torn page.
    TornWrite,
}

/// A single bit to flip in read results (silent media corruption).
#[derive(Debug, Clone)]
pub struct BitFlip {
    /// Which file (the [`FaultInjector`]'s tag) to corrupt.
    pub tag: String,
    /// Byte offset within that file.
    pub offset: u64,
    /// Bit index within the byte (0..8).
    pub bit: u8,
}

/// A *transient* write fault: the targeted operation fails, but — unlike
/// a [`CrashMode`] crash — the backend stays alive afterwards, modelling
/// a disk that hiccups rather than a process that dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The write fails with [`disk_full_error`]; nothing reaches the media.
    DiskFull,
    /// The write lands only its first sector (512 bytes) then fails with
    /// an I/O error — a short write the caller must recover from.
    Short,
}

/// Shared fault schedule across every file of a deployment.
///
/// Physical operations are counted globally (in the order the storage
/// stack issues them); `crash_at = Some(n)` makes the `n`-th operation
/// (0-based) the fatal one, after which every further operation on every
/// tagged file fails — the process-death model.
///
/// Orthogonally, the plan carries two *recoverable* fault sources:
///
/// * a **disk-full toggle** ([`SharedFaultPlan::set_disk_full`]) — while
///   set, any write that would *extend* a file (and any extending
///   truncate) fails with [`disk_full_error`], while overwrites of
///   existing bytes, shrinking truncates, reads and syncs proceed:
///   the shape of a genuinely full filesystem, under which crash
///   recovery (rollback to the commit point) still works;
/// * **one-shot transient faults** ([`SharedFaultPlan::fail_write_at`]) —
///   the scheduled operation fails (short write or spurious ENOSPC) but
///   the backend keeps working afterwards.
#[derive(Debug)]
pub struct FaultPlan {
    ops: u64,
    crash_at: Option<u64>,
    mode: CrashMode,
    crashed: bool,
    flips: Vec<BitFlip>,
    disk_full: bool,
    transient: Vec<(u64, WriteFault)>,
}

impl FaultPlan {
    fn empty() -> FaultPlan {
        FaultPlan {
            ops: 0,
            crash_at: None,
            mode: CrashMode::Fail,
            crashed: false,
            flips: Vec::new(),
            disk_full: false,
            transient: Vec::new(),
        }
    }

    /// A plan with no scheduled faults (pure operation counting).
    pub fn counting() -> SharedFaultPlan {
        SharedFaultPlan(Arc::new(Mutex::new(FaultPlan::empty())))
    }

    /// A plan that crashes at physical operation `n` (0-based) with `mode`.
    pub fn crash_at(n: u64, mode: CrashMode) -> SharedFaultPlan {
        SharedFaultPlan(Arc::new(Mutex::new(FaultPlan {
            crash_at: Some(n),
            mode,
            ..FaultPlan::empty()
        })))
    }
}

/// Handle to a [`FaultPlan`] shared by all of a deployment's injectors.
#[derive(Debug, Clone)]
pub struct SharedFaultPlan(Arc<Mutex<FaultPlan>>);

impl SharedFaultPlan {
    /// Adds a bit flip applied to reads of `tag` at `offset`.
    pub fn flip_bit(&self, tag: &str, offset: u64, bit: u8) {
        self.0.lock().expect("fault plan lock").flips.push(BitFlip {
            tag: tag.to_string(),
            offset,
            bit,
        });
    }

    /// Physical operations observed so far.
    pub fn ops(&self) -> u64 {
        self.0.lock().expect("fault plan lock").ops
    }

    /// Whether the scheduled crash has fired.
    pub fn crashed(&self) -> bool {
        self.0.lock().expect("fault plan lock").crashed
    }

    /// Turns the disk-full condition on or off.  While on, extending
    /// writes and extending truncates fail with [`disk_full_error`];
    /// everything else proceeds.  Turning it off models space being
    /// freed — subsequent writes succeed again.
    pub fn set_disk_full(&self, full: bool) {
        self.0.lock().expect("fault plan lock").disk_full = full;
    }

    /// Whether the disk-full toggle is currently on.
    pub fn is_disk_full(&self) -> bool {
        self.0.lock().expect("fault plan lock").disk_full
    }

    /// Schedules a one-shot transient fault at physical operation `op`
    /// (0-based, global across all tagged files).  Only writes are
    /// affected; if operation `op` turns out to be a read/sync/truncate
    /// it proceeds normally and the fault is consumed.
    pub fn fail_write_at(&self, op: u64, fault: WriteFault) {
        self.0
            .lock()
            .expect("fault plan lock")
            .transient
            .push((op, fault));
    }

    /// Wraps a backend in an injector bound to this plan.
    pub fn wrap<B: StorageBackend>(&self, tag: &str, inner: B) -> FaultInjector<B> {
        FaultInjector {
            inner,
            plan: self.clone(),
            tag: tag.to_string(),
        }
    }
}

/// The error kind used for injected crashes (distinguishable in tests).
pub const INJECTED_CRASH: io::ErrorKind = io::ErrorKind::Other;

fn injected(what: &str) -> io::Error {
    io::Error::new(INJECTED_CRASH, format!("injected fault: {what}"))
}

/// A [`StorageBackend`] decorator that executes a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultInjector<B> {
    inner: B,
    plan: SharedFaultPlan,
    tag: String,
}

enum Verdict {
    Proceed,
    /// Crash now; for writes, land only this many bytes first.
    CrashAfter(usize),
    /// A scheduled one-shot fault: fail this write, stay alive after.
    Transient(WriteFault),
}

impl<B: StorageBackend> FaultInjector<B> {
    /// Counts one operation and decides its fate. `write_len` is the length
    /// of the pending write (0 for reads/truncates/syncs).
    fn gate(&mut self, write_len: usize) -> io::Result<Verdict> {
        let mut plan = self.plan.0.lock().expect("fault plan lock");
        if plan.crashed {
            return Err(injected("backend is down (post-crash)"));
        }
        let op = plan.ops;
        plan.ops += 1;
        if plan.crash_at == Some(op) {
            plan.crashed = true;
            let landed = match plan.mode {
                CrashMode::Fail => 0,
                CrashMode::ShortWrite => write_len.min(512),
                CrashMode::TornWrite => write_len / 2,
            };
            return Ok(Verdict::CrashAfter(landed));
        }
        if let Some(i) = plan.transient.iter().position(|&(at, _)| at == op) {
            let (_, fault) = plan.transient.swap_remove(i);
            return Ok(Verdict::Transient(fault));
        }
        Ok(Verdict::Proceed)
    }

    /// The disk-full gate for operations that would grow the file to
    /// `new_end` bytes: errors while the toggle is on and the file would
    /// actually extend.
    fn check_space(&mut self, new_end: u64) -> io::Result<()> {
        if self.plan.0.lock().expect("fault plan lock").disk_full
            && new_end > self.inner.len()?
        {
            return Err(disk_full_error());
        }
        Ok(())
    }

    fn apply_flips(&mut self, offset: u64, buf: &mut [u8]) {
        let plan = self.plan.0.lock().expect("fault plan lock");
        for flip in &plan.flips {
            if flip.tag == self.tag
                && flip.offset >= offset
                && flip.offset < offset + buf.len() as u64
            {
                buf[(flip.offset - offset) as usize] ^= 1 << (flip.bit & 7);
            }
        }
    }
}

impl<B: StorageBackend> StorageBackend for FaultInjector<B> {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        match self.gate(0)? {
            // Transient faults target writes; on a read the slot is
            // consumed and the read proceeds.
            Verdict::Proceed | Verdict::Transient(_) => {
                self.inner.read_at(offset, buf)?;
                self.apply_flips(offset, buf);
                Ok(())
            }
            Verdict::CrashAfter(_) => Err(injected("read failed")),
        }
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        match self.gate(data.len())? {
            Verdict::Proceed => {
                self.check_space(offset + data.len() as u64)?;
                self.inner.write_at(offset, data)
            }
            Verdict::Transient(WriteFault::DiskFull) => Err(disk_full_error()),
            Verdict::Transient(WriteFault::Short) => {
                let landed = data.len().min(512);
                if landed > 0 {
                    self.inner.write_at(offset, &data[..landed])?;
                }
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "injected transient fault: short write",
                ))
            }
            Verdict::CrashAfter(landed) => {
                if landed > 0 {
                    // The tear: a prefix reaches the media, the rest never does.
                    self.inner.write_at(offset, &data[..landed])?;
                }
                Err(injected("write failed mid-flight"))
            }
        }
    }

    fn len(&mut self) -> io::Result<u64> {
        // Length queries are metadata, not media operations: not counted.
        let crashed = self.plan.0.lock().expect("fault plan lock").crashed;
        if crashed {
            return Err(injected("backend is down (post-crash)"));
        }
        self.inner.len()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        match self.gate(0)? {
            Verdict::Proceed | Verdict::Transient(_) => {
                // Growing a file allocates blocks; shrinking frees them.
                // Under disk-full only the former fails.
                self.check_space(len)?;
                self.inner.set_len(len)
            }
            Verdict::CrashAfter(_) => Err(injected("truncate failed")),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        match self.gate(0)? {
            Verdict::Proceed | Verdict::Transient(_) => self.inner.sync(),
            Verdict::CrashAfter(_) => Err(injected("sync failed")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_roundtrip() {
        let mut b = MemBackend::new();
        b.write_at(10, b"hello").expect("write");
        assert_eq!(b.len().expect("len"), 15);
        let mut buf = [0u8; 5];
        b.read_at(10, &mut buf).expect("read");
        assert_eq!(&buf, b"hello");
        assert!(b.read_at(14, &mut buf).is_err(), "read past end");
        b.set_len(3).expect("truncate");
        assert_eq!(b.len().expect("len"), 3);
    }

    #[test]
    fn crash_fail_blocks_everything_after() {
        let plan = FaultPlan::crash_at(1, CrashMode::Fail);
        let mut b = plan.wrap("f", MemBackend::new());
        b.write_at(0, b"one").expect("op 0 fine");
        assert!(b.write_at(3, b"two").is_err(), "op 1 crashes");
        assert!(plan.crashed());
        assert!(b.write_at(0, b"x").is_err(), "dead after the crash");
        assert!(b.sync().is_err());
        let mut probe = [0u8; 1];
        assert!(b.read_at(0, &mut probe).is_err());
    }

    #[test]
    fn torn_write_lands_half() {
        let plan = FaultPlan::crash_at(0, CrashMode::TornWrite);
        let mut mem = MemBackend::new();
        mem.write_at(0, &[0xAAu8; 8]).expect("prefill");
        let mut b = plan.wrap("f", mem);
        assert!(b.write_at(0, &[0x55u8; 8]).is_err(), "torn");
        // Inspect the media under the dead injector.
        let mut clean = plan.wrap("inspect", MemBackend::new());
        let _ = &mut clean; // (separate instance; inspect the original below)
        let FaultInjector { mut inner, .. } = b;
        let mut buf = [0u8; 8];
        inner.read_at(0, &mut buf).expect("raw read");
        assert_eq!(&buf[..4], &[0x55; 4], "first half landed");
        assert_eq!(&buf[4..], &[0xAA; 4], "second half never arrived");
    }

    #[test]
    fn bit_flips_corrupt_reads_of_matching_tag_only() {
        let plan = FaultPlan::counting();
        let mut mem = MemBackend::new();
        mem.write_at(0, &[0u8; 4]).expect("prefill");
        let mut b = plan.wrap("data", mem);
        plan.flip_bit("data", 2, 7);
        plan.flip_bit("other", 1, 0);
        let mut buf = [0u8; 4];
        b.read_at(0, &mut buf).expect("read");
        assert_eq!(buf, [0, 0, 0x80, 0]);
    }

    #[test]
    fn ops_are_counted_globally_across_files() {
        let plan = FaultPlan::counting();
        let mut a = plan.wrap("a", MemBackend::new());
        let mut b = plan.wrap("b", MemBackend::new());
        a.write_at(0, b"x").expect("write");
        b.write_at(0, b"y").expect("write");
        a.sync().expect("sync");
        assert_eq!(plan.ops(), 3);
    }

    #[test]
    fn disk_full_blocks_extension_only_and_clears() {
        let plan = FaultPlan::counting();
        let mut b = plan.wrap("f", MemBackend::new());
        b.write_at(0, &[0xAAu8; 16]).expect("prefill");

        plan.set_disk_full(true);
        assert!(plan.is_disk_full());
        let err = b.write_at(8, &[0u8; 16]).expect_err("extension blocked");
        assert!(is_disk_full(&err), "typed StorageFull, got {err}");
        assert!(is_disk_full(&b.set_len(64).expect_err("growth blocked")));

        // Overwrites, shrinks, reads, and syncs all proceed while full —
        // that is what lets recovery roll a deployment back in place.
        b.write_at(0, &[0x55u8; 16]).expect("overwrite in place");
        b.set_len(8).expect("shrink");
        let mut buf = [0u8; 8];
        b.read_at(0, &mut buf).expect("read");
        assert_eq!(buf, [0x55; 8]);
        b.sync().expect("sync");

        plan.set_disk_full(false);
        b.write_at(0, &[0u8; 64]).expect("space came back");
        assert_eq!(b.len().expect("len"), 64);
    }

    #[test]
    fn transient_short_write_lands_prefix_and_backend_survives() {
        let plan = FaultPlan::counting();
        let mut b = plan.wrap("f", MemBackend::new());
        b.write_at(0, &[0xAAu8; 1024]).expect("op 0: prefill");
        plan.fail_write_at(1, WriteFault::Short);
        let err = b.write_at(0, &[0x55u8; 1024]).expect_err("op 1 short");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert!(!plan.crashed(), "transient faults never latch the crash");

        let mut buf = [0u8; 1024];
        b.read_at(0, &mut buf).expect("still readable");
        assert_eq!(&buf[..512], &[0x55; 512], "512-byte prefix landed");
        assert_eq!(&buf[512..], &[0xAA; 512], "tail never arrived");

        // The very next write succeeds: the fault was one-shot.
        b.write_at(0, &[0x11u8; 1024]).expect("recovered");
    }

    #[test]
    fn transient_disk_full_lands_nothing() {
        let plan = FaultPlan::counting();
        let mut b = plan.wrap("f", MemBackend::new());
        b.write_at(0, &[0xAAu8; 8]).expect("prefill");
        plan.fail_write_at(1, WriteFault::DiskFull);
        let err = b.write_at(0, &[0x55u8; 8]).expect_err("enospc");
        assert!(is_disk_full(&err));
        let mut buf = [0u8; 8];
        b.read_at(0, &mut buf).expect("read");
        assert_eq!(buf, [0xAA; 8], "failed write left no trace");
        b.write_at(0, &[0x55u8; 8]).expect("one-shot: next write fine");
    }

    #[test]
    fn transient_slot_on_non_write_is_consumed_harmlessly() {
        let plan = FaultPlan::counting();
        let mut b = plan.wrap("f", MemBackend::new());
        plan.fail_write_at(0, WriteFault::DiskFull);
        b.sync().expect("op 0 is a sync: proceeds, consumes the slot");
        b.write_at(0, b"x").expect("op 1 unaffected");
    }

    #[test]
    fn boxed_dyn_backend_delegates() {
        let mut b: DynBackend = Box::new(MemBackend::new());
        b.write_at(0, b"dyn").expect("write");
        assert_eq!(b.len().expect("len"), 3);
        let mut buf = [0u8; 3];
        b.read_at(0, &mut buf).expect("read");
        assert_eq!(&buf, b"dyn");
        b.set_len(1).expect("truncate");
        b.sync().expect("sync");
    }
}
