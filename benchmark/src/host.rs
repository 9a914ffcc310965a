//! Facts about the machine the benchmark runs on, and the one thing the
//! harness does to it so that numbers repeat: it runs on **one core**.
//!
//! On the 2-vCPU sandbox this benchmark was sized on, a loopback round
//! trip between two threads costs ~15 µs when both run on one CPU and
//! ~60 µs when the reply has to wake the other, halted, vCPU — and which
//! of the two a run gets is the scheduler's choice, for the life of the
//! connection (README.md, "What keeps the numbers steady").  The whole
//! process is pinned to one CPU so every run gets the first.

use std::path::Path;

/// `cpu_set_t` is 1024 bits on Linux.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread — and so every thread it later spawns, servers
/// included — to the highest-numbered CPU it is allowed on (CPU 0 takes
/// most of a VM's interrupts).  Returns that CPU, or `None` where the
/// kernel refuses, in which case the run goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread; the kernel writes at most
    // that many bytes.
    let got = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut only = [0u64; CPU_SET_WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the byte length passed and
    // is only read; pid 0 names the calling thread.
    let set = unsafe { sched_setaffinity(0, size_of_val(&only), only.as_ptr()) };
    (set == 0).then_some(cpu)
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The filesystem type `path` is on, from `/proc/self/mountinfo` (longest
/// mount-point prefix wins); `unknown` where that cannot be read.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fs)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `git rev-parse HEAD` of the working directory, `unknown` outside a
/// repository (the driver's checkout is not one).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}
