//! Thin OS layer: CPU affinity, resource usage and peak memory, read
//! through `extern "C"` declarations of the C library the standard
//! library already links (no `libc` crate).

use crate::harness::Digest;
use std::os::raw::{c_int, c_long};

/// Bits in the affinity mask buffer (the kernel's default `cpu_set_t`).
const MASK_WORDS: usize = 16;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    ixrss: c_long,
    idrss: c_long,
    isrss: c_long,
    minflt: c_long,
    majflt: c_long,
    nswap: c_long,
    inblock: c_long,
    oublock: c_long,
    msgsnd: c_long,
    msgrcv: c_long,
    nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// CPUs the process may currently run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread, and every thread it spawns afterwards,
/// to the single CPU `cpu`.
pub fn pin_to(cpu: usize) -> Result<(), String> {
    if cpu >= MASK_WORDS * 64 {
        return Err(format!("cpu {cpu} outside the affinity mask"));
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity({cpu}) failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Context switches of the whole process so far, voluntary plus
/// involuntary, over all threads, live and exited.
pub fn context_switches() -> u64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a properly aligned, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return 0;
    }
    (ru.nvcsw.max(0) + ru.nivcsw.max(0)) as u64
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit of the checkout, when it is a git work tree.
pub fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{r}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(r))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Digest of the program's sources (`crates/`, the workspace
/// manifest and lock file), walked in path order: identifies the code
/// measured when the checkout carries no git metadata.
pub fn source_digest() -> Option<String> {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    if files.is_empty() {
        return None;
    }
    files.push("Cargo.toml".into());
    files.push("Cargo.lock".into());
    files.sort();
    let mut h = Digest::new();
    for f in &files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(f).unwrap_or_default());
    }
    Some(format!("{:016x}", h.0))
}
