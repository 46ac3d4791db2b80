//! What the numbers depend on besides the code: the process's CPU
//! clocks and the host and configuration fingerprint that goes into
//! every result.

use std::path::Path;

/// Nanoseconds on the monotonic clock.
pub use rewiring::monotonic_ns as now_ns;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User and system CPU time of the whole process (every thread, so
/// clients and server alike), in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub user_ns: u64,
    pub sys_ns: u64,
}

impl CpuTimes {
    pub fn now() -> CpuTimes {
        let mut ru = Rusage {
            utime: [0; 2],
            stime: [0; 2],
            rest: [0; 14],
        };
        // SAFETY: `ru` is a valid, writable `struct rusage` of the
        // layout this platform's libc fills; RUSAGE_SELF (0) always
        // exists.
        let rc = unsafe { getrusage(0, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let ns = |tv: [i64; 2]| tv[0] as u64 * 1_000_000_000 + tv[1] as u64 * 1_000;
        CpuTimes {
            user_ns: ns(ru.utime),
            sys_ns: ns(ru.stime),
        }
    }

    pub fn since(&self, start: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_ns: self.user_ns - start.user_ns,
            sys_ns: self.sys_ns - start.sys_ns,
        }
    }

    pub fn total_ns(&self) -> u64 {
        self.user_ns + self.sys_ns
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let mut best = (0usize, String::from("unknown"));
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(point), Some(ty)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if path.starts_with(point) && point.len() >= best.0 {
            best = (point.len(), ty.to_string());
        }
    }
    best.1
}

/// Bytes of the regular files directly in and below `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The bracketed choice of a sysfs multiple-choice file.
fn sysfs_choice(path: &str) -> String {
    let s = read_trimmed(path);
    match (s.find('['), s.find(']')) {
        (Some(a), Some(b)) if a < b => s[a + 1..b].to_string(),
        _ => s,
    }
}

/// Host facts that do not depend on the workload.
pub fn host_fingerprint() -> Vec<(&'static str, String)> {
    vec![
        ("nproc", nproc().to_string()),
        ("kernel", read_trimmed("/proc/sys/kernel/osrelease")),
        (
            "thp",
            sysfs_choice("/sys/kernel/mm/transparent_hugepage/enabled"),
        ),
        (
            "shmem_thp",
            sysfs_choice("/sys/kernel/mm/transparent_hugepage/shmem_enabled"),
        ),
        (
            "commit",
            std::env::var("STACKBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        ),
    ]
}
