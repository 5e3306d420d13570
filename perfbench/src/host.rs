//! Host counters read from `/proc`: peak RSS, minor faults, system time,
//! run-queue wait, and the host/revision stamp every result carries.

use std::fs;
use std::path::Path;

/// Process-wide counters at one instant. `utime`/`stime`/`minflt` in
/// `/proc/self/stat` include threads that have already exited, so a
/// sharded run's worker lanes are counted too.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub minflt: u64,
    pub user_s: f64,
    pub sys_s: f64,
    /// Time the calling thread spent on a CPU, in nanosecond precision.
    pub thread_cpu_s: f64,
    /// Time the calling thread spent runnable but waiting for a CPU.
    pub runq_wait_s: f64,
}

impl Counters {
    pub fn now() -> Counters {
        let (minflt, user_s, sys_s) = self_stat();
        let (thread_cpu_s, runq_wait_s) = schedstat();
        Counters {
            minflt,
            user_s,
            sys_s,
            thread_cpu_s,
            runq_wait_s,
        }
    }

    /// `self − earlier`, saturating so a counter that could not be read
    /// reports zero rather than wrapping.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            minflt: self.minflt.saturating_sub(earlier.minflt),
            user_s: (self.user_s - earlier.user_s).max(0.0),
            sys_s: (self.sys_s - earlier.sys_s).max(0.0),
            thread_cpu_s: (self.thread_cpu_s - earlier.thread_cpu_s).max(0.0),
            runq_wait_s: (self.runq_wait_s - earlier.runq_wait_s).max(0.0),
        }
    }
}

/// `(minor faults, user seconds, system seconds)` of this process.
fn self_stat() -> (u64, f64, f64) {
    let Ok(text) = fs::read_to_string("/proc/self/stat") else {
        return (0, 0.0, 0.0);
    };
    // The command name (field 2) may hold spaces; fields after it are
    // plain numbers, starting with field 3 (state).
    let Some(rest) = text.rfind(')').map(|i| &text[i + 2..]) else {
        return (0, 0.0, 0.0);
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> u64 { fields.get(n - 3).and_then(|f| f.parse().ok()).unwrap_or(0) };
    // Field 10 is minflt; fields 14 and 15 are utime and stime in clock
    // ticks (USER_HZ, 100 on every Linux ABI this runs on).
    (
        field(10),
        field(14) as f64 / 100.0,
        field(15) as f64 / 100.0,
    )
}

/// `(time on CPU, run-queue wait)` of the calling thread: the first two
/// fields of `/proc/thread-self/schedstat`, in nanoseconds.
fn schedstat() -> (f64, f64) {
    let Ok(text) = fs::read_to_string("/proc/thread-self/schedstat") else {
        return (0.0, 0.0);
    };
    let mut fields = text
        .split_whitespace()
        .map(|f| f.parse::<u64>().map_or(0.0, |ns| ns as f64 * 1e-9));
    (fields.next().unwrap_or(0.0), fields.next().unwrap_or(0.0))
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set size (`VmRSS`) in MiB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0.0)
}

/// The host and source-revision stamp printed with every result.
pub struct Stamp {
    pub nproc: usize,
    pub kernel: String,
    pub git_rev: String,
}

impl Stamp {
    pub fn collect() -> Stamp {
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
            git_rev: git_rev(Path::new(".")).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// Resolves `HEAD` by reading `.git` directly, so the stamp needs no git
/// binary; a checkout that is not a git repository reports `None`.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
