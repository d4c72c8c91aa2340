//! The host as the benchmark sees it: CPU placement, process clocks,
//! `/proc` read-outs, and the `env` block printed with every result.
//!
//! CPU placement is part of each workload's definition (see README,
//! "Placement"), so the affinity calls live here and fail loudly: a pinned
//! workload that could not pin must not report a number.

use std::process::Command;

/// `cpu_set_t` on Linux: 1024 bits.
type CpuSet = [u64; 16];

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
pub fn affinity() -> Result<Vec<usize>, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..1024)
        .filter(|cpu| set[cpu / 64] & (1u64 << (cpu % 64)) != 0)
        .collect())
}

/// Restrict the calling thread — and every thread it spawns afterwards — to
/// the first CPU of its inherited mask. Returns the CPU chosen; verified by
/// reading the mask back.
pub fn pin_to_first_cpu() -> Result<usize, String> {
    let inherited = affinity()?;
    let cpu = *inherited.first().ok_or("inherited CPU mask is empty")?;
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1u64 << (cpu % 64);
    // SAFETY: `set` is a live buffer of exactly the size passed; pid 0 names
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity(cpu {cpu}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let applied = affinity()?;
    if applied != [cpu] {
        return Err(format!(
            "affinity mask reads {applied:?} after pinning to cpu {cpu}"
        ));
    }
    Ok(cpu)
}

fn clock_seconds(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec; both clock ids exist on
    // every Linux this benchmark builds for.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User + system CPU seconds consumed by the whole process so far (the
/// nanosecond-resolution form of `/proc/self/stat`'s utime + stime).
pub fn process_cpu_seconds() -> f64 {
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds consumed by the calling thread so far.
pub fn thread_cpu_seconds() -> f64 {
    clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// One `kB` field of `/proc/self/status`, in bytes (0 if absent).
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Resident set size right now, bytes.
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS")
}

/// High-water resident set size of the process, bytes.
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The facts a reader needs to place a number: printed as `env key value`
/// lines ahead of every result.
#[derive(Debug, Clone)]
pub struct Env {
    /// `git rev-parse HEAD` of the tree the benchmark sits in, or `unknown`
    /// (the driver's checkouts are not git repositories).
    pub commit: String,
    /// `std::thread::available_parallelism` before any pinning.
    pub nproc: usize,
    /// CPU mask inherited from the parent process.
    pub inherited_cpus: Vec<usize>,
    /// CPU mask the workload ran under.
    pub applied_cpus: Vec<usize>,
    /// `rustc -V`.
    pub rustc: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel_release: String,
}

impl Env {
    /// Capture the host facts. Call before pinning so `nproc` and the
    /// inherited mask describe the machine, not the workload.
    pub fn capture() -> Result<Env, String> {
        let inherited = affinity()?;
        Ok(Env {
            commit: command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            ),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            applied_cpus: inherited.clone(),
            inherited_cpus: inherited,
            rustc: command_line("rustc", &["-V"]),
            kernel_release: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned()),
        })
    }

    /// Render as `env key value` lines.
    pub fn lines(&self) -> Vec<String> {
        vec![
            format!("env commit {}", self.commit),
            format!("env nproc {}", self.nproc),
            format!("env cpus_inherited {:?}", self.inherited_cpus),
            format!("env cpus_applied {:?}", self.applied_cpus),
            format!("env rustc {}", self.rustc),
            format!("env kernel_release {}", self.kernel_release),
        ]
    }
}
