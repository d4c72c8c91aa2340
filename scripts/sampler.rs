//! A CPU-time sampler to load with `LD_PRELOAD` (Linux, x86_64): every
//! 2 ms of the process's CPU time (`ITIMER_PROF`, `SIGPROF`) it records the
//! interrupted instruction pointer and the return addresses of a
//! frame-pointer chain, reading each frame with `process_vm_readv` so that a
//! bad frame pointer ends the chain instead of faulting. At exit it writes
//! the samples and `/proc/self/maps` beside `$EDEN_SAMPLER_OUT`:
//! `<out>.<pid>.samples`, one sample a line, hexadecimal addresses
//! innermost first, and `<out>.<pid>.maps`.
//!
//!   rustc -O --edition 2021 --crate-type cdylib -o libsampler.so scripts/sampler.rs
//!   EDEN_SAMPLER_OUT=/tmp/prof LD_PRELOAD=./libsampler.so program ...
//!
//! Only frames built with frame pointers chain (`-C force-frame-pointers=yes`);
//! `scripts/profile.sh` builds the benchmark so, runs it under this library
//! and attributes the samples.

use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

const SIGPROF: i32 = 27;
const ITIMER_PROF: i32 = 2;
const SA_SIGINFO: i32 = 4;
const SA_RESTART: i32 = 0x1000_0000;
const PERIOD_US: i64 = 2_000;
/// Words a sample: its depth, then the instruction pointer and return
/// addresses.
const WORDS: usize = 34;
const SAMPLES: usize = 1 << 16;
/// `ucontext_t` offsets of `uc_mcontext.gregs[REG_RBP]` and `[REG_RIP]`.
const RBP_AT: usize = 40 + 10 * 8;
const RIP_AT: usize = 40 + 16 * 8;

#[repr(C)]
struct SigAction {
    handler: usize,
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Itimerval {
    interval: Timeval,
    value: Timeval,
}

#[repr(C)]
struct Iovec {
    base: *mut u8,
    len: usize,
}

extern "C" {
    fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
    fn getpid() -> i32;
    fn process_vm_readv(
        pid: i32,
        local: *const Iovec,
        local_count: u64,
        remote: *const Iovec,
        remote_count: u64,
        flags: u64,
    ) -> isize;
    fn __errno_location() -> *mut i32;
}

static mut BUF: [u64; SAMPLES * WORDS] = [0; SAMPLES * WORDS];
static TAKEN: AtomicUsize = AtomicUsize::new(0);
static PID: AtomicUsize = AtomicUsize::new(0);
static OUT: OnceLock<String> = OnceLock::new();

#[used]
#[link_section = ".init_array"]
static INIT: extern "C" fn() = start;

#[used]
#[link_section = ".fini_array"]
static FINI: extern "C" fn() = finish;

fn arm(period_us: i64) {
    let every = || Timeval {
        sec: 0,
        usec: period_us,
    };
    let timer = Itimerval {
        interval: every(),
        value: every(),
    };
    // SAFETY: a plain system call on a value that lives across it.
    unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
}

extern "C" fn start() {
    let Ok(out) = std::env::var("EDEN_SAMPLER_OUT") else {
        return;
    };
    let _ = OUT.set(out);
    // SAFETY: as above.
    PID.store(unsafe { getpid() } as usize, Ordering::Relaxed);
    let action = SigAction {
        handler: on_prof as *const () as usize,
        mask: [0; 16],
        flags: SA_SIGINFO | SA_RESTART,
        restorer: 0,
    };
    // SAFETY: the handler below is async-signal-safe: atomics, a system
    // call and writes into its own reserved slot.
    unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) };
    arm(PERIOD_US);
}

/// Read two words at `at` of this process, or nothing if they are not
/// mapped.
fn read_frame(at: u64) -> Option<[u64; 2]> {
    let mut frame = [0u64; 2];
    let local = Iovec {
        base: frame.as_mut_ptr().cast(),
        len: 16,
    };
    let remote = Iovec {
        base: at as *mut u8,
        len: 16,
    };
    let pid = PID.load(Ordering::Relaxed) as i32;
    // SAFETY: the kernel checks the remote range; the local one is ours.
    let read = unsafe { process_vm_readv(pid, &local, 1, &remote, 1, 0) };
    (read == 16).then_some(frame)
}

extern "C" fn on_prof(_sig: i32, _info: *mut u8, context: *mut u8) {
    let slot = TAKEN.fetch_add(1, Ordering::Relaxed);
    if slot >= SAMPLES {
        return;
    }
    // SAFETY: errno belongs to the interrupted code; it is put back below.
    let errno = unsafe { *__errno_location() };
    // SAFETY: the kernel passes a `ucontext_t`, and slot `slot` of the
    // buffer is this handler's alone (the `fetch_add` above).
    unsafe {
        let rip = *(context.add(RIP_AT) as *const u64);
        let mut rbp = *(context.add(RBP_AT) as *const u64);
        let sample = std::ptr::addr_of_mut!(BUF).cast::<u64>().add(slot * WORDS);
        *sample.add(1) = rip;
        let mut depth = 1;
        while depth < WORDS - 1 && rbp != 0 && rbp % 8 == 0 {
            let Some([next, ret]) = read_frame(rbp) else {
                break;
            };
            if ret == 0 {
                break;
            }
            *sample.add(1 + depth) = ret;
            depth += 1;
            if next <= rbp {
                break;
            }
            rbp = next;
        }
        *sample = depth as u64;
        *__errno_location() = errno;
    }
}

extern "C" fn finish() {
    let Some(out) = OUT.get() else {
        return;
    };
    arm(0);
    let pid = PID.load(Ordering::Relaxed);
    let taken = TAKEN.load(Ordering::Relaxed).min(SAMPLES);
    let Ok(file) = std::fs::File::create(format!("{out}.{pid}.samples")) else {
        return;
    };
    let mut file = std::io::BufWriter::new(file);
    // SAFETY: the timer is off; the handler writes no more.
    let buf = unsafe { &*std::ptr::addr_of!(BUF) };
    for sample in buf.chunks(WORDS).take(taken) {
        let depth = sample[0] as usize;
        if depth == 0 {
            continue;
        }
        let line: Vec<String> = sample[1..=depth].iter().map(|a| format!("{a:x}")).collect();
        let _ = writeln!(file, "{}", line.join(" "));
    }
    let _ = file.flush();
    let _ = std::fs::copy("/proc/self/maps", format!("{out}.{pid}.maps"));
}
