//! Residency budgets for a parked Eject, untouched and touched.
//!
//! The paper's Ejects are numerous and mostly parked, so what one keeps
//! while it waits matters as much as what it costs while it answers. This
//! binary counts the heap bytes held (a `#[global_allocator]` is per
//! binary, hence a test file of its own):
//!
//! * *Resident.* Spawn trivial Ejects and let them park, after a first
//!   batch of as many, so the kernel's first-use allocations are not
//!   charged to them (the registry's growth still is, amortised as at any
//!   population). The benchmark's `rss_bytes_per_eject` prices the same
//!   thing by RSS, which moves with the allocator and the host; this is
//!   its exact form.
//! * *Touched.* A parked Eject's mailbox ring is released only above a
//!   burst size; below it, the ring keeps the slots its first delivery
//!   allocated, each the size of an envelope. Invoke each Eject once, let
//!   it park again, and charge the difference to the touched Ejects.
//!
//! Measured when the budgets were set: 549 bytes a resident Eject, and 288
//! bytes more a touched one (1 024 while an envelope was 256 bytes).

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::{Duration, Instant};

use eden_core::Value;
use eden_kernel::{EjectBehavior, EjectContext, Invocation, Kernel, ObsConfig, ReplyHandle};

struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// statistic and touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        // SAFETY: as `dealloc`, and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const EJECTS: usize = 2_000;
/// An envelope's invocation arm, its largest: the kernel's own layout test
/// pins the envelope to it.
const ENVELOPE: usize = size_of::<Invocation>() + size_of::<ReplyHandle>();
/// Bytes a touched Eject may keep over an untouched one: a four-slot ring
/// and change.
const TOUCHED_BUDGET: usize = 4 * ENVELOPE + 64;
/// Bytes a spawned, parked, never-invoked Eject may hold: the 549 read when
/// the budget was set, with the touched budget's headroom (352 over 288,
/// +22 %).
const RESIDENT_BUDGET: usize = 672;

struct Unit;

impl EjectBehavior for Unit {
    fn type_name(&self) -> &'static str {
        "Unit"
    }
    fn handle(&mut self, _ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        reply.reply(Ok(Value::Unit));
    }
}

/// Wait until `ejects` Ejects are parked, then read the live heap.
fn parked_bytes(kernel: &Kernel, ejects: usize) -> isize {
    let give_up = Instant::now() + Duration::from_secs(60);
    while kernel.metrics_snapshot().sched.parked_ejects < ejects as u64 {
        assert!(Instant::now() < give_up, "the Ejects never parked");
        std::thread::sleep(Duration::from_millis(5));
    }
    LIVE_BYTES.load(Ordering::Relaxed)
}

// One test, so nothing else in this binary allocates beside the census.
#[test]
fn a_parked_eject_keeps_within_its_budgets() {
    let kernel = Kernel::builder().observability(ObsConfig::off()).build();
    let spawn = || -> Vec<_> {
        (0..EJECTS)
            .map(|_| kernel.spawn(Box::new(Unit)).expect("spawn"))
            .collect()
    };
    let first = spawn();
    let before = parked_bytes(&kernel, EJECTS);
    let ejects = spawn();
    let untouched = parked_bytes(&kernel, 2 * EJECTS);
    let resident = (untouched - before) / EJECTS as isize;
    println!("{resident} bytes held a resident Eject (budget {RESIDENT_BUDGET})");
    for &uid in &ejects {
        kernel.invoke(uid, "Ping", Value::Unit).wait().expect("reply");
    }
    let touched = parked_bytes(&kernel, 2 * EJECTS);
    let each = (touched - untouched) / EJECTS as isize;
    println!("{each} bytes held a touched Eject over an untouched one (budget {TOUCHED_BUDGET})");
    assert!(
        resident <= RESIDENT_BUDGET as isize,
        "a resident Eject keeps {resident} bytes, budget {RESIDENT_BUDGET}"
    );
    assert!(
        each <= TOUCHED_BUDGET as isize,
        "a touched Eject keeps {each} bytes, budget {TOUCHED_BUDGET}"
    );
    drop((first, ejects));
    kernel.shutdown();
}
