//! A residency budget for an Eject an invocation has touched.
//!
//! The paper's Ejects are numerous and mostly parked, so what one keeps
//! after it has answered matters as much as what it costs while it
//! answers. A parked Eject's mailbox ring is released only above a burst
//! size; below it, the ring keeps the slots its first delivery allocated,
//! each the size of an envelope. The benchmark's `rss_bytes_per_eject`
//! measures untouched Ejects only, so this binary counts the heap bytes
//! still held (a `#[global_allocator]` is per binary, hence a test file of
//! its own): spawn trivial Ejects, let them park, invoke each once, let them
//! park again, and charge the difference to the touched Ejects.
//!
//! Measured when the budget was set: 288 bytes a touched Eject (1 024 while
//! an envelope was 256 bytes).

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
const BUDGET: usize = 4 * ENVELOPE + 64;

struct Unit;

impl EjectBehavior for Unit {
    fn type_name(&self) -> &'static str {
        "Unit"
    }
    fn handle(&mut self, _ctx: &EjectContext, _inv: Invocation, reply: ReplyHandle) {
        reply.reply(Ok(Value::Unit));
    }
}

/// Wait until every Eject is parked again, then read the live heap.
fn parked_bytes(kernel: &Kernel) -> isize {
    let give_up = Instant::now() + Duration::from_secs(60);
    while kernel.metrics_snapshot().sched.parked_ejects < EJECTS as u64 {
        assert!(Instant::now() < give_up, "the Ejects never parked");
        std::thread::sleep(Duration::from_millis(5));
    }
    LIVE_BYTES.load(Ordering::Relaxed)
}

// One test, so nothing else in this binary allocates beside the census.
#[test]
fn a_touched_eject_keeps_within_its_budget() {
    let kernel = Kernel::builder().observability(ObsConfig::off()).build();
    let ejects: Vec<_> = (0..EJECTS)
        .map(|_| kernel.spawn(Box::new(Unit)).expect("spawn"))
        .collect();
    let untouched = parked_bytes(&kernel);
    for &uid in &ejects {
        kernel.invoke(uid, "Ping", Value::Unit).wait().expect("reply");
    }
    let touched = parked_bytes(&kernel);
    let each = (touched - untouched) / EJECTS as isize;
    println!("{each} bytes held a touched Eject over an untouched one (budget {BUDGET})");
    assert!(
        each <= BUDGET as isize,
        "a touched Eject keeps {each} bytes, budget {BUDGET}"
    );
    drop(ejects);
    kernel.shutdown();
}
