//! An allocation budget for the invocation path, so spelling does not creep
//! back into it.
//!
//! The paper prices a datum's trip in invocations (§4: n+1 against 2n+2).
//! What an invocation costs on top of its hop should be its argument and
//! its reply and nothing else: protocol field names and operation names are
//! statics, payloads are shared. This binary counts heap allocations (a
//! `#[global_allocator]` is per binary, hence a test file of its own) over
//! the `pipe-hop` pipeline — depth-4 `Identity`, batch 1, integer channels,
//! 2 000 `Value::Int`s, observability off — and divides by the invocations
//! the kernel metered. No timing in it.
//!
//! Measured when the budget was set: 0.21 / 0.21 / 0.61–0.64 allocations an
//! invocation read-only / write-only / conventional, the budget 1.15 times
//! the worst, rounded up, since a thread keeps and reuses its retired reply
//! cells and list spines (2.20 / 2.20 / 2.58–2.63 while each hop allocated
//! both, under a budget of 3.0; 4.2 / 3.2 / 4.0–4.07 while every stream
//! message was a record, under 4.7; 8.0 / 6.0 / 6.5 while a record was a
//! vector in a box and a hop copied its batch into and out of a queue;
//! 18.0 / 14.0 / 15.5 when every field name and op name was a heap copy).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use eden_core::Value;
use eden_kernel::{Kernel, ObsConfig};
use eden_transput::transform::Identity;
use eden_transput::{ChannelPolicy, Discipline, PipelineSpec};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// statistic and touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`, and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const RECORDS: i64 = 2_000;
const DEPTH: usize = 4;
/// Allocations an invocation may cost, any discipline.
const BUDGET: f64 = 0.74;

/// (allocations, invocations) of one run, from a built pipeline to the end
/// of `run` on a kernel of its own.
fn census(discipline: Discipline) -> (u64, u64) {
    let kernel = Kernel::builder().observability(ObsConfig::off()).build();
    let mut spec = PipelineSpec::new(discipline)
        .source_vec((0..RECORDS).map(Value::Int).collect())
        .batch(1)
        .policy(ChannelPolicy::Integer);
    for _ in 0..DEPTH {
        spec = spec.stage(Box::new(Identity));
    }
    let pipeline = spec.build(&kernel).expect("the pipeline builds");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let run = pipeline
        .run(Duration::from_secs(60))
        .expect("the pipeline runs");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(run.records_out, RECORDS as u64);
    let invocations = kernel.metrics().snapshot().invocations;
    kernel.shutdown();
    (allocations, invocations)
}

// One test, so nothing else in this binary allocates beside a census.
#[test]
fn an_invocation_allocates_within_its_budget() {
    let disciplines = [
        Discipline::ReadOnly { read_ahead: 0 },
        Discipline::WriteOnly { push_ahead: 0 },
        Discipline::Conventional {
            buffer_capacity: 64,
        },
    ];
    for discipline in disciplines {
        let (allocations, invocations) = census(discipline);
        let each = allocations as f64 / invocations as f64;
        println!(
            "{}: {allocations} allocations / {invocations} invocations = {each:.2} \
             ({:.1} a record)",
            discipline.label(),
            allocations as f64 / RECORDS as f64
        );
        assert!(
            each <= BUDGET,
            "{}: {each:.2} allocations an invocation, budget {BUDGET}",
            discipline.label()
        );
    }
    // Every read-only hop is a call on its caller's stack: nothing races,
    // so the count itself repeats.
    let read_only = || {
        let (allocations, invocations) = census(Discipline::ReadOnly { read_ahead: 0 });
        (10.0 * allocations as f64 / invocations as f64).round()
    };
    assert_eq!(
        read_only(),
        read_only(),
        "tenths of an allocation an invocation"
    );
}
