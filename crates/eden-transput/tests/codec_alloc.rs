//! What the stream protocol's codec allocates, pinned for both of its forms.
//! A message whose header holds the defaults (primary channel, no position,
//! more to come) is its payload alone: a `Transfer` is its `max`, no
//! allocation, and a `Batch` or `Write` its items list, one. Any other
//! message adds its record: one allocation a `Transfer`, two a `Batch` or
//! `Write`. Decoding a reply or argument nobody else holds allocates nothing
//! in either form — the items move out of whatever carried them, and the
//! emptied list spine is kept by the decoding thread. Those counts are a
//! thread's that has kept no spine yet; on a thread that has kept one, the
//! next items list reuses it, and a `Batch` or `Write` costs one allocation
//! less: none for its payload alone, one with its record.
//!
//! A `#[global_allocator]` is per binary, hence a test file of its own, and
//! one test in it, so nothing else in the binary allocates beside a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use eden_core::Value;
use eden_transput::protocol::{Batch, ChannelId, TransferRequest, WriteRequest};

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

/// Runs `case` on a thread of its own, first with no list spine kept
/// (`kept` 0), then again with the one its first decode kept (`kept` 1).
fn on_a_fresh_thread_then_again(case: impl Fn(u64) + Send + 'static) {
    std::thread::spawn(move || (0..2).for_each(&case))
        .join()
        .unwrap();
}

/// What `f` returns, and the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = std::hint::black_box(f());
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn the_codec_allocates_only_what_is_not_a_default() {
    let report = |max| TransferRequest {
        channel: ChannelId::report(),
        max,
        pos: None,
    };
    for (request, allocations) in [
        (TransferRequest::primary(1), 0),
        (TransferRequest::primary(64).at(1_000), 1),
        (report(8), 1),
    ] {
        let (arg, encode) = counted(|| request.to_value());
        let (decoded, decode) = counted(|| TransferRequest::from_value(&arg));
        assert_eq!(decoded.unwrap(), request);
        assert_eq!((encode, decode), (allocations, 0), "Transfer {request:?}");
    }

    for (end, allocations) in [(false, 1), (true, 2)] {
        on_a_fresh_thread_then_again(move |kept| {
            let items = vec![Value::Int(1), Value::str("two")];
            let (reply, encode) = counted(|| Batch { items, end }.to_value());
            let (decoded, decode) = counted(|| Batch::from_value(reply));
            assert_eq!(decoded.unwrap().items.len(), 2);
            let want = (allocations - kept, 0);
            assert_eq!(
                (encode, decode),
                want,
                "Batch end={end}, spines kept {kept}"
            );
        });
    }

    for (channel, end, seq, allocations) in [
        (ChannelId::output(), false, None, 1),
        (ChannelId::output(), false, Some(42), 2),
        (ChannelId::output(), true, None, 2),
        (ChannelId::report(), false, None, 2),
    ] {
        on_a_fresh_thread_then_again(move |kept| {
            let request = WriteRequest {
                channel,
                items: vec![Value::Int(1)],
                end,
                seq,
            };
            let sent = request.clone();
            let (arg, encode) = counted(|| sent.to_value());
            let (decoded, decode) = counted(|| WriteRequest::from_value(arg));
            assert_eq!(decoded.unwrap(), request);
            let want = (allocations - kept, 0);
            assert_eq!(
                (encode, decode),
                want,
                "Write {request:?}, spines kept {kept}"
            );
        });
    }
}
