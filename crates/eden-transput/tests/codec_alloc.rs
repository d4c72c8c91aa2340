//! What the stream protocol's codec allocates, pinned: a `Transfer`
//! argument is one allocation (its record), a `Batch` reply and a `Write`
//! argument two each (the items list's header and the record), and decoding
//! a reply or argument nobody else holds allocates nothing — the items move
//! out of the record that carried them.
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

/// What `f` returns, and the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = std::hint::black_box(f());
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn the_codec_allocates_its_records_and_decodes_for_free() {
    for request in [
        TransferRequest::primary(1),
        TransferRequest::primary(64).at(1_000),
        TransferRequest {
            channel: ChannelId::report(),
            max: 8,
            pos: None,
        },
    ] {
        let (arg, encode) = counted(|| request.to_value());
        let (decoded, decode) = counted(|| TransferRequest::from_value(&arg));
        assert_eq!(decoded.unwrap(), request);
        assert_eq!((encode, decode), (1, 0), "Transfer {request:?}");
    }

    for end in [false, true] {
        let items = vec![Value::Int(1), Value::str("two")];
        let (reply, encode) = counted(|| Batch { items, end }.to_value());
        let (decoded, decode) = counted(|| Batch::from_value(reply));
        assert_eq!(decoded.unwrap().items.len(), 2);
        assert_eq!((encode, decode), (2, 0), "Batch end={end}");
    }

    for seq in [None, Some(42)] {
        let items = vec![Value::Int(1)];
        let request = WriteRequest {
            channel: ChannelId::output(),
            items,
            end: false,
            seq,
        };
        let (arg, encode) = counted(|| request.to_value());
        let (decoded, decode) = counted(|| WriteRequest::from_value(arg));
        assert_eq!(decoded.unwrap().seq, seq);
        assert_eq!((encode, decode), (2, 0), "Write seq={seq:?}");
    }
}
