//! Process-wide data-plane counters: the cost of *moving bytes*, kept
//! separate from the control-plane counters in `crate::metrics`.
//!
//! The paper's n+1 / 2n+2 formulas count *invocations* per datum; these
//! counters give the companion invariant for *payload bytes per datum per
//! hop*. After the copy-on-write refactor of [`crate::value::Value`], a
//! record allocated at a source is shared — not copied — through every
//! filter hop and across every fan-out branch, so:
//!
//! * `payload_copies` / `payload_bytes_moved` stay **constant** as fan-out
//!   width grows (before: one deep copy of the whole batch per consumer),
//! * `cow_breaks` counts the only remaining copies: a mutation of a datum
//!   that is actually aliased somewhere else,
//! * `payload_shares` counts the cheap reference-bump clones that replaced
//!   deep copies.
//!
//! The counters are process-wide statics (relaxed atomics) rather than a
//! per-kernel [`crate::Metrics`] handle because sharing decisions happen
//! inside `Value` itself, far below any context that carries a metrics
//! handle. They are statistics, not synchronisation; benchmarks meter a
//! region by subtracting two [`snapshot`]s.

use std::sync::atomic::{AtomicU64, Ordering};

static BYTES_MOVED: AtomicU64 = AtomicU64::new(0);
static COPIES: AtomicU64 = AtomicU64::new(0);
static COW_BREAKS: AtomicU64 = AtomicU64::new(0);
static SHARES: AtomicU64 = AtomicU64::new(0);

/// Record one deep-copy event that physically moved `bytes` payload bytes
/// (serialisation, a copying decode, or an explicit
/// [`crate::value::Value::deep_copy`]).
#[inline]
pub fn note_copy(bytes: usize) {
    COPIES.fetch_add(1, Ordering::Relaxed);
    BYTES_MOVED.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Record a copy-on-write break: a mutable access to a container that was
/// aliased, forcing the spine to be duplicated before the edit.
#[inline]
pub fn note_cow_break() {
    COW_BREAKS.fetch_add(1, Ordering::Relaxed);
}

/// Record a cheap share (reference bump) of a payload-bearing datum —
/// an event that, before the zero-copy plane, was a deep copy.
#[inline]
pub fn note_share() {
    SHARES.fetch_add(1, Ordering::Relaxed);
}

/// Capture the current data-plane counters.
pub fn snapshot() -> PayloadSnapshot {
    PayloadSnapshot {
        payload_bytes_moved: BYTES_MOVED.load(Ordering::Relaxed),
        payload_copies: COPIES.load(Ordering::Relaxed),
        cow_breaks: COW_BREAKS.load(Ordering::Relaxed),
        payload_shares: SHARES.load(Ordering::Relaxed),
    }
}

/// A point-in-time copy of the data-plane counters. Subtract two snapshots
/// (via [`PayloadSnapshot::since`]) to meter a region of execution.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // Field names are self-describing counter names.
pub struct PayloadSnapshot {
    pub payload_bytes_moved: u64,
    pub payload_copies: u64,
    pub cow_breaks: u64,
    pub payload_shares: u64,
}

impl PayloadSnapshot {
    /// Events that occurred between `earlier` and `self`.
    pub fn since(&self, earlier: &PayloadSnapshot) -> PayloadSnapshot {
        PayloadSnapshot {
            payload_bytes_moved: self.payload_bytes_moved - earlier.payload_bytes_moved,
            payload_copies: self.payload_copies - earlier.payload_copies,
            cow_breaks: self.cow_breaks - earlier.cow_breaks,
            payload_shares: self.payload_shares - earlier.payload_shares,
        }
    }
}
